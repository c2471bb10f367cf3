// Where the SIMD kernels of src/crypto are compiled, and when they run.
//
// A kernel is compiled only for x86-64 with a GCC-compatible compiler, and
// not in -DFLICKER_SIMD=OFF builds (FLICKER_SIMD_DISABLED); the
// FLICKER_CRYPTO_SIMD macro marks such a build. Each kernel lives in a
// function carrying its own target attribute and runs only when the CPU
// reports that ISA; each check below is made once per process. Everywhere
// else the scalar kernel is the only path, and it stays the reference the
// SIMD kernel is tested against (ctest -L simd, verify.sh --perf).
//
// For the kernels' .cc files only; no public header includes it.

#ifndef FLICKER_SRC_CRYPTO_CPU_FEATURES_H_
#define FLICKER_SRC_CRYPTO_CPU_FEATURES_H_

#if defined(__x86_64__) && defined(__GNUC__) && !defined(FLICKER_SIMD_DISABLED)
#define FLICKER_CRYPTO_SIMD 1

#include <immintrin.h>

namespace flicker {

// The radix-2^52 Montgomery kernel (montgomery.cc).
inline bool HasAvx512Ifma() {
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512ifma") &&
                                __builtin_cpu_supports("avx512vl");
  return supported;
}

// The SHA-1 and SHA-256 block kernels (sha1.cc, sha256.cc); SSE4.1 covers
// the byte and lane shuffles around the SHA instructions.
inline bool HasShaNi() {
  static const bool supported = __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  return supported;
}

// The AES block kernels (aes.cc).
inline bool HasAesNi() {
  static const bool supported = __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
  return supported;
}

}  // namespace flicker

#endif  // FLICKER_CRYPTO_SIMD

#endif  // FLICKER_SRC_CRYPTO_CPU_FEATURES_H_
