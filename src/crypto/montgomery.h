// Montgomery-form modular arithmetic over 64-bit limbs.
//
// This is the performance engine behind every RSA operation in the tree:
// TPM Quote/Seal/Unseal signatures, the AIK handshake, PAL keypairs and
// Miller-Rabin key generation all bottom out in 2048-bit modular
// exponentiation. The context precomputes everything that depends only on
// the modulus - n0' = -n^{-1} mod 2^64 and R^2 mod n with R = 2^(64k) - so
// each multiplication is a single CIOS pass with no long division at all.
//
// Contexts require an odd modulus > 1 (Montgomery reduction needs
// gcd(n, 2^64) = 1); BigInt::ModExp falls back to the generic
// square-and-multiply path for even moduli.
//
// On x86-64 hosts with AVX512-IFMA the context additionally precomputes a
// radix-2^52 representation for moduli of 10 or more 52-bit digits and runs
// exponentiation through a vpmadd52 kernel (8 products per instruction).
// 4-limb (193..256-bit) moduli - the CRT halves of every 512-bit AIK quote -
// run a fixed-width carry-chain kernel on any x86-64 host. Everything else -
// other widths, other hosts, -DFLICKER_SIMD=OFF builds - runs the scalar
// FIOS kernel.

#ifndef FLICKER_SRC_CRYPTO_MONTGOMERY_H_
#define FLICKER_SRC_CRYPTO_MONTGOMERY_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/bigint.h"

namespace flicker {

class MontgomeryContext {
 public:
  // Builds a context for `modulus`. Fails with kInvalidArgument when the
  // modulus is even or <= 1.
  static Result<MontgomeryContext> Create(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  // (base ^ exponent) mod modulus, entirely in Montgomery form: ~bits
  // squarings plus one table multiply per nonzero window. Exponents of at
  // most 32 bits (e = 65537) use plain square-and-multiply; longer ones use
  // 4-bit windows over an odd-power table.
  BigInt ModExp(const BigInt& base, const BigInt& exponent) const;

  // (a * b) mod modulus without long division (two Montgomery products).
  BigInt ModMul(const BigInt& a, const BigInt& b) const;

 private:
  using Limbs = std::vector<uint64_t>;

  MontgomeryContext() = default;

  // out = a * b * R^-1 mod n; a, b, out hold exactly k limbs (out may alias
  // a or b) and a, b must be < n. `scratch` provides k + 2 limbs of working
  // space for the FIOS kernel.
  void MontMul(const uint64_t* a, const uint64_t* b, uint64_t* out, uint64_t* scratch) const;

  // Value reduced mod n, widened to k limbs.
  Limbs ToLimbs(const BigInt& value) const;
  BigInt FromLimbs(const Limbs& limbs) const;

  // Radix-2^52 exponentiation via AVX512-IFMA; only called when nd52_ != 0.
  BigInt ModExpIfma(const BigInt& base, const BigInt& exponent) const;

  BigInt modulus_;
  Limbs n_;             // Modulus limbs (k of them, n_[k-1] != 0).
  Limbs rr_;            // R^2 mod n, k limbs.
  uint64_t n0inv_ = 0;  // -n^{-1} mod 2^64.

  // AVX512-IFMA engine state (radix 2^52); nd52_ == 0 when the host lacks
  // the ISA, the build is not x86-64 or has SIMD off, or the modulus is
  // small enough that the scalar kernel wins.
  size_t nd52_ = 0;        // 52-bit digit count of the modulus.
  uint64_t n0inv52_ = 0;   // -n^{-1} mod 2^52.
  Limbs n52_;              // Modulus digits, zero-padded to 8-lane multiple.
  Limbs rr52_;             // (2^(52*nd52_))^2 mod n, same padding.
};

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_MONTGOMERY_H_
