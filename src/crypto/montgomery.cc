#include "src/crypto/montgomery.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(FLICKER_SIMD_DISABLED)
#define FLICKER_MONT_IFMA 1
#include <immintrin.h>
#endif

namespace flicker {

namespace {

using uint128 = unsigned __int128;

constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;

// n0^{-1} mod 2^64 by Newton-Hensel lifting: for odd n0, inv = n0 is correct
// mod 2^3 and each iteration doubles the number of correct low bits
// (3 -> 6 -> 12 -> 24 -> 48 -> 96 >= 64).
uint64_t NegInverse64(uint64_t n0) {
  uint64_t inv = n0;
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - n0 * inv;
  }
  return ~inv + 1;
}

// Finely Integrated Operand Scanning (FIOS) Montgomery product:
// t = a * b * R^-1 mod-ish n, result left in t[0..k-1] with a possible
// overflow limb in t[k] (at most 1 since a, b < n). t holds k + 2 limbs.
//
// The multiply-by-b[i] pass and the fold-in-m*n pass are fused into one j
// loop with two independent carry chains, so the two 64x64 multiplies per
// iteration pipeline instead of serializing. Marked always_inline so the
// fixed-K wrappers below constant-propagate k and fully unroll.
inline __attribute__((always_inline)) void CiosBody(const uint64_t* a, const uint64_t* b,
                                                    const uint64_t* n, uint64_t n0inv, size_t k,
                                                    uint64_t* t) {
  std::fill(t, t + k + 2, 0);
  for (size_t i = 0; i < k; ++i) {
    const uint64_t bi = b[i];
    // j = 0 decides m (chosen so the low limb of t + a*bi + m*n cancels).
    uint128 p = static_cast<uint128>(a[0]) * bi + t[0];
    const uint64_t m = static_cast<uint64_t>(p) * n0inv;
    uint128 q = static_cast<uint128>(m) * n[0] + static_cast<uint64_t>(p);
    uint64_t carry_a = static_cast<uint64_t>(p >> 64);
    uint64_t carry_n = static_cast<uint64_t>(q >> 64);
    // Fused pass: accumulate a*bi and m*n, storing shifted one limb right.
    for (size_t j = 1; j < k; ++j) {
      p = static_cast<uint128>(a[j]) * bi + t[j] + carry_a;
      carry_a = static_cast<uint64_t>(p >> 64);
      q = static_cast<uint128>(m) * n[j] + static_cast<uint64_t>(p) + carry_n;
      carry_n = static_cast<uint64_t>(q >> 64);
      t[j - 1] = static_cast<uint64_t>(q);
    }
    const uint128 s = static_cast<uint128>(t[k]) + carry_a + carry_n;
    t[k - 1] = static_cast<uint64_t>(s);
    t[k] = static_cast<uint64_t>(s >> 64);
  }
}

template <size_t K>
void CiosFixed(const uint64_t* a, const uint64_t* b, const uint64_t* n, uint64_t n0inv,
               uint64_t* t) {
  CiosBody(a, b, n, n0inv, K, t);
}

// Dispatch to a fully unrolled kernel for the RSA-relevant widths (256/512/
// 1024/1536/2048 bits; 256 is the CRT half of a 512-bit AIK); anything else
// takes the generic loop.
void Cios(const uint64_t* a, const uint64_t* b, const uint64_t* n, uint64_t n0inv, size_t k,
          uint64_t* t) {
  switch (k) {
    case 4:
      return CiosFixed<4>(a, b, n, n0inv, t);
    case 8:
      return CiosFixed<8>(a, b, n, n0inv, t);
    case 16:
      return CiosFixed<16>(a, b, n, n0inv, t);
    case 24:
      return CiosFixed<24>(a, b, n, n0inv, t);
    case 32:
      return CiosFixed<32>(a, b, n, n0inv, t);
    default:
      return CiosBody(a, b, n, n0inv, k, t);
  }
}

#ifdef FLICKER_MONT_IFMA

bool IfmaSupported() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma") &&
         __builtin_cpu_supports("avx512vl");
}

// Radix-2^52 Montgomery product using vpmadd52{l,h}uq, after Gueron &
// Krasnov. Operands are nd proper 52-bit digits zero-padded to nc * 8 lanes;
// `t` is a zeroed sliding accumulator of at least 2 * nd + 8 limbs (the
// per-iteration digit shift becomes a pointer bump instead of data movement).
// Lanes stay below nd * 2^54 < 2^64 for any nd <= 512, so no mid-loop
// normalization is needed; the tail normalizes and conditionally subtracts n
// once (inputs < n and R = 2^(52*nd) > n bound the result by 2n). `out` gets
// nd reduced digits; its padding lanes are left untouched.
__attribute__((target("avx512f,avx512vl,avx512ifma"))) void MontMulIfma(
    const uint64_t* a, const uint64_t* b, const uint64_t* n, uint64_t n0inv52, size_t nd,
    size_t nc, uint64_t* t, uint64_t* out) {
  for (size_t i = 0; i < nd; ++i) {
    const uint64_t bi = b[i];
    // m makes the low digit of t + a*bi + n*m vanish mod 2^52.
    const uint64_t m = ((t[0] + a[0] * bi) * n0inv52) & kMask52;
    const __m512i vb = _mm512_set1_epi64(static_cast<long long>(bi));
    const __m512i vm = _mm512_set1_epi64(static_cast<long long>(m));
    for (size_t c = 0; c < nc; ++c) {
      const __m512i va = _mm512_loadu_si512(a + 8 * c);
      const __m512i vn = _mm512_loadu_si512(n + 8 * c);
      __m512i lo = _mm512_loadu_si512(t + 8 * c);
      lo = _mm512_madd52lo_epu64(lo, va, vb);
      lo = _mm512_madd52lo_epu64(lo, vn, vm);
      _mm512_storeu_si512(t + 8 * c, lo);
    }
    for (size_t c = 0; c < nc; ++c) {
      const __m512i va = _mm512_loadu_si512(a + 8 * c);
      const __m512i vn = _mm512_loadu_si512(n + 8 * c);
      __m512i hi = _mm512_loadu_si512(t + 8 * c + 1);
      hi = _mm512_madd52hi_epu64(hi, va, vb);
      hi = _mm512_madd52hi_epu64(hi, vn, vm);
      _mm512_storeu_si512(t + 8 * c + 1, hi);
    }
    t[1] += t[0] >> 52;  // Low 52 bits of t[0] are zero by choice of m.
    ++t;                 // Digit shift.
  }

  // Normalize the redundant digits, then subtract n if the result >= n.
  uint64_t carry = 0;
  uint64_t top = 0;
  for (size_t j = 0; j <= nd; ++j) {
    const uint64_t v = t[j] + carry;
    carry = v >> 52;
    if (j < nd) {
      out[j] = v & kMask52;
    } else {
      top = v & kMask52;
    }
  }
  bool ge = top != 0;
  if (!ge) {
    ge = true;
    for (size_t j = nd; j-- > 0;) {
      if (out[j] != n[j]) {
        ge = out[j] > n[j];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t j = 0; j < nd; ++j) {
      const uint64_t d = out[j] - n[j] - borrow;
      borrow = (out[j] < n[j] + borrow) ? 1 : 0;
      out[j] = d & kMask52;
    }
  }
}

// Register-resident variant for the RSA-sized digit counts (nd <= 8 * NC,
// NC known at compile time so the accumulator array lowers to zmm
// registers). Same math as MontMulIfma, but the digit shift is a valignq
// cascade instead of a pointer bump, and the hi-products are applied after
// the shift so they land on the same lanes as the a/n vectors - the
// accumulator never round-trips through memory inside the loop.
template <size_t NC>
__attribute__((target("avx512f,avx512vl,avx512ifma"))) void MontMulIfmaReg(
    const uint64_t* a, const uint64_t* b, const uint64_t* n, uint64_t n0inv52, size_t nd,
    uint64_t* out) {
  const __m512i zero = _mm512_setzero_si512();
  // Two accumulator files (a*b and n*m products) so the two madd chains per
  // lane run in parallel; the true digit value is their lane-wise sum. The
  // digit-0 carry lives in the scalar `pending` instead of being re-injected
  // into lane 0: dropping vector lane 0 at the shift is exact because
  // pending' = (lane0 + pending) >> 52 absorbs its entire value (the low 52
  // bits are zero by choice of m). This keeps the loop-carried dependency
  // down to madd -> valignq -> madd -> extract -> m -> broadcast.
  __m512i aa[NC];
  __m512i an[NC];
  __m512i va[NC];
  __m512i vn[NC];
  for (size_t c = 0; c < NC; ++c) {
    aa[c] = zero;
    an[c] = zero;
    va[c] = _mm512_loadu_si512(a + 8 * c);
    vn[c] = _mm512_loadu_si512(n + 8 * c);
  }
  const uint64_t a0 = a[0];
  uint64_t pending = 0;
  for (size_t i = 0; i < nd; ++i) {
    const uint64_t bi = b[i];
    const uint64_t t0 =
        static_cast<uint64_t>(_mm_cvtsi128_si64(_mm512_castsi512_si128(aa[0]))) +
        static_cast<uint64_t>(_mm_cvtsi128_si64(_mm512_castsi512_si128(an[0]))) + pending;
    const uint64_t m = ((t0 + a0 * bi) * n0inv52) & kMask52;
    const __m512i vb = _mm512_set1_epi64(static_cast<long long>(bi));
    const __m512i vm = _mm512_set1_epi64(static_cast<long long>(m));
    for (size_t c = 0; c < NC; ++c) {
      aa[c] = _mm512_madd52lo_epu64(aa[c], va[c], vb);
      an[c] = _mm512_madd52lo_epu64(an[c], vn[c], vm);
    }
    const uint64_t lane0 =
        static_cast<uint64_t>(_mm_cvtsi128_si64(_mm512_castsi512_si128(aa[0]))) +
        static_cast<uint64_t>(_mm_cvtsi128_si64(_mm512_castsi512_si128(an[0]))) + pending;
    pending = lane0 >> 52;
    for (size_t c = 0; c + 1 < NC; ++c) {
      aa[c] = _mm512_alignr_epi64(aa[c + 1], aa[c], 1);
      an[c] = _mm512_alignr_epi64(an[c + 1], an[c], 1);
    }
    aa[NC - 1] = _mm512_alignr_epi64(zero, aa[NC - 1], 1);
    an[NC - 1] = _mm512_alignr_epi64(zero, an[NC - 1], 1);
    for (size_t c = 0; c < NC; ++c) {
      aa[c] = _mm512_madd52hi_epu64(aa[c], va[c], vb);
      an[c] = _mm512_madd52hi_epu64(an[c], vn[c], vm);
    }
  }

  uint64_t t[NC * 8];
  for (size_t c = 0; c < NC; ++c) {
    _mm512_storeu_si512(t + 8 * c, _mm512_add_epi64(aa[c], an[c]));
  }
  uint64_t carry = pending;
  for (size_t j = 0; j < nd; ++j) {
    const uint64_t v = t[j] + carry;
    carry = v >> 52;
    out[j] = v & kMask52;
  }
  bool ge = carry != 0;
  if (!ge) {
    ge = true;
    for (size_t j = nd; j-- > 0;) {
      if (out[j] != n[j]) {
        ge = out[j] > n[j];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t j = 0; j < nd; ++j) {
      const uint64_t d = out[j] - n[j] - borrow;
      borrow = (out[j] < n[j] + borrow) ? 1 : 0;
      out[j] = d & kMask52;
    }
  }
}

#endif  // FLICKER_MONT_IFMA

// 64-bit limbs -> nd 52-bit digits (zero-padded to `pad` entries).
std::vector<uint64_t> LimbsToDigits52(const std::vector<uint64_t>& limbs, size_t nd, size_t pad) {
  std::vector<uint64_t> d(pad, 0);
  for (size_t j = 0; j < nd; ++j) {
    const size_t bit = 52 * j;
    const size_t li = bit / 64;
    const size_t shift = bit % 64;
    uint64_t v = li < limbs.size() ? limbs[li] >> shift : 0;
    if (shift > 12 && li + 1 < limbs.size()) {
      v |= limbs[li + 1] << (64 - shift);
    }
    d[j] = v & kMask52;
  }
  return d;
}

std::vector<uint64_t> Digits52ToLimbs(const uint64_t* d, size_t nd) {
  std::vector<uint64_t> limbs((52 * nd + 63) / 64 + 1, 0);
  for (size_t j = 0; j < nd; ++j) {
    const size_t bit = 52 * j;
    const size_t li = bit / 64;
    const size_t shift = bit % 64;
    limbs[li] |= d[j] << shift;
    if (shift > 12) {
      limbs[li + 1] |= d[j] >> (64 - shift);
    }
  }
  return limbs;
}

// Final Montgomery correction: if t >= n (including the overflow limb t[k]),
// subtract n once. a, b < n guarantees t < 2n, so one subtraction suffices.
void CondReduce(uint64_t* t, const uint64_t* n, size_t k) {
  if (t[k] == 0) {
    for (size_t j = k; j-- > 0;) {
      if (t[j] != n[j]) {
        if (t[j] < n[j]) {
          return;
        }
        break;
      }
    }
  }
  uint64_t borrow = 0;
  for (size_t j = 0; j < k; ++j) {
    const uint64_t a = t[j];
    const uint64_t s = n[j];
    t[j] = a - s - borrow;
    borrow = (a < s || (a == s && borrow)) ? 1 : 0;
  }
  t[k] -= borrow;
}

// Left-to-right sliding-window exponentiation, shared by the scalar and IFMA
// engines. `base` is the base in the engine's Montgomery form (its size is the
// operand width, padding included), `exponent` is nonzero, and
// `mul(a, b, out)` is the engine's Montgomery product (out may alias a or b).
// Returns base^exponent, still in Montgomery form.
//
// Exponents of at most 32 bits - e = 65537 on every RSA verify - run plain
// square-and-multiply over a one-entry table (the base itself): they are
// almost all squarings, so the 4-bit table's 8 products would never pay back.
// Longer exponents use 4-bit windows over an 8-entry odd-power table. The
// scan starts from the first window's table entry, so no product is spent
// squaring a Montgomery one.
template <typename Mul>
std::vector<uint64_t> SlidingWindowExp(std::vector<uint64_t> base, const BigInt& exponent,
                                       const Mul& mul) {
  const size_t width = base.size();
  const size_t bits = exponent.BitLength();
  const ptrdiff_t window_bits = bits <= 32 ? 1 : 4;
  const size_t entries = size_t{1} << (window_bits - 1);

  // table[i] = base^(2i+1), entries laid end to end.
  std::vector<uint64_t> table = std::move(base);
  table.resize(entries * width, 0);
  if (entries > 1) {
    std::vector<uint64_t> b2(width, 0);
    mul(table.data(), table.data(), b2.data());
    for (size_t i = 1; i < entries; ++i) {
      mul(table.data() + (i - 1) * width, b2.data(), table.data() + i * width);
    }
  }

  // Windows always end on a set bit, so only odd powers are multiplied in.
  std::vector<uint64_t> result;
  ptrdiff_t i = static_cast<ptrdiff_t>(bits) - 1;
  while (i >= 0) {
    if (!exponent.GetBit(static_cast<size_t>(i))) {
      mul(result.data(), result.data(), result.data());
      --i;
      continue;
    }
    ptrdiff_t l = std::max<ptrdiff_t>(i - (window_bits - 1), 0);
    while (!exponent.GetBit(static_cast<size_t>(l))) {
      ++l;
    }
    size_t window = 0;
    for (ptrdiff_t bit = i; bit >= l; --bit) {
      window = (window << 1) | (exponent.GetBit(static_cast<size_t>(bit)) ? 1u : 0u);
    }
    const uint64_t* entry = table.data() + (window >> 1) * width;
    if (result.empty()) {
      result.assign(entry, entry + width);
    } else {
      for (ptrdiff_t s = 0; s <= i - l; ++s) {
        mul(result.data(), result.data(), result.data());
      }
      mul(result.data(), entry, result.data());
    }
    i = l - 1;
  }
  return result;
}

}  // namespace

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus) {
  if (!modulus.IsOdd() || modulus <= BigInt(1)) {
    return InvalidArgumentError("Montgomery context requires an odd modulus > 1");
  }
  MontgomeryContext ctx;
  ctx.modulus_ = modulus;
  ctx.n_ = modulus.limbs_;
  ctx.n0inv_ = NegInverse64(ctx.n_[0]);
  const size_t k = ctx.n_.size();
  // R^2 mod n with R = 2^(64k): one long division at setup buys division-free
  // multiplication everywhere after.
  BigInt rr = (BigInt(1) << (128 * k)) % modulus;
  ctx.rr_ = rr.limbs_;
  ctx.rr_.resize(k, 0);

#ifdef FLICKER_MONT_IFMA
  // Radix-2^52 engine on AVX512-IFMA hosts from 10 digits (~469 bits) up,
  // so 512-bit moduli - the AIK verify and the CA key's CRT halves - run
  // vectorized. Below that the scalar kernel wins: moving the 256-bit CRT
  // halves of a 512-bit sign to IFMA measured ~44 -> ~104 us.
  const size_t nd = (modulus.BitLength() + 51) / 52;
  if (nd >= 10 && IfmaSupported()) {
    const size_t pad = ((nd + 7) / 8) * 8;
    ctx.nd52_ = nd;
    ctx.n0inv52_ = ctx.n0inv_ & kMask52;
    ctx.n52_ = LimbsToDigits52(ctx.n_, nd, pad);
    BigInt rr52 = (BigInt(1) << (104 * nd)) % modulus;
    ctx.rr52_ = LimbsToDigits52(rr52.limbs_, nd, pad);
  }
#endif
  return ctx;
}

void MontgomeryContext::MontMul(const uint64_t* a, const uint64_t* b, uint64_t* out,
                                uint64_t* scratch) const {
  const size_t k = n_.size();
  Cios(a, b, n_.data(), n0inv_, k, scratch);
  CondReduce(scratch, n_.data(), k);
  std::copy(scratch, scratch + k, out);
}

MontgomeryContext::Limbs MontgomeryContext::ToLimbs(const BigInt& value) const {
  const BigInt* reduced = &value;
  BigInt tmp;
  if (BigInt::Compare(value, modulus_) >= 0) {
    tmp = value % modulus_;
    reduced = &tmp;
  }
  Limbs out = reduced->limbs_;
  out.resize(n_.size(), 0);
  return out;
}

BigInt MontgomeryContext::FromLimbs(const Limbs& limbs) const {
  BigInt out;
  out.limbs_ = limbs;
  out.Normalize();
  return out;
}

BigInt MontgomeryContext::ModMul(const BigInt& a, const BigInt& b) const {
  const size_t k = n_.size();
  Limbs scratch(k + 2);
  Limbs am = ToLimbs(a);
  Limbs bm = ToLimbs(b);
  // MontMul(aR^0, R^2) = aR; MontMul(aR, b) = a*b.
  MontMul(am.data(), rr_.data(), am.data(), scratch.data());
  MontMul(am.data(), bm.data(), bm.data(), scratch.data());
  return FromLimbs(bm);
}

BigInt MontgomeryContext::ModExp(const BigInt& base, const BigInt& exponent) const {
  if (exponent.IsZero()) {
    return BigInt(1);  // modulus > 1, so 1 mod n = 1.
  }
  if (nd52_ != 0) {
    return ModExpIfma(base, exponent);
  }
  const size_t k = n_.size();
  Limbs scratch(k + 2);
  auto mul = [&](const uint64_t* a, const uint64_t* b, uint64_t* out) {
    MontMul(a, b, out, scratch.data());
  };

  // Montgomery form of the (reduced) base.
  Limbs bm = ToLimbs(base);
  mul(bm.data(), rr_.data(), bm.data());
  Limbs result = SlidingWindowExp(std::move(bm), exponent, mul);

  // Leave Montgomery form.
  Limbs one(k, 0);
  one[0] = 1;
  mul(result.data(), one.data(), result.data());
  return FromLimbs(result);
}

#ifdef FLICKER_MONT_IFMA

BigInt MontgomeryContext::ModExpIfma(const BigInt& base, const BigInt& exponent) const {
  const size_t nd = nd52_;
  const size_t nc = (nd + 7) / 8;
  const size_t pad = nc * 8;
  // Sliding accumulator for the generic (memory-based) kernel only; the
  // common RSA widths (2..5 vectors) dispatch to the register-resident kernel.
  Limbs t(nc >= 2 && nc <= 5 ? 0 : 2 * nd + 8);
  auto mul = [&](const uint64_t* a, const uint64_t* b, uint64_t* out) {
    switch (nc) {
      case 2:
        return MontMulIfmaReg<2>(a, b, n52_.data(), n0inv52_, nd, out);
      case 3:
        return MontMulIfmaReg<3>(a, b, n52_.data(), n0inv52_, nd, out);
      case 4:
        return MontMulIfmaReg<4>(a, b, n52_.data(), n0inv52_, nd, out);
      case 5:
        return MontMulIfmaReg<5>(a, b, n52_.data(), n0inv52_, nd, out);
      default:
        std::memset(t.data(), 0, t.size() * sizeof(uint64_t));
        return MontMulIfma(a, b, n52_.data(), n0inv52_, nd, nc, t.data(), out);
    }
  };

  // Montgomery form of the (reduced) base.
  Limbs bm = LimbsToDigits52(ToLimbs(base), nd, pad);
  mul(bm.data(), rr52_.data(), bm.data());
  Limbs result = SlidingWindowExp(std::move(bm), exponent, mul);

  // Leave Montgomery form.
  Limbs one(pad, 0);
  one[0] = 1;
  mul(result.data(), one.data(), result.data());
  BigInt out;
  out.limbs_ = Digits52ToLimbs(result.data(), nd);
  out.Normalize();
  return out;
}

#else

BigInt MontgomeryContext::ModExpIfma(const BigInt&, const BigInt&) const {
  return BigInt();  // Unreachable: nd52_ is never set without IFMA support.
}

#endif  // FLICKER_MONT_IFMA

}  // namespace flicker
