#include "src/crypto/montgomery.h"

#include <algorithm>

#include "src/crypto/cpu_features.h"

#if defined(__x86_64__) && defined(__GNUC__)
// The 4-limb kernel runs on the baseline x86-64 carry intrinsics
// (_addcarry_u64/_subborrow_u64 are adc/sbb: no ISA flag, no dispatch).
#define FLICKER_MONT_ADC 1
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

// Dispatch to a fully unrolled kernel for the RSA widths products run
// (512/1024/2048 bits); anything else takes the generic loop. On x86-64 the
// 256-bit CRT halves of a 512-bit AIK never get here: they run the 4-limb
// carry-chain kernel below.
void Cios(const uint64_t* a, const uint64_t* b, const uint64_t* n, uint64_t n0inv, size_t k,
          uint64_t* t) {
  switch (k) {
    case 8:
      return CiosFixed<8>(a, b, n, n0inv, t);
    case 16:
      return CiosFixed<16>(a, b, n, n0inv, t);
    case 32:
      return CiosFixed<32>(a, b, n, n0inv, t);
    default:
      return CiosBody(a, b, n, n0inv, k, t);
  }
}

#ifdef FLICKER_MONT_ADC

// The 4-limb (256-bit) kernel: both CRT halves of every 512-bit AIK quote
// signature, so the hottest code of a fleet round. Operands live in named
// scalar limbs and every carry runs through an adc/sbb chain. The product
// builds the full 8-limb value and then reduces it word by word (the
// separated operand scanning of Koc, Acar and Kaliski, IEEE Micro 1996);
// squarings are products of a value with itself. Nothing branches on the
// data.

using Limb = unsigned long long;  // The carry intrinsics' operand type.

struct Modulus4 {
  Limb n0, n1, n2, n3;
  Limb n0inv;  // -n^{-1} mod 2^64.
};

struct Wide {
  Limb lo, hi;
};

inline __attribute__((always_inline)) Wide MulWide(Limb a, Limb b) {
  const uint128 p = static_cast<uint128>(a) * b;
  return {static_cast<Limb>(p), static_cast<Limb>(p >> 64)};
}

// (a0..a3) * b -> (r0..r4). The top limb never wraps: the row is below 2^320.
inline __attribute__((always_inline)) void Mul4(Limb a0, Limb a1, Limb a2, Limb a3, Limb b,
                                                Limb& r0, Limb& r1, Limb& r2, Limb& r3,
                                                Limb& r4) {
  const Wide p0 = MulWide(a0, b), p1 = MulWide(a1, b), p2 = MulWide(a2, b), p3 = MulWide(a3, b);
  r0 = p0.lo;
  unsigned char c = _addcarry_u64(0, p0.hi, p1.lo, &r1);
  c = _addcarry_u64(c, p1.hi, p2.lo, &r2);
  c = _addcarry_u64(c, p2.hi, p3.lo, &r3);
  r4 = p3.hi + c;
}

// (t0..t3) + (a0..a3) * b -> (t0..t4); t4 is only written. One chain adds
// the low product halves at their own limbs, a second the high halves one
// limb up. The sum is below 2^256 + (2^256 - 1)(2^64 - 1) < 2^320, so the
// second chain's last carry is always zero.
inline __attribute__((always_inline)) void MulAdd4(Limb a0, Limb a1, Limb a2, Limb a3, Limb b,
                                                   Limb& t0, Limb& t1, Limb& t2, Limb& t3,
                                                   Limb& t4) {
  const Wide p0 = MulWide(a0, b), p1 = MulWide(a1, b), p2 = MulWide(a2, b), p3 = MulWide(a3, b);
  unsigned char c = _addcarry_u64(0, t0, p0.lo, &t0);
  c = _addcarry_u64(c, t1, p1.lo, &t1);
  c = _addcarry_u64(c, t2, p2.lo, &t2);
  c = _addcarry_u64(c, t3, p3.lo, &t3);
  const Limb top = c;
  c = _addcarry_u64(0, t1, p0.hi, &t1);
  c = _addcarry_u64(c, t2, p1.hi, &t2);
  c = _addcarry_u64(c, t3, p2.hi, &t3);
  _addcarry_u64(c, top, p3.hi, &t4);
}

// out = (t0..t7) * 2^-256 mod n, fully reduced, for t < n * 2^256. Each row
// adds m * n with m chosen to clear the low limb; the carry out of the row
// (one bit: the row total stays below 2^65) rides into the next row's top
// limb, and the last one is the bit above t7. The result is then below 2n,
// and one sbb chain plus a mask picks t or t - n without a branch.
inline __attribute__((always_inline)) void Redc4(const Modulus4& n, Limb t0, Limb t1, Limb t2,
                                                 Limb t3, Limb t4, Limb t5, Limb t6, Limb t7,
                                                 uint64_t* out) {
  Limb x = 0;
  MulAdd4(n.n0, n.n1, n.n2, n.n3, t0 * n.n0inv, t0, t1, t2, t3, x);
  unsigned char top = _addcarry_u64(0, t4, x, &t4);
  MulAdd4(n.n0, n.n1, n.n2, n.n3, t1 * n.n0inv, t1, t2, t3, t4, x);
  top = _addcarry_u64(top, t5, x, &t5);
  MulAdd4(n.n0, n.n1, n.n2, n.n3, t2 * n.n0inv, t2, t3, t4, t5, x);
  top = _addcarry_u64(top, t6, x, &t6);
  MulAdd4(n.n0, n.n1, n.n2, n.n3, t3 * n.n0inv, t3, t4, t5, t6, x);
  top = _addcarry_u64(top, t7, x, &t7);

  // (top, t4..t7) < 2n. With d = t - n and borrow b: top = 1 forces b = 1,
  // so "keep t" is exactly top = 0, b = 1, i.e. top - b = all ones.
  Limb d0 = 0, d1 = 0, d2 = 0, d3 = 0, keep = 0;
  unsigned char b = _subborrow_u64(0, t4, n.n0, &d0);
  b = _subborrow_u64(b, t5, n.n1, &d1);
  b = _subborrow_u64(b, t6, n.n2, &d2);
  b = _subborrow_u64(b, t7, n.n3, &d3);
  _subborrow_u64(b, top, 0, &keep);
  out[0] = (t4 & keep) | (d0 & ~keep);
  out[1] = (t5 & keep) | (d1 & ~keep);
  out[2] = (t6 & keep) | (d2 & ~keep);
  out[3] = (t7 & keep) | (d3 & ~keep);
}

// out = a * b * 2^-256 mod n for a, b < n; out may alias a or b.
inline __attribute__((always_inline)) void MontMul4(const uint64_t* a, const uint64_t* b,
                                                    const Modulus4& n, uint64_t* out) {
  const Limb a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  const Limb b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
  Limb t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0, t6 = 0, t7 = 0;
  Mul4(a0, a1, a2, a3, b0, t0, t1, t2, t3, t4);
  MulAdd4(a0, a1, a2, a3, b1, t1, t2, t3, t4, t5);
  MulAdd4(a0, a1, a2, a3, b2, t2, t3, t4, t5, t6);
  MulAdd4(a0, a1, a2, a3, b3, t3, t4, t5, t6, t7);
  Redc4(n, t0, t1, t2, t3, t4, t5, t6, t7, out);
}

#endif  // FLICKER_MONT_ADC

#ifdef FLICKER_CRYPTO_SIMD

// Radix-2^52 Montgomery product using vpmadd52{l,h}uq, after Gueron &
// Krasnov, for 10..40 digits: NC = 2..5 vectors of 8 lanes, known at compile
// time so the accumulator arrays lower to zmm registers. Operands are nd
// proper 52-bit digits zero-padded to NC * 8 lanes. Each step adds a*b[i] +
// n*m (m makes the low digit vanish) and shifts one digit with a valignq
// cascade; the hi-products are applied after the shift so they land on the
// same lanes as the a/n vectors - the accumulator never round-trips through
// memory inside the loop. Lanes stay below nd * 2^54 < 2^64, so no mid-loop
// normalization is needed; the tail normalizes and conditionally subtracts n
// once (inputs < n and R = 2^(52*nd) > n bound the result by 2n). `out` gets
// nd reduced digits; its padding lanes are left untouched.
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

#endif  // FLICKER_CRYPTO_SIMD

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

// Left-to-right sliding-window exponentiation, shared by every engine. The
// exponent is nonzero: `exp` holds its limbs and `bits` its bit length.
// `table` has room for 8 entries of `width` limbs (the engine's operand
// width, padding included) and holds the base in the engine's Montgomery
// form in entry 0. `mul(a, b, out)` is the engine's Montgomery product (out
// may alias a or b). Leaves base^exponent, still in Montgomery form, in
// `result` (width limbs).
//
// Exponents of at most 32 bits - e = 65537 on every RSA verify - run plain
// square-and-multiply over a one-entry table (the base itself): they are
// almost all squarings, so the 4-bit table's 8 products would never pay back.
// Longer exponents use 4-bit windows over an 8-entry odd-power table. The
// scan starts from the first window's table entry, so no product is spent
// squaring a Montgomery one.
template <typename Mul>
void SlidingWindowExp(const uint64_t* exp, size_t bits, size_t width, uint64_t* table,
                      uint64_t* result, const Mul& mul) {
  const auto bit = [exp](ptrdiff_t i) {
    return (exp[static_cast<size_t>(i) / 64] >> (static_cast<size_t>(i) % 64)) & 1;
  };
  const ptrdiff_t window_bits = bits <= 32 ? 1 : 4;
  const size_t entries = size_t{1} << (window_bits - 1);

  // table[i] = base^(2i+1); `result` holds base^2 until the scan starts.
  if (entries > 1) {
    mul(table, table, result);
    for (size_t i = 1; i < entries; ++i) {
      mul(table + (i - 1) * width, result, table + i * width);
    }
  }

  // Windows always end on a set bit, so only odd powers are multiplied in.
  // The top bit is set, so the first window starts the scan.
  bool started = false;
  ptrdiff_t i = static_cast<ptrdiff_t>(bits) - 1;
  while (i >= 0) {
    if (!bit(i)) {
      mul(result, result, result);
      --i;
      continue;
    }
    ptrdiff_t l = std::max<ptrdiff_t>(i - (window_bits - 1), 0);
    while (!bit(l)) {
      ++l;
    }
    size_t window = 0;
    for (ptrdiff_t b = i; b >= l; --b) {
      window = (window << 1) | bit(b);
    }
    const uint64_t* entry = table + (window >> 1) * width;
    if (!started) {
      std::copy(entry, entry + width, result);
      started = true;
    } else {
      for (ptrdiff_t s = 0; s <= i - l; ++s) {
        mul(result, result, result);
      }
      mul(result, entry, result);
    }
    i = l - 1;
  }
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

#ifdef FLICKER_CRYPTO_SIMD
  // Radix-2^52 engine on AVX512-IFMA hosts for 10..40 digits (~469..2080
  // bits), so 512-bit moduli - the AIK verify and the CA key's CRT halves -
  // up to 2048-bit ones run vectorized. Below that the scalar kernel wins:
  // moving the 256-bit CRT halves of a 512-bit sign to IFMA measured ~44 ->
  // ~104 us. No product uses a wider modulus, so those take the scalar
  // kernel too.
  const size_t nd = (modulus.BitLength() + 51) / 52;
  if (nd >= 10 && nd <= 40 && HasAvx512Ifma()) {
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
#ifdef FLICKER_MONT_ADC
  if (k == 4) {
    return MontMul4(a, b, Modulus4{n_[0], n_[1], n_[2], n_[3], n0inv_}, out);
  }
#endif
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
  const uint64_t* exp = exponent.limbs_.data();
  const size_t bits = exponent.BitLength();
  Limbs x = ToLimbs(base);  // The reduced base; then the result.

#ifdef FLICKER_MONT_ADC
  if (k == 4) {
    // The 256-bit CRT halves: the inlined carry-chain kernel over a stack
    // table. Running them through the generic body below (each product
    // dispatched by MontMul, heap table and scratch) lost 9 of 10
    // alternating fleet-steady pairs, -7% host rounds/s at the median.
    const Modulus4 n{n_[0], n_[1], n_[2], n_[3], n0inv_};
    const auto mul = [&n](const uint64_t* a, const uint64_t* b, uint64_t* out) {
      MontMul4(a, b, n, out);
    };
    uint64_t table[8 * 4];
    mul(x.data(), rr_.data(), table);
    SlidingWindowExp(exp, bits, 4, table, x.data(), mul);
    // Leave Montgomery form: reduce (x, 0).
    Redc4(n, x[0], x[1], x[2], x[3], 0, 0, 0, 0, x.data());
    return FromLimbs(x);
  }
#endif

  Limbs scratch(k + 2);
  const auto mul = [&](const uint64_t* a, const uint64_t* b, uint64_t* out) {
    MontMul(a, b, out, scratch.data());
  };
  Limbs table(8 * k);
  mul(x.data(), rr_.data(), table.data());
  SlidingWindowExp(exp, bits, k, table.data(), x.data(), mul);

  // Leave Montgomery form.
  Limbs one(k, 0);
  one[0] = 1;
  mul(x.data(), one.data(), x.data());
  return FromLimbs(x);
}

#ifdef FLICKER_CRYPTO_SIMD

BigInt MontgomeryContext::ModExpIfma(const BigInt& base, const BigInt& exponent) const {
  const size_t nd = nd52_;
  const size_t nc = (nd + 7) / 8;
  const size_t pad = nc * 8;
  // Create admits 10..40 digits, so nc is 2..5.
  auto mul = [&](const uint64_t* a, const uint64_t* b, uint64_t* out) {
    switch (nc) {
      case 2:
        return MontMulIfmaReg<2>(a, b, n52_.data(), n0inv52_, nd, out);
      case 3:
        return MontMulIfmaReg<3>(a, b, n52_.data(), n0inv52_, nd, out);
      case 4:
        return MontMulIfmaReg<4>(a, b, n52_.data(), n0inv52_, nd, out);
      default:
        return MontMulIfmaReg<5>(a, b, n52_.data(), n0inv52_, nd, out);
    }
  };

  Limbs x = LimbsToDigits52(ToLimbs(base), nd, pad);  // The reduced base; then the result.
  Limbs table(8 * pad, 0);
  mul(x.data(), rr52_.data(), table.data());
  SlidingWindowExp(exponent.limbs_.data(), exponent.BitLength(), pad, table.data(), x.data(), mul);

  // Leave Montgomery form.
  Limbs one(pad, 0);
  one[0] = 1;
  mul(x.data(), one.data(), x.data());
  BigInt out;
  out.limbs_ = Digits52ToLimbs(x.data(), nd);
  out.Normalize();
  return out;
}

#else

BigInt MontgomeryContext::ModExpIfma(const BigInt&, const BigInt&) const {
  return BigInt();  // Unreachable: nd52_ is never set without IFMA support.
}

#endif  // FLICKER_CRYPTO_SIMD

}  // namespace flicker
