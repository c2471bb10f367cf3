// Differential and known-answer coverage for the Montgomery modular-
// exponentiation engine: the fast path must be bit-exact with the retained
// reference implementation, including the even-modulus fallback, and must
// reproduce an externally computed RSA-2048 PKCS#1 v1.5 signature.

#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/bigint.h"
#include "src/crypto/drbg.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha1.h"

namespace flicker {
namespace {

BigInt RandomBigInt(Drbg* rng, size_t bytes) {
  return BigInt::FromBytesBe(rng->Generate(bytes));
}

TEST(MontgomeryTest, DifferentialAgainstReference) {
  Drbg rng(0xf11c4e5);
  for (int i = 0; i < 1000; ++i) {
    // Sizes sweep 1..64 bytes (the scalar kernels, the unrolled 4-limb one
    // included, up to the 10-digit IFMA crossover at 59..64 bytes) with
    // sprinkles of 1024-, 1536- and 2048-bit operands; every third modulus is
    // forced even to exercise the fallback path.
    size_t size = static_cast<size_t>(i % 64) + 1;
    if (i % 25 == 0) {
      size = 128;
    } else if (i % 100 == 13) {
      size = 256;
    } else if (i % 100 == 57) {
      size = 192;
    }
    BigInt base = RandomBigInt(&rng, size);
    BigInt exp = RandomBigInt(&rng, size);
    BigInt mod = RandomBigInt(&rng, size);
    if (i % 3 == 0) {
      mod = mod.IsOdd() ? mod + BigInt(1) : mod;
    } else if (!mod.IsOdd()) {
      mod = mod + BigInt(1);
    }
    if (mod.IsZero()) {
      mod = BigInt(2);
    }
    BigInt expected = BigInt::ModExpReference(base, exp, mod);
    BigInt actual = BigInt::ModExp(base, exp, mod);
    ASSERT_EQ(expected, actual) << "triple " << i << ": base=" << base.ToHex()
                                << " exp=" << exp.ToHex() << " mod=" << mod.ToHex();
  }
}

// Every width from 1 to 64 bytes plus the 1024/1536/2048-bit kernels, with a
// random odd modulus and one whose top limb is all ones, against exponents
// that straddle the window-width switch at 32 bits.
TEST(MontgomeryTest, WindowBoundaryExponentsAtEveryWidth) {
  const BigInt two32 = BigInt(1) << 32;
  const BigInt exponents[] = {BigInt(0),     BigInt(1),         BigInt(2), BigInt(3),
                              BigInt(65537), two32 - BigInt(1), two32,     (two32 << 1) + BigInt(1)};
  std::vector<size_t> sizes;
  for (size_t size = 1; size <= 64; ++size) {
    sizes.push_back(size);
  }
  sizes.insert(sizes.end(), {128, 192, 256});

  Drbg rng(0x3d6e);
  for (size_t size : sizes) {
    Bytes random_bytes = rng.Generate(size);
    random_bytes[0] |= 0x80;
    Bytes top_ones = rng.Generate(size);
    // The most significant limb holds (size - 1) % 8 + 1 of the bytes.
    for (size_t b = 0; b < (size - 1) % 8 + 1; ++b) {
      top_ones[b] = 0xff;
    }
    for (Bytes mod_bytes : {random_bytes, top_ones}) {
      mod_bytes.back() |= 0x01;
      const BigInt mod = BigInt::FromBytesBe(mod_bytes);
      const BigInt base = RandomBigInt(&rng, size + 1);  // Often >= mod.
      for (const BigInt& exp : exponents) {
        ASSERT_EQ(BigInt::ModExpReference(base, exp, mod), BigInt::ModExp(base, exp, mod))
            << size << "-byte mod=" << mod.ToHex() << " exp=" << exp.ToHex();
        ASSERT_EQ(BigInt::ModExpReference(mod - BigInt(1), exp, mod),
                  BigInt::ModExp(mod - BigInt(1), exp, mod))
            << size << "-byte mod=" << mod.ToHex() << " base=mod-1 exp=" << exp.ToHex();
      }
    }
  }
}

TEST(MontgomeryTest, ModMulMatchesSchoolbook) {
  Drbg rng(0xcafe);
  for (int i = 0; i < 200; ++i) {
    size_t size = static_cast<size_t>(i % 40) + 1;
    BigInt a = RandomBigInt(&rng, size);
    BigInt b = RandomBigInt(&rng, size);
    BigInt mod = RandomBigInt(&rng, size);
    if (!mod.IsOdd()) {
      mod = mod + BigInt(1);
    }
    if (mod <= BigInt(1)) {
      mod = BigInt(3);
    }
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(mod);
    ASSERT_TRUE(ctx.ok());
    ASSERT_EQ((a * b) % mod, ctx.value().ModMul(a, b)) << "pair " << i;
  }
}

// The value a 4-limb Montgomery product of x and y holds before its final
// subtraction: (x * y + m * n) / 2^256 with m = -x * y / n mod 2^256.
BigInt PreSubtraction256(const BigInt& x, const BigInt& y, const BigInt& n) {
  const BigInt r = BigInt(1) << 256;
  const BigInt neg_ninv = r - BigInt::ModInverse(n, r);
  const BigInt xy = x * y;
  const BigInt m = ((xy % r) * neg_ninv) % r;
  const BigInt sum = xy + m * n;
  EXPECT_TRUE((sum % r).IsZero());
  return sum >> 256;
}

// The 256-bit kernel (both CRT halves of every 512-bit AIK quote) at the
// edges of its width and of its final subtraction: moduli just above 2^192,
// around 2^255, just below 2^256 and with an all-ones top limb; the bases
// 0, 1, n - 1, n - 2 and R mod n; ModExp's in-place squarings against
// ModMul of a value by itself; and products whose pre-subtraction value
// lands in [n, 2^256) and in [2^256, 2n), against the schoolbook oracles.
TEST(MontgomeryTest, FourLimbKernelEdges) {
  const BigInt r = BigInt(1) << 256;
  Drbg rng(0x4a11);
  const auto random_bits = [&rng](size_t bits) {  // At most `bits` bits.
    return BigInt::FromBytesBe(rng.Generate(bits / 8));
  };
  const BigInt odd(1);
  const BigInt moduli[] = {
      (BigInt(1) << 192) + (random_bits(64) << 1) + odd,
      (BigInt(1) << 192) + (random_bits(192) << 1) + odd,
      (BigInt(1) << 255) + (random_bits(192) << 1) + odd,
      (BigInt(0x9e37) << 240) + (random_bits(200) << 1) + odd,
      r - BigInt(189),
      r - BigInt(1),
      (BigInt(0xffffffffffffffffULL) << 192) + (random_bits(184) << 1) + odd,
  };
  const BigInt exponents[] = {BigInt(0),     BigInt(1),
                              BigInt(2),     BigInt(3),
                              BigInt(65537), (BigInt(1) << 32) + BigInt(1),
                              random_bits(256)};

  size_t high_products = 0;  // Pre-subtraction value in [n, 2^256).
  size_t high_squares = 0;
  size_t wide_products = 0;  // Pre-subtraction value in [2^256, 2n).
  size_t wide_squares = 0;
  for (const BigInt& n : moduli) {
    ASSERT_GT(n.BitLength(), 192u);  // Four limbs.
    ASSERT_LE(n.BitLength(), 256u);
    Result<MontgomeryContext> made = MontgomeryContext::Create(n);
    ASSERT_TRUE(made.ok());
    const MontgomeryContext& ctx = made.value();
    const BigInt bases[] = {BigInt(0), BigInt(1), n - BigInt(1), n - BigInt(2), r % n};
    for (const BigInt& a : bases) {
      for (const BigInt& e : exponents) {
        ASSERT_EQ(BigInt::ModExpReference(a, e, n), ctx.ModExp(a, e))
            << "n=" << n.ToHex() << " a=" << a.ToHex() << " e=" << e.ToHex();
      }
      for (const BigInt& b : bases) {
        ASSERT_EQ((a * b) % n, ctx.ModMul(a, b)) << "n=" << n.ToHex() << " a=" << a.ToHex();
      }
      ASSERT_EQ(ctx.ModMul(a, a), ctx.ModExp(a, BigInt(2))) << "n=" << n.ToHex();
    }

    // ModMul(a, y) ends in the product (a R mod n) * y and ModExp(a, 2) in
    // the square of a R mod n, so picking a = x / R mod n puts x into the
    // kernel directly.
    const BigInt r_inv = BigInt::ModInverse(r % n, n);
    for (int i = 0; i < 400; ++i) {
      const BigInt x = BigInt::FromBytesBe(rng.Generate(33)) % n;
      const BigInt y = BigInt::FromBytesBe(rng.Generate(33)) % n;
      const BigInt a = (x * r_inv) % n;
      const BigInt product = PreSubtraction256(x, y, n);
      const BigInt square = PreSubtraction256(x, x, n);
      if (product >= n) {
        ++(product >= r ? wide_products : high_products);
        ASSERT_EQ((a * y) % n, ctx.ModMul(a, y))
            << "n=" << n.ToHex() << " x=" << x.ToHex() << " y=" << y.ToHex();
      }
      if (square >= n) {
        ++(square >= r ? wide_squares : high_squares);
        ASSERT_EQ((a * a) % n, ctx.ModExp(a, BigInt(2))) << "n=" << n.ToHex() << " x=" << x.ToHex();
        ASSERT_EQ(ctx.ModMul(a, a), ctx.ModExp(a, BigInt(2))) << "n=" << n.ToHex();
      }
    }
  }
  // Every class of final subtraction ran, many times over.
  EXPECT_GE(high_products, 20u);
  EXPECT_GE(high_squares, 20u);
  EXPECT_GE(wide_products, 20u);
  EXPECT_GE(wide_squares, 20u);
}

TEST(MontgomeryTest, ContextRejectsEvenOrTrivialModulus) {
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(10)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(1)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt()).ok());
  EXPECT_TRUE(MontgomeryContext::Create(BigInt(3)).ok());
}

TEST(MontgomeryTest, ModExpEdgeCases) {
  BigInt mod = BigInt::FromHex("f123456789abcdef123456789abcdef1");

  // Zero exponent: x^0 = 1 for any base, including zero.
  EXPECT_EQ(BigInt(1), BigInt::ModExp(BigInt(), BigInt(), mod));
  EXPECT_EQ(BigInt(1), BigInt::ModExp(mod + BigInt(5), BigInt(), mod));

  // Base >= modulus is reduced first.
  EXPECT_EQ(BigInt(25) % BigInt(7), BigInt::ModExp(BigInt(5 + 7), BigInt(2), BigInt(7)));
  BigInt big_base = (mod * BigInt(3)) + BigInt(2);
  EXPECT_EQ(BigInt::ModExp(BigInt(2), BigInt(17), mod),
            BigInt::ModExp(big_base, BigInt(17), mod));

  // Modulus 1: everything collapses to zero.
  EXPECT_EQ(BigInt(), BigInt::ModExp(BigInt(5), BigInt(3), BigInt(1)));
  Result<BigInt> mod_one = BigInt::ModExpChecked(BigInt(5), BigInt(3), BigInt(1));
  ASSERT_TRUE(mod_one.ok());
  EXPECT_EQ(BigInt(), mod_one.value());

  // Zero modulus: error via the checked API, zero sentinel via ModExp.
  Result<BigInt> mod_zero = BigInt::ModExpChecked(BigInt(5), BigInt(3), BigInt());
  EXPECT_FALSE(mod_zero.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, mod_zero.status().code());
  EXPECT_EQ(BigInt(), BigInt::ModExp(BigInt(5), BigInt(3), BigInt()));

  // Exponent 1 is the identity (mod n), base zero stays zero.
  EXPECT_EQ(BigInt(42), BigInt::ModExp(BigInt(42), BigInt(1), mod));
  EXPECT_EQ(BigInt(), BigInt::ModExp(BigInt(), BigInt(9), mod));

  // Even modulus goes down the reference path and still reduces the base.
  EXPECT_EQ(BigInt(4), BigInt::ModExp(BigInt(14), BigInt(2), BigInt(6)));
}

// Key material and signature generated offline (Python: seeded prime search,
// pow(m, d, n) over the standard SHA-1 DigestInfo encoding of the message).
TEST(MontgomeryTest, Rsa2048Pkcs1Sha1KnownAnswer) {
  RsaPrivateKey key;
  key.pub.n = BigInt::FromHex(
      "b5addba0ad8d214e6c8dcf6c8b34cabd8c954a0665aedb13598c704ca846ed3ed29e8d8ab34567e8f4e58a7764"
      "a43af4d555cb935eb7a613168f0be676ff6c5470e2566057df315c771a7a796c6818f15dd825fe2947993be832"
      "ce283508a91b94e7be222ea6f4a7a82ea2475a3704bda892719fc0fc7133584108b38379f11d9d34e2e66bd3c8"
      "8a3b9acc885bd2dc5e774e9764b0597362f9107bd4e71b68b355afa6cbfd0dc5bcf245b62fdfe3fa8966c3cd0d"
      "e7dbd2548125a7e74e8578f35aae077e8b841df71d5cfbad438d5dabf5e832a1fd6885a134222065eafb0ebd17"
      "f74f57d15faaf0d0875983c27348205c1e9f1f0a0a405d254e48269873b997");
  key.pub.e = BigInt::FromHex("10001");
  key.d = BigInt::FromHex(
      "977720f9ee7710e37f2123634d13704b631f3b9de5bc47acf4255fa2a950a88e8dadde375a8a6cbd0d1f29b7ac"
      "52374cd36739d7dd49a2cd9b2b1b32c2d6e40bea28e8f65d8c186d0c6728e07e7eb2fcd7ce52ae78dfd662d98d"
      "31ced79826d475ea56dbcca528a776519abd7dfb0c9aca257d5140e5b5c2a6bb6173b8133bee9a93fba71dbf91"
      "b509f17f5a171d8c51d34b87de0019a9eeaa00d9b375fe4614cf5b5fc9c779978dd7b7442e988b8d92a3834e22"
      "a1f0a090d169f90d77ddd923c9460ca132ce33d0964b2be85dcee03003aa786396e96ec50cff4333850ba294d7"
      "056696066fb3ddea470a6f676c56bc6950614bf9bd9aea04cda4e40da3b271");
  key.p = BigInt::FromHex(
      "e24e4dd127485d5b1ce2d1ac5ad97e682e88ffbd551ee813e6559247532484f48ecc2ecc35c5bac7c448fbf48b"
      "9fdb06d05cc1a2e0976f50a758a8afd9d9746b3f0baaf849430754446b171f7889629fe5c08428e8178dbcbb25"
      "11080c3c9e613c715770b780d9b779067c375c318c778fafcdde8e914c585802aed7c18ab395");
  key.q = BigInt::FromHex(
      "cd84868b3ad2eb91f21c7e7badf36687a53a1330d5c593fe79b9fc6a393819b73c6f41a97a24ea9599ea1e1b25"
      "83c002ffda1e88e486179c6f61f3d5714d3a48bb4419f075da3dc892da4971151386dad46c680f8d8ea38b3ec9"
      "038be5ed05d2018a157f916a1f2730a103204aba065c0fa54bd1e2372d3d09883d1044b56d7b");
  key.dp = BigInt::FromHex(
      "b7c54495daa37e03f6220e883ac2314f22b2e791f52482eb5df9112f5049f099b3b8052c9961f6fa2fdfe0924"
      "62bcaadeed7d3fa930d063ce5982e6b96a96a4b88c7cdcf8f9699c609453962b9fc3e957ff9e4985f587925d0"
      "871a1c81eb5be5b4328a022351c3faa491ea9efe03d28068b327a759f88d9993e6a1dadcf4e83d");
  key.dq = BigInt::FromHex(
      "580a5cc4ca474ee92fa9ab397a7459c8e42c33ca68d98223b2abcd09084813241efc9e4966ece79d7cd9015aa"
      "9c07e020aeebac3f3f9c9a5974583fa3cd6539092c082c833047211396fcfa464ddff984105cbb255f6f3f293"
      "cbf2fbfc5c8470c97e08e5a43aacebd1f637eb9e77807ff1a7e30a1f7979a4bb2fa4d1124e127f");
  key.qinv = BigInt::FromHex(
      "aa454592a256707e9c8be0d6746227e22a9d7228029979c34ca21499f9161e72b36d203c3238f8318e86c1488"
      "e6b327619acd2ed1d5b1b1cd51fd535e1412a41cc3485ba4e023aeb85ebff2cf1482269faa165c63d6bf3a584"
      "c174ed3be2a7e8a4c80e9425fc0b9e2b6b783163c23eb68ac55df4389e35b168ae3c20f3d9c4c0");
  const BigInt expected_sig = BigInt::FromHex(
      "1640f6102e23fd6769b92923923cbe3bf179e9c014c95e9dc572997c422d8a8c510de892eaee54a2da83df830d"
      "cd76c907876214311e3bcd8f5b1073602d4072f61a862c37648e20e00d0545a15a10d06082abe0aa0751667499"
      "d36a11c66e3084d21e5645138f03e87e9287f6b5028a5215842eb8a90957a3f169072812506fdce1fa8cc984d2"
      "fcfe6b3f807178428fd0b5ae70a715853ed11a12d18d6384655f3c38dd35d7db7943c1b8c7bfcdf8bc9e2e7f00"
      "29f5ecb6b725214b07eea4785c4c6c6c4ade617c6858d1d4a5795c3a410131ee405c67450bce7ffd3500efe3c2"
      "2ad357be377a86bffe9113e5654736bdeca6a129d33df5058204786513418");

  const Bytes message = BytesOf("flicker montgomery known-answer test");
  Bytes signature = RsaSignSha1(key, message);
  EXPECT_EQ(expected_sig.ToBytesBe(256), signature);
  EXPECT_TRUE(RsaVerifySha1(key.pub, message, signature));

  // The non-CRT private op must agree with the CRT path.
  BigInt m = BigInt::FromBytesBe(Sha1::Digest(message));
  EXPECT_EQ(BigInt::ModExp(m, key.d, key.pub.n), RsaPrivateOp(key, m));
}

}  // namespace
}  // namespace flicker
