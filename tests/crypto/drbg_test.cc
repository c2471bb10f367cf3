#include "src/crypto/drbg.h"

#include <map>
#include <utility>
#include <gtest/gtest.h>

#include "src/common/bytes.h"

namespace flicker {
namespace {

TEST(DrbgTest, DeterministicGivenSeed) {
  Drbg a(42);
  Drbg b(42);
  EXPECT_EQ(a.Generate(64), b.Generate(64));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  Drbg a(1);
  Drbg b(2);
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, ByteSeedAndIntSeedBothWork) {
  Drbg a(BytesOf("entropy string"));
  Drbg b(BytesOf("entropy string"));
  Drbg c(BytesOf("other entropy"));
  Bytes out_a = a.Generate(16);
  EXPECT_EQ(out_a, b.Generate(16));
  EXPECT_NE(out_a, c.Generate(16));
}

TEST(DrbgTest, SuccessiveCallsAdvanceState) {
  Drbg rng(7);
  Bytes first = rng.Generate(32);
  Bytes second = rng.Generate(32);
  EXPECT_NE(first, second);
}

TEST(DrbgTest, SplitCallsDifferFromOneCall) {
  // The ratchet after each Generate means call boundaries matter; this is
  // intentional (backtrack resistance), so just check no panic and correct
  // sizes.
  Drbg rng(7);
  EXPECT_EQ(rng.Generate(100).size(), 100u);
  EXPECT_EQ(rng.Generate(0).size(), 0u);
  EXPECT_EQ(rng.Generate(1).size(), 1u);
}

TEST(DrbgTest, UniformRespectsBound) {
  Drbg rng(13);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
  }
  EXPECT_EQ(rng.UniformUint64(1), 0u);
}

TEST(DrbgTest, UniformCoversRange) {
  Drbg rng(14);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 400; ++i) {
    counts[rng.UniformUint64(4)]++;
  }
  // All four buckets hit, and no bucket wildly dominant.
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 40) << "bucket " << value;
  }
}

TEST(DrbgTest, KnownAnswers) {
  // Pins the byte stream across call boundaries: a full block, a partial
  // last block, and the ratchet after each call. Values from the
  // one-vector-per-block implementation this one replaced.
  Drbg rng(0x5eed);
  const std::pair<size_t, const char*> kExpected[] = {
      {0, ""},
      {1, "51"},
      {31, "ddcf420aa22d7018237569025d3e13b67b942f43fdabae55b9bc02dad8c05b"},
      {32, "592ca8e6ce2bdf5853e7c8e90ca71f24ffefb27e536718a1aee4304efdabcc4b"},
      {33, "b02009a1283778cd014cfa3ebde159b38c79aa2862fb4429b2716b1e0da98c494f"},
      {64,
       "fbcdc4679dd80f6f130ffb7521cdbbba42e31144db8dbca63179b67e76ceece0"
       "44c258c809f2f50a03da0b64e9c5026727febd67d7106b93b820ecbc0f225325"},
      {100,
       "ed48a2fc0b666587b91cdcf0d93b1dcc44f4cc431a6d3025b86f0a33dc716cd8"
       "977f65c46d63c128cc65efca226dcb5294f416759dd848e42a5f91822bca7e75"
       "92c8ec2272d88b7810be1ffe2e7543818f51adb6709b2989442e530a717f8299"
       "a4f052bf"},
  };
  for (const auto& [len, hex] : kExpected) {
    EXPECT_EQ(ToHex(rng.Generate(len)), hex) << "len " << len;
  }
  EXPECT_EQ(rng.UniformUint64(1000003), 433937u);
}

TEST(DrbgTest, OutputLooksBalanced) {
  // Crude sanity check: bit balance within 5% over 64 KB.
  Drbg rng(15);
  Bytes data = rng.Generate(65536);
  size_t ones = 0;
  for (uint8_t b : data) {
    ones += static_cast<size_t>(__builtin_popcount(b));
  }
  double frac = static_cast<double>(ones) / (data.size() * 8);
  EXPECT_GT(frac, 0.45);
  EXPECT_LT(frac, 0.55);
}

}  // namespace
}  // namespace flicker
