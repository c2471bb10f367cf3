// Parameterized TPM sweeps: seal/unseal across PCR selections, extend
// chains across every PCR index, quote across selections.

#include <gtest/gtest.h>

#include "src/crypto/sha1.h"
#include "src/tpm/pcr_bank.h"
#include "src/tpm/tpm.h"
#include "src/tpm/tpm_util.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

// ---- Extend semantics hold for every PCR index ----

class PcrIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(PcrIndexTest, ExtendChainsCorrectly) {
  int index = GetParam();
  PcrBank bank;
  Bytes initial = bank.Read(index).value();
  Bytes m(kPcrSize, 0x3c);
  ASSERT_TRUE(bank.Extend(index, m).ok());
  EXPECT_EQ(bank.Read(index).value(), Sha1::Digest(Concat(initial, m)));
}

TEST_P(PcrIndexTest, DynamicResetAffectsOnlyDynamicRange) {
  int index = GetParam();
  PcrBank bank;
  ASSERT_TRUE(bank.Extend(index, Bytes(kPcrSize, 0x11)).ok());
  Bytes before = bank.Read(index).value();
  bank.DynamicReset();
  if (PcrBank::IsDynamic(index)) {
    EXPECT_EQ(bank.Read(index).value(), Bytes(kPcrSize, 0x00));
  } else {
    EXPECT_EQ(bank.Read(index).value(), before);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPcrs, PcrIndexTest,
                         ::testing::Values(0, 1, 7, 10, 15, 16, 17, 18, 22, 23));

// ---- Seal binds to arbitrary selections ----

struct SelectionCase {
  std::vector<int> indices;
  int disturb;  // Extending this PCR must break (or not break) unsealing.
  bool expect_break;
};

class SealSelectionTest : public ::testing::TestWithParam<int> {
 protected:
  static SelectionCase Case(int index) {
    switch (index) {
      case 0:
        return {{17}, 17, true};
      case 1:
        return {{17, 18}, 18, true};
      case 2:
        return {{17, 18, 23}, 23, true};
      case 3:
        return {{17}, 18, false};  // Unselected PCR: harmless.
      case 4:
        return {{18, 20}, 0, false};  // Static PCR untouched by selection.
      default:
        return {{17}, 17, true};
    }
  }
};

TEST_P(SealSelectionTest, UnsealGatedOnExactSelection) {
  SelectionCase test_case = Case(GetParam());
  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());
  TpmTransport transport(&tpm);
  TpmClient client(&transport);
  PcrSelection selection;
  for (int i : test_case.indices) {
    selection.Select(i);
  }
  Bytes auth = Sha1::Digest(BytesOf("sweep auth"));
  Result<SealedBlob> blob = TpmSealData(&client, BytesOf("payload"), selection, {}, auth);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(TpmUnsealData(&client, blob.value(), auth).ok());

  ASSERT_TRUE(tpm.RequestLocality(2).ok());  // Dynamic PCRs are locality-gated.
  ASSERT_TRUE(tpm.PcrExtend(test_case.disturb, Bytes(kPcrSize, 0x44)).ok());
  Result<Bytes> after = TpmUnsealData(&client, blob.value(), auth);
  EXPECT_EQ(after.ok(), !test_case.expect_break);
}

INSTANTIATE_TEST_SUITE_P(Selections, SealSelectionTest, ::testing::Values(0, 1, 2, 3, 4));

// ---- Seal payload size sweep (RSA-wrapped hybrid envelope) ----

class SealSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SealSizeTest, RoundTripsAtAllSizes) {
  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());
  TpmTransport transport(&tpm);
  TpmClient client(&transport);
  Drbg rng(GetParam());
  Bytes payload = rng.Generate(GetParam());
  Bytes auth = Sha1::Digest(BytesOf("size auth"));
  Result<SealedBlob> blob = TpmSealData(&client, payload, PcrSelection({17}), {}, auth);
  ASSERT_TRUE(blob.ok());
  Result<Bytes> back = TpmUnsealData(&client, blob.value(), auth);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SealSizeTest,
                         ::testing::Values(0, 1, 16, 20, 100, 245, 246, 1024, 8192));

// ---- Quote covers any selection, and the composite binds all values ----

class QuoteSelectionTest : public ::testing::TestWithParam<int> {};

TEST_P(QuoteSelectionTest, QuoteReflectsSelectedValues) {
  SimClock clock;
  Tpm tpm(&clock, InfineonProfile());
  PcrSelection selection;
  selection.Select(17);
  selection.Select(GetParam());
  Result<TpmQuote> quote = tpm.Quote(Bytes(20, 5), selection);
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(quote.value().pcr_values.size(), selection.Indices().size());
  size_t position = 0;
  for (int index : selection.Indices()) {
    EXPECT_EQ(quote.value().pcr_values[position], tpm.PcrRead(index).value());
    ++position;
  }
}

INSTANTIATE_TEST_SUITE_P(SecondPcr, QuoteSelectionTest, ::testing::Values(0, 10, 18, 23));

}  // namespace
}  // namespace flicker
