// The distributed-computing application (§6.2): correct factoring across
// many sessions, MAC-protected state, tamper detection, overhead accounting.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/distributed.h"
#include "src/common/serde.h"

namespace flicker {
namespace {

// Ground truth by trial division: the divisors of the unit's composite
// below its search limit.
std::vector<uint64_t> Divisors(const FactorWorkUnit& unit) {
  std::vector<uint64_t> out;
  for (uint64_t d = 2; d < unit.search_limit; ++d) {
    if (unit.composite % d == 0) {
      out.push_back(d);
    }
  }
  return out;
}

class DistributedTest : public ::testing::Test {
 protected:
  DistributedTest() : binary_(MakeBinary()), client_(&platform_, &binary_) {}

  static PalBinary MakeBinary() {
    PalBuildOptions options;
    options.measurement_stub = true;  // The paper's optimized configuration.
    return BuildPal(std::make_shared<DistributedPal>(), options).take();
  }

  FlickerPlatform platform_;
  PalBinary binary_;
  BoincClient client_;
};

TEST_F(DistributedTest, InitializeSealsKey) {
  ASSERT_TRUE(client_.Initialize().ok());
  EXPECT_FALSE(client_.sealed_key().empty());
}

TEST_F(DistributedTest, FactorsSmallCompositeAcrossSessions) {
  ASSERT_TRUE(client_.Initialize().ok());
  FactorWorkUnit unit;
  unit.composite = 2ULL * 3 * 5 * 7 * 11 * 13;  // 30030.
  unit.search_limit = 40000;
  BoincClient::RunStats stats = client_.Process(unit, /*slice_ms=*/50);
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_GT(stats.sessions, 1);  // 40000 candidates at 181/ms needs >1 50 ms slice.
  EXPECT_EQ(stats.divisors, Divisors(unit));
}

TEST_F(DistributedTest, SingleSessionWhenSliceLargeEnough) {
  ASSERT_TRUE(client_.Initialize().ok());
  FactorWorkUnit unit;
  unit.composite = 91;  // 7 * 13.
  unit.search_limit = 1000;
  BoincClient::RunStats stats = client_.Process(unit, /*slice_ms=*/100);
  ASSERT_TRUE(stats.status.ok());
  EXPECT_EQ(stats.sessions, 1);
  EXPECT_EQ(stats.divisors, (std::vector<uint64_t>{7, 13, 91}));
}

TEST_F(DistributedTest, PrimeHasNoSmallDivisors) {
  ASSERT_TRUE(client_.Initialize().ok());
  FactorWorkUnit unit;
  unit.composite = 1000003;  // Prime.
  unit.search_limit = 1000;  // Search below it: nothing to find.
  BoincClient::RunStats stats = client_.Process(unit, 100);
  ASSERT_TRUE(stats.status.ok());
  EXPECT_TRUE(stats.divisors.empty());
}

TEST_F(DistributedTest, OverheadDominatedByUnseal) {
  ASSERT_TRUE(client_.Initialize().ok());
  FactorWorkUnit unit;
  unit.composite = 12345677;
  unit.search_limit = 200000;  // ~1.1 s of work at 181/ms.
  double clock_before = platform_.clock()->NowMillis();
  BoincClient::RunStats stats = client_.Process(unit, /*slice_ms=*/2000);
  ASSERT_TRUE(stats.status.ok());
  double elapsed = platform_.clock()->NowMillis() - clock_before;
  // One session: ~14 ms SKINIT (stub) + ~905 ms unseal + ~1100 ms work.
  EXPECT_EQ(stats.sessions, 1);
  EXPECT_NEAR(elapsed, 14.3 + 905 + 1105, 60.0);
  EXPECT_GT(stats.overhead_ms, 900.0);
  EXPECT_LT(stats.overhead_ms, 1000.0);
}

TEST_F(DistributedTest, TamperedStateDetected) {
  ASSERT_TRUE(client_.Initialize().ok());

  // Run one slice manually, corrupt the MACed state, feed it back.
  Writer in;
  in.U8(kDistributedModeWork);
  in.Blob(client_.sealed_key());
  in.Blob(Bytes());
  in.Blob(Bytes());
  in.U64(30030);
  in.U64(100000);
  in.U64(1000);
  Result<FlickerSessionResult> first = platform_.ExecuteSession(binary_, in.Take());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().ok());
  Reader out(first.value().outputs());
  ASSERT_EQ(out.U8(), 0);  // Not done.
  Bytes state = out.Blob();
  Bytes mac = out.Blob();

  // The malicious OS edits the checkpoint (e.g., skips work / fakes found
  // divisors).
  state[0] ^= 0x01;
  Writer in2;
  in2.U8(kDistributedModeWork);
  in2.Blob(client_.sealed_key());
  in2.Blob(state);
  in2.Blob(mac);
  in2.U64(30030);
  in2.U64(100000);
  in2.U64(1000);
  Result<FlickerSessionResult> second = platform_.ExecuteSession(binary_, in2.Take());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().ok());
  EXPECT_EQ(second.value().record.pal_status.code(), StatusCode::kIntegrityFailure);
}

TEST_F(DistributedTest, ForgedMacDetected) {
  ASSERT_TRUE(client_.Initialize().ok());
  FactorState fake_state;
  fake_state.next_divisor = 99999;  // Claim the work is nearly done.
  Bytes state = fake_state.Serialize();
  Bytes forged_mac(20, 0xab);  // The OS does not know the sealed HMAC key.

  Writer in;
  in.U8(kDistributedModeWork);
  in.Blob(client_.sealed_key());
  in.Blob(state);
  in.Blob(forged_mac);
  in.U64(30030);
  in.U64(100000);
  in.U64(1000);
  Result<FlickerSessionResult> result = platform_.ExecuteSession(binary_, in.Take());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().ok());
  EXPECT_EQ(result.value().record.pal_status.code(), StatusCode::kIntegrityFailure);
}

TEST_F(DistributedTest, UninitializedClientRejected) {
  FactorWorkUnit unit;
  unit.composite = 6;
  unit.search_limit = 10;
  BoincClient::RunStats stats = client_.Process(unit, 100);
  EXPECT_EQ(stats.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(DistributedTest, GarbageInputsRejected) {
  Result<FlickerSessionResult> result = platform_.ExecuteSession(binary_, BytesOf("\x07"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().ok());
  EXPECT_EQ(result.value().record.pal_status.code(), StatusCode::kInvalidArgument);
}

TEST_F(DistributedTest, ServerVerifiesAttestedResult) {
  ASSERT_TRUE(client_.Initialize().ok());
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(platform_.tpm()->aik_public(), "volunteer");
  BoincServer server;

  FactorWorkUnit unit;
  unit.composite = 30030;
  unit.search_limit = 20000;
  Bytes nonce = platform_.tpm()->GetRandom(20);
  BoincClient::RunStats stats = client_.Process(unit, 200, nonce);
  ASSERT_TRUE(stats.status.ok());

  Result<BoincClient::ResultSubmission> submission = client_.SubmitResult(nonce);
  ASSERT_TRUE(submission.ok()) << submission.status().ToString();

  Result<std::vector<uint64_t>> verified =
      server.VerifyResult(binary_, submission.value(), cert, ca.public_key(), nonce);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.value(), Divisors(unit));
}

TEST_F(DistributedTest, ServerRejectsForgedResult) {
  ASSERT_TRUE(client_.Initialize().ok());
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(platform_.tpm()->aik_public(), "volunteer");
  BoincServer server;

  FactorWorkUnit unit;
  unit.composite = 30030;
  unit.search_limit = 20000;
  Bytes nonce = platform_.tpm()->GetRandom(20);
  ASSERT_TRUE(client_.Process(unit, 200, nonce).status.ok());
  Result<BoincClient::ResultSubmission> submission = client_.SubmitResult(nonce);
  ASSERT_TRUE(submission.ok());

  // A cheating client edits the result (claims extra divisors) after the
  // session: the attestation no longer matches.
  BoincClient::ResultSubmission forged = submission.value();
  FactorState fake;
  fake.next_divisor = unit.search_limit;
  fake.found = {2, 3, 5, 7, 11, 13, 17};  // 17 is not a divisor of 30030.
  Writer out;
  out.U8(1);
  out.Blob(fake.Serialize());
  forged.final_outputs = out.Take();
  Result<std::vector<uint64_t>> verified =
      server.VerifyResult(binary_, forged, cert, ca.public_key(), nonce);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kIntegrityFailure);
}

TEST_F(DistributedTest, SubmitWithoutCompletionRejected) {
  ASSERT_TRUE(client_.Initialize().ok());
  Result<BoincClient::ResultSubmission> submission =
      client_.SubmitResult(platform_.tpm()->GetRandom(20));
  ASSERT_FALSE(submission.ok());
  EXPECT_EQ(submission.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BoincFleetTest, ServerAcceptsResultsFromMultipleVolunteers) {
  // Three volunteer machines (distinct TPMs/AIKs) process units for one
  // server; every submission verifies under its own certificate chain.
  PalBuildOptions options;
  options.measurement_stub = true;
  PalBinary binary = BuildPal(std::make_shared<DistributedPal>(), options).take();
  PrivacyCa ca;
  BoincServer server;

  for (uint64_t volunteer = 0; volunteer < 3; ++volunteer) {
    FlickerPlatformConfig config;
    config.machine.tpm.manufacture_seed = 0x1000 + volunteer;  // Distinct TPM.
    FlickerPlatform platform(config);
    AikCertificate cert = ca.Certify(platform.tpm()->aik_public(),
                                     "volunteer-" + std::to_string(volunteer));

    BoincClient client(&platform, &binary);
    ASSERT_TRUE(client.Initialize().ok()) << volunteer;

    FactorWorkUnit unit;
    unit.composite = 6006 + volunteer * 30030;
    unit.search_limit = 10000;
    Bytes nonce = platform.tpm()->GetRandom(20);
    ASSERT_TRUE(client.Process(unit, 100, nonce).status.ok()) << volunteer;
    Result<BoincClient::ResultSubmission> submission = client.SubmitResult(nonce);
    ASSERT_TRUE(submission.ok()) << volunteer;

    Result<std::vector<uint64_t>> verified =
        server.VerifyResult(binary, submission.value(), cert, ca.public_key(), nonce);
    ASSERT_TRUE(verified.ok()) << volunteer << ": " << verified.status().ToString();
    EXPECT_EQ(verified.value(), Divisors(unit)) << volunteer;
  }
}

TEST(BoincFleetTest, CrossVolunteerQuoteRejected) {
  // A submission quoted by machine A cannot be passed off under machine B's
  // certificate.
  PalBuildOptions options;
  options.measurement_stub = true;
  PalBinary binary = BuildPal(std::make_shared<DistributedPal>(), options).take();
  PrivacyCa ca;
  BoincServer server;

  FlickerPlatformConfig config_a;
  config_a.machine.tpm.manufacture_seed = 0xa;
  FlickerPlatform machine_a(config_a);
  FlickerPlatformConfig config_b;
  config_b.machine.tpm.manufacture_seed = 0xb;
  FlickerPlatform machine_b(config_b);
  AikCertificate cert_b = ca.Certify(machine_b.tpm()->aik_public(), "machine-b");

  BoincClient client(&machine_a, &binary);
  ASSERT_TRUE(client.Initialize().ok());
  FactorWorkUnit unit;
  unit.composite = 30030;
  unit.search_limit = 10000;
  Bytes nonce = machine_a.tpm()->GetRandom(20);
  ASSERT_TRUE(client.Process(unit, 100, nonce).status.ok());
  Result<BoincClient::ResultSubmission> submission = client.SubmitResult(nonce);
  ASSERT_TRUE(submission.ok());

  Result<std::vector<uint64_t>> verified =
      server.VerifyResult(binary, submission.value(), cert_b, ca.public_key(), nonce);
  ASSERT_FALSE(verified.ok());
}

TEST(FactorStateTest, SerializationRoundTrip) {
  FactorState state;
  state.next_divisor = 424242;
  state.found = {2, 3, 5, 424241};
  Result<FactorState> back = FactorState::Deserialize(state.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().next_divisor, state.next_divisor);
  EXPECT_EQ(back.value().found, state.found);
  EXPECT_FALSE(FactorState::Deserialize(Bytes(5, 0)).ok());
}

}  // namespace
}  // namespace flicker
