// The wire-level TPM transport: frame marshalling, the TIS locality rules,
// the `tpm` command spans, fault injection, and the authorization-session
// negative paths (replayed nonces, garbled frames, stale handles) that must
// fail for cryptographic reasons once commands cross a real wire.

#include "src/tpm/transport.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/sha1.h"
#include "src/hw/timing.h"
#include "src/obs/trace.h"
#include "src/slb/pal.h"
#include "src/tpm/commands.h"
#include "src/tpm/tpm_util.h"

namespace flicker {
namespace {

// ---- The hardware capability has one holder (§2.3) ----
//
// Only the Machine holds the transport's Hardware facade, the one path to
// the SKINIT reset. The driver every caller holds and the context every PAL
// runs in expose no member that reaches it; these fail to compile if one
// comes back.
template <typename T>
concept ExposesHardware = requires(T& t) { t.hardware(); };
template <typename T>
concept ExposesTransport = requires(T& t) { t.transport(); };

static_assert(ExposesHardware<TpmTransport>, "the detector must see the real facade");
static_assert(!ExposesHardware<TpmClient>, "a driver could reset PCR 17");
static_assert(!ExposesTransport<TpmClient>, "a driver could reach the facade");
static_assert(!ExposesHardware<PalContext>, "a PAL could reset PCR 17");

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : tpm_(&clock_, BroadcomBcm0102Profile()), transport_(&tpm_), client_(&transport_) {}

  // The `tpm` spans recorded so far, in command order.
  std::vector<obs::SpanRecord> TpmSpans() const {
    std::vector<obs::SpanRecord> out;
    for (const obs::SpanRecord& span : tracer_.spans()) {
      if (std::string(span.category) == "tpm") {
        out.push_back(span);
      }
    }
    return out;
  }

  static std::string Arg(const obs::SpanRecord& span, const std::string& key) {
    for (const obs::SpanArg& arg : span.args) {
      if (arg.key == key) {
        return arg.value;
      }
    }
    return "<missing>";
  }

  static std::string Rc(StatusCode code) {
    char rc[16];
    std::snprintf(rc, sizeof(rc), "0x%x", ReturnCodeFor(code));
    return rc;
  }

  SimClock clock_;
  Tpm tpm_;
  TpmTransport transport_;
  TpmClient client_;
  // Installed after client_ fetched the AIK/SRK public keys over the wire,
  // so each test sees only its own commands.
  obs::ScopedTracer tracer_{&clock_};
};

// ---- Frame marshalling ----

TEST_F(TransportTest, CommandFrameRoundTrip) {
  Bytes body = BytesOf("parameters");
  Bytes frame = BuildCommandFrame(kTagRequest, kOrdPcrRead, body);
  EXPECT_EQ(frame.size(), kFrameHeaderSize + body.size());

  Result<CommandFrame> back = ParseCommandFrame(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().tag, kTagRequest);
  EXPECT_EQ(back.value().ordinal, static_cast<uint32_t>(kOrdPcrRead));
  EXPECT_EQ(back.value().body, body);

  // Truncated or length-inconsistent frames are rejected.
  EXPECT_FALSE(ParseCommandFrame(Bytes(frame.begin(), frame.begin() + 6)).ok());
  Bytes bad_len = frame;
  bad_len[5] ^= 0x01;  // paramSize no longer matches the frame length.
  EXPECT_FALSE(ParseCommandFrame(bad_len).ok());
}

TEST_F(TransportTest, ResponseFrameCarriesStatusInBand) {
  Bytes ok_frame = BuildResponseFrame(false, Status::Ok(), BytesOf("payload"));
  Result<Bytes> payload = ParseResponseFrame(ok_frame);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value(), BytesOf("payload"));
  EXPECT_EQ(PeekReturnCode(ok_frame), 0u);

  Bytes err_frame =
      BuildResponseFrame(true, PermissionDeniedError("authorization HMAC mismatch"), Bytes());
  Result<Bytes> err = ParseResponseFrame(err_frame);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(err.status().message(), "authorization HMAC mismatch");
  EXPECT_EQ(PeekReturnCode(err_frame), ReturnCodeFor(StatusCode::kPermissionDenied));
}

TEST_F(TransportTest, EveryStatusCodeRoundTripsThroughAResponseFrame) {
  // A denial must keep its type across the wire: the decoder may not fold a
  // newer code into kInternal.
  for (int raw = 1; raw <= static_cast<int>(kLastStatusCode); ++raw) {
    const StatusCode code = static_cast<StatusCode>(raw);
    Result<Bytes> back =
        ParseResponseFrame(BuildResponseFrame(false, Status(code, "denied"), Bytes()));
    ASSERT_FALSE(back.ok()) << StatusCodeName(code);
    EXPECT_EQ(back.status().code(), code) << StatusCodeName(code);
    EXPECT_EQ(back.status().message(), "denied");
  }
  // One past the last code is not a code.
  Bytes unknown = BuildResponseFrame(false, Status(StatusCode::kInternal, "x"), Bytes());
  Bytes rc;
  PutUint32(&rc, ReturnCodeFor(kLastStatusCode) + 1);
  std::copy(rc.begin(), rc.end(), unknown.begin() + 6);  // The returnCode field.
  EXPECT_EQ(ParseResponseFrame(unknown).status().code(), StatusCode::kInternal);
}

// ---- Timing neutrality: marshalling adds no simulated time ----

TEST_F(TransportTest, ClientChargesExactlyTheDeviceLatency) {
  double before = clock_.NowMillis();
  Bytes r = client_.GetRandom(128);
  EXPECT_EQ(r.size(), 128u);
  EXPECT_NEAR(clock_.NowMillis() - before, 1.3, 0.001);  // Broadcom GetRandom.

  before = clock_.NowMillis();
  ASSERT_TRUE(client_.PcrRead(0).ok());
  EXPECT_NEAR(clock_.NowMillis() - before, 0.4, 0.001);  // Broadcom PCR Read.
}

// ---- Command spans on the trace stream ----

TEST_F(TransportTest, SpansRecordOrdinalLocalityLatencyAndResult) {
  client_.GetRandom(16);
  ASSERT_TRUE(client_.PcrExtend(0, Bytes(kPcrSize, 0xAB)).ok());

  std::vector<obs::SpanRecord> spans = TpmSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "TPM_ORD_GetRandom");
  EXPECT_EQ(Arg(spans[0], "locality"), "0");
  EXPECT_EQ(spans[0].end_ns - spans[0].start_ns, 1'300'000u);
  EXPECT_EQ(Arg(spans[0], "rc"), "0x0");
  EXPECT_EQ(spans[1].name, "TPM_ORD_Extend");
  EXPECT_EQ(spans[1].end_ns - spans[1].start_ns, 1'200'000u);
  EXPECT_EQ(Arg(spans[1], "rc"), "0x0");
  // The span ends where dispatch completed, on the shared ns epoch.
  EXPECT_EQ(spans[1].end_ns, obs::NowNs(&clock_));
}

TEST_F(TransportTest, EveryTransmitRecordsExactlyOneSpan) {
  const uint64_t before = transport_.total_commands();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_.PcrRead(0).ok());
  }
  EXPECT_EQ(transport_.total_commands() - before, 10u);
  std::vector<obs::SpanRecord> spans = TpmSpans();
  ASSERT_EQ(spans.size(), 10u);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_ns, spans[i - 1].end_ns);
  }
}

// ---- Locality enforcement (§2.3: software extends, hardware resets) ----

TEST_F(TransportTest, SoftwareCannotReachHardwareLocalities) {
  for (int locality : {3, 4}) {
    Status direct = tpm_.RequestLocality(locality);
    EXPECT_EQ(direct.code(), StatusCode::kPermissionDenied) << locality;
    Status via_transport = transport_.RequestLocality(locality);
    EXPECT_EQ(via_transport.code(), StatusCode::kPermissionDenied) << locality;
  }
  EXPECT_EQ(tpm_.RequestLocality(5).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(transport_.RequestLocality(2).ok());
  EXPECT_EQ(transport_.locality(), 2);
  EXPECT_TRUE(transport_.ReleaseLocality().ok());
  EXPECT_EQ(transport_.locality(), 0);
}

TEST_F(TransportTest, ExtendLocalityTableMatchesTis) {
  // PCR 17-19: localities 2-4. PCR 20: 1-4. PCR 21-22: locality 2 only.
  EXPECT_FALSE(Tpm::ExtendAllowedAt(17, 0));
  EXPECT_FALSE(Tpm::ExtendAllowedAt(17, 1));
  EXPECT_TRUE(Tpm::ExtendAllowedAt(17, 2));
  EXPECT_TRUE(Tpm::ExtendAllowedAt(19, 4));
  EXPECT_FALSE(Tpm::ExtendAllowedAt(20, 0));
  EXPECT_TRUE(Tpm::ExtendAllowedAt(20, 1));
  EXPECT_TRUE(Tpm::ExtendAllowedAt(21, 2));
  EXPECT_FALSE(Tpm::ExtendAllowedAt(21, 4));
  EXPECT_FALSE(Tpm::ExtendAllowedAt(22, 0));
  EXPECT_TRUE(Tpm::ExtendAllowedAt(0, 0));  // Static PCRs: any locality.
  EXPECT_TRUE(Tpm::ExtendAllowedAt(16, 0));
}

TEST_F(TransportTest, DeviceRejectsGatedExtendFromWrongLocality) {
  // Regression for the device model itself: a bare extend of a dynamic PCR
  // at locality 0 is a typed permission error, not a silent success.
  Status st = tpm_.PcrExtend(17, Bytes(kPcrSize, 0x11));
  EXPECT_EQ(st.code(), StatusCode::kPermissionDenied);

  ASSERT_TRUE(tpm_.RequestLocality(2).ok());
  EXPECT_TRUE(tpm_.PcrExtend(17, Bytes(kPcrSize, 0x11)).ok());
  EXPECT_EQ(tpm_.PcrExtend(21, Bytes(kPcrSize, 0x11)).ok(), true);
  ASSERT_TRUE(tpm_.RequestLocality(1).ok());
  EXPECT_EQ(tpm_.PcrExtend(21, Bytes(kPcrSize, 0x11)).code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(tpm_.PcrExtend(20, Bytes(kPcrSize, 0x11)).ok());
}

TEST_F(TransportTest, TransportRefusesGatedExtendBeforeTheDeviceSeesIt) {
  double before = clock_.NowMillis();
  Result<Bytes> rsp = transport_.Transmit(BuildPcrExtend(17, Bytes(kPcrSize, 0x22)));
  ASSERT_FALSE(rsp.ok());
  EXPECT_EQ(rsp.status().code(), StatusCode::kPermissionDenied);
  // Refused at the interface: the device never charged extend latency.
  EXPECT_NEAR(clock_.NowMillis() - before, 0.0, 1e-9);

  std::vector<obs::SpanRecord> spans = TpmSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "TPM_ORD_Extend");
  EXPECT_EQ(Arg(spans[0], "locality"), "0");
  EXPECT_EQ(Arg(spans[0], "rc"), Rc(StatusCode::kPermissionDenied));
  EXPECT_EQ(spans[0].end_ns, spans[0].start_ns);
}

TEST_F(TransportTest, ClientNegotiatesLocalityForDynamicPcrExtends) {
  // The driver raises locality 2 through the TIS, extends, and drops back -
  // so software extends of PCR 17 work (extend is always software-legal;
  // only *reset* is hardware-only).
  ASSERT_EQ(client_.locality(), 0);
  ASSERT_TRUE(client_.PcrExtend(kSkinitPcr, Bytes(kPcrSize, 0x33)).ok());
  EXPECT_EQ(client_.locality(), 0);

  std::vector<obs::SpanRecord> spans = TpmSpans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, TpmOrdinalName(kOrdTisRequestLocality));
  EXPECT_EQ(Arg(spans[0], "locality"), "2");
  EXPECT_EQ(spans[1].name, "TPM_ORD_Extend");
  EXPECT_EQ(Arg(spans[1], "locality"), "2");
  EXPECT_EQ(spans[2].name, TpmOrdinalName(kOrdTisReleaseLocality));
  EXPECT_EQ(Arg(spans[2], "locality"), "0");
}

// ---- Authorization sessions over the wire: negative paths ----

TEST_F(TransportTest, ReplayedNonceOddIsRejected) {
  Bytes blob_auth = Sha1::Digest(BytesOf("blob auth"));
  Bytes data = BytesOf("secret");
  PcrSelection selection({0});
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_Seal"), data, selection.Serialize()));

  AuthSessionInfo session = client_.StartOiap();
  ASSERT_NE(session.handle, 0u);
  CommandAuth auth = tpm_util_internal::MakeAuth(&client_, session, Tpm::WellKnownSecret(),
                                                 param_digest);
  ASSERT_TRUE(client_.Seal(data, selection, {}, blob_auth, auth).ok());

  // Replaying the identical authorization (same nonce_odd, same HMAC) fails:
  // the TPM rolled nonce_even after the first use, so the replayed HMAC no
  // longer verifies. This is the rolling-nonce anti-replay property.
  Result<SealedBlob> replay = client_.Seal(data, selection, {}, blob_auth, auth);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(TransportTest, GarbledAuthorizedFrameFailsTheHmacCheck) {
  Bytes blob_auth = Sha1::Digest(BytesOf("blob auth"));
  Result<SealedBlob> blob =
      TpmSealData(&client_, BytesOf("payload"), PcrSelection({0}), {}, blob_auth);
  ASSERT_TRUE(blob.ok());

  AuthSessionInfo session = client_.StartOiap();
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_Unseal"), blob.value().ciphertext));
  CommandAuth auth = tpm_util_internal::MakeAuth(&client_, session, Tpm::WellKnownSecret(),
                                                 param_digest);
  Bytes frame = BuildUnseal(blob.value(), blob_auth, auth);
  // Flip one ciphertext byte past the serde length prefix: the frame still
  // parses, but the parameter digest the device computes no longer matches
  // the one the HMAC covers.
  frame[kFrameHeaderSize + 4] ^= 0x01;

  Result<Bytes> rsp = transport_.Transmit(frame);
  ASSERT_TRUE(rsp.ok());  // Device answered; the rejection is in-band.
  Result<Bytes> payload = ParseResponseFrame(rsp.value());
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(payload.status().message(), "authorization HMAC mismatch");
}

TEST_F(TransportTest, StaleSessionHandleIsRejected) {
  Bytes data = BytesOf("secret");
  PcrSelection selection({0});
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_Seal"), data, selection.Serialize()));

  AuthSessionInfo session = client_.StartOiap();
  CommandAuth auth = tpm_util_internal::MakeAuth(&client_, session, Tpm::WellKnownSecret(),
                                                 param_digest);
  client_.TerminateSession(session.handle);

  Result<SealedBlob> stale =
      client_.Seal(data, selection, {}, Sha1::Digest(BytesOf("blob auth")), auth);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(stale.status().message(), "unknown authorization session");
}

// ---- Fault injection ----

TEST_F(TransportTest, DropFaultBurnsTheReceiveTimeoutAndSurfacesUnavailable) {
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kDrop;
  plan.every_n = 1;
  plan.drop_timeout_ms = 7.5;
  transport_.set_fault_plan(plan);

  double before = clock_.NowMillis();
  Result<Bytes> dropped = client_.PcrRead(0);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable);
  EXPECT_NEAR(clock_.NowMillis() - before, 7.5, 0.001);
  EXPECT_EQ(transport_.faults_injected(), 1u);

  std::vector<obs::SpanRecord> spans = TpmSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "TPM_ORD_PcrRead");
  EXPECT_EQ(Arg(spans[0], "rc"), Rc(StatusCode::kUnavailable));
  // The dropped frame's span covers the receive timeout the driver burned.
  EXPECT_EQ(spans[0].end_ns - spans[0].start_ns, 7'500'000u);
}

TEST_F(TransportTest, GarbleFaultIsRejectedCryptographically) {
  Bytes blob_auth = Sha1::Digest(BytesOf("blob auth"));
  Result<SealedBlob> blob =
      TpmSealData(&client_, BytesOf("payload"), PcrSelection({0}), {}, blob_auth);
  ASSERT_TRUE(blob.ok());

  AuthSessionInfo session = client_.StartOiap();
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_Unseal"), blob.value().ciphertext));
  CommandAuth auth = tpm_util_internal::MakeAuth(&client_, session, Tpm::WellKnownSecret(),
                                                 param_digest);

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kGarble;
  plan.every_n = 1;  // Garble the very next frame: the Unseal itself.
  transport_.set_fault_plan(plan);
  Result<Bytes> garbled = client_.Unseal(blob.value(), blob_auth, auth);
  transport_.set_fault_plan(FaultPlan());

  ASSERT_FALSE(garbled.ok());
  // The byte flip lands mid-body: either the frame no longer parses (caught
  // as a malformed command) or the HMAC check fails. Both are rejections the
  // real TPM would produce; never a successful unseal.
  EXPECT_TRUE(garbled.status().code() == StatusCode::kPermissionDenied ||
              garbled.status().code() == StatusCode::kInvalidArgument)
      << garbled.status().message();
  EXPECT_EQ(transport_.faults_injected(), 1u);
}

TEST_F(TransportTest, DelayFaultAddsLatencyToSelectedFrames) {
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kDelay;
  plan.every_n = 2;
  plan.delay_ms = 3.0;
  transport_.set_fault_plan(plan);

  // Ctor already transmitted 2 frames, so the next delayed frame is the 2nd.
  double before = clock_.NowMillis();
  ASSERT_TRUE(client_.PcrRead(0).ok());  // Transmit #3: clean.
  double first = clock_.NowMillis() - before;
  before = clock_.NowMillis();
  ASSERT_TRUE(client_.PcrRead(0).ok());  // Transmit #4: delayed.
  double second = clock_.NowMillis() - before;

  EXPECT_NEAR(first, 0.4, 0.001);
  EXPECT_NEAR(second, 0.4 + 3.0, 0.001);
  EXPECT_EQ(transport_.faults_injected(), 1u);
}

// ---- End-to-end: sealed storage and quoting over the wire ----

TEST_F(TransportTest, SealUnsealRoundTripOverTheWire) {
  Bytes blob_auth = Sha1::Digest(BytesOf("blob auth"));
  Result<SealedBlob> blob =
      TpmSealData(&client_, BytesOf("the CA's private key"), PcrSelection({17}), {}, blob_auth);
  ASSERT_TRUE(blob.ok());
  Result<Bytes> back = TpmUnsealData(&client_, blob.value(), blob_auth);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), BytesOf("the CA's private key"));

  // Extending PCR 17 revokes access, exactly as with the raw device.
  ASSERT_TRUE(client_.PcrExtend(17, Bytes(kPcrSize, 0x77)).ok());
  Result<Bytes> denied = TpmUnsealData(&client_, blob.value(), blob_auth);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kIntegrityFailure);
}

TEST_F(TransportTest, QuoteIsASingleFrameAndChargesThePaperLatency) {
  double before = clock_.NowMillis();
  uint64_t commands_before = transport_.total_commands();
  Result<TpmQuote> quote = client_.Quote(BytesOf("verifier nonce"), PcrSelection({17}));
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(transport_.total_commands() - commands_before, 1u);
  EXPECT_NEAR(clock_.NowMillis() - before, 972.7, 0.01);  // Table 1 Quote.
  EXPECT_EQ(quote.value().nonce, BytesOf("verifier nonce"));
  EXPECT_FALSE(quote.value().signature.empty());
}

}  // namespace
}  // namespace flicker
