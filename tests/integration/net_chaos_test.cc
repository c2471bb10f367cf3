// The network-chaos campaign: seeds x fault mixes x workloads, each cell one
// complete exchange over an adversarial LossyChannel carried by the session
// layer. The invariant, every cell, no exceptions:
//
//   the exchange either completes with a verified quote (or the app-level
//   equivalent: a correct login verdict, the correct factor list) or fails
//   CLOSED with a typed Status within its deadline. Zero accepted-but-wrong.
//
// A deliberately replay-vulnerable verifier variant (trust_wire_nonce) is
// run through the same adversary as a control: it must FAIL the matrix,
// proving the campaign can actually catch accepted-but-wrong endpoints.

#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/distributed.h"
#include "src/apps/hello.h"
#include "src/apps/ssh.h"
#include "src/attest/verifier.h"
#include "src/common/serde.h"
#include "src/core/remote_attestation.h"
#include "src/crypto/sha1.h"
#include "src/net/session.h"
#include "src/obs/trace.h"

namespace flicker {
namespace {

// Generous app-level deadlines: a Flicker session on the server burns around
// a second of simulated time (SKINIT + unseal + quote), so the transport
// gets several retransmit windows around one handler run. Finite, though: a
// dead wire still fails closed.
SessionConfig ChaosSessionConfig() {
  SessionConfig config;
  config.attempt_timeout_ms = 60.0;
  config.max_attempts = 6;
  config.total_deadline_ms = 8000.0;
  return config;
}

// The server's handler runs to completion once a request frame is accepted,
// so a cell may overshoot the session deadline by at most one handler run
// before the client can observe the expiry and fail closed.
constexpr double kHandlerSlackMs = 3000.0;

enum class CellVerdict { kVerified, kFailedClosed, kWrongAnswer };

struct MixSpec {
  const char* name;
  NetFaultMix mix;
  std::vector<PartitionWindow> partitions;
};

std::vector<MixSpec> ChaosMixes() {
  std::vector<MixSpec> mixes;
  mixes.push_back({"clean", NetFaultMix{}, {}});
  MixSpec drop5{"drop5", NetFaultMix{}, {}};
  drop5.mix.drop_bp = 500;
  mixes.push_back(drop5);
  MixSpec drop20{"drop20", NetFaultMix{}, {}};
  drop20.mix.drop_bp = 2000;
  mixes.push_back(drop20);
  MixSpec dupdrop{"dup10+drop5", NetFaultMix{}, {}};
  dupdrop.mix.duplicate_bp = 1000;
  dupdrop.mix.drop_bp = 500;
  mixes.push_back(dupdrop);
  MixSpec corrupt{"corrupt10", NetFaultMix{}, {}};
  corrupt.mix.corrupt_bp = 1000;
  mixes.push_back(corrupt);
  MixSpec slow{"delay20+reorder10", NetFaultMix{}, {}};
  slow.mix.delay_bp = 2000;
  slow.mix.delay_ms = 40.0;
  slow.mix.reorder_bp = 1000;
  mixes.push_back(slow);
  // The cut swallows every datagram a default call can send (6 attempts =
  // 6 requests, responses included in the window): guaranteed fail-closed
  // cells, so the campaign provably exercises that path too.
  MixSpec cut{"partition+drop10", NetFaultMix{}, {{1, 16}}};
  cut.mix.drop_bp = 1000;
  mixes.push_back(cut);
  return mixes;
}

bool IsCleanMix(const MixSpec& spec) {
  return spec.mix.drop_bp == 0 && spec.mix.duplicate_bp == 0 && spec.mix.reorder_bp == 0 &&
         spec.mix.corrupt_bp == 0 && spec.mix.delay_bp == 0 && spec.partitions.empty();
}

struct MatrixTally {
  int cells = 0;
  int verified = 0;
  int failed_closed = 0;
  int wrong = 0;

  void Count(CellVerdict verdict) {
    ++cells;
    verified += verdict == CellVerdict::kVerified;
    failed_closed += verdict == CellVerdict::kFailedClosed;
    wrong += verdict == CellVerdict::kWrongAnswer;
  }
};

class NetChaosTest : public ::testing::Test {
 protected:
  NetChaosTest()
      : hello_binary_(MakeBinary(std::make_shared<HelloWorldPal>())),
        ssh_binary_(MakeBinary(std::make_shared<SshPal>())),
        dist_binary_(MakeBinary(std::make_shared<DistributedPal>())),
        cert_(ca_.Certify(platform_.tpm()->aik_public(), "chaos-host")),
        service_(&platform_, cert_),
        verifier_(&hello_binary_, ca_.public_key()),
        ssh_server_(&platform_, &ssh_binary_),
        ssh_client_(&ssh_binary_, ca_.public_key(), cert_),
        boinc_client_(&platform_, &dist_binary_) {}

  static PalBinary MakeBinary(std::shared_ptr<Pal> pal) {
    PalBuildOptions options;
    options.measurement_stub = true;
    return BuildPal(std::move(pal), options).take();
  }

  // One session-layer exchange over a fresh adversarial wire. `classify`
  // judges a delivered OK reply; transport/typed-Status failures are the
  // fail-closed outcome by construction.
  CellVerdict RunCell(uint64_t schedule_seed, const MixSpec& spec, const Bytes& request,
                      const SessionServer::Handler& handler,
                      const std::function<CellVerdict(const Bytes&)>& classify) {
    // The cell's trace: every frame on the wire (seq, verdict, arrival) and
    // every TPM command the handler ran, printed on a wrong answer.
    obs::ScopedTracer tracer(platform_.clock());
    LossyChannel channel(platform_.clock());
    channel.set_fault_schedule(NetFaultSchedule(schedule_seed, spec.mix, spec.partitions));
    SessionClient client(&channel, NetEndpoint::kClient, ChaosSessionConfig());
    SessionServer server(&channel, NetEndpoint::kServer);
    const double start_ms = platform_.clock()->NowMillis();
    Result<Bytes> reply = client.Call(request, [&](double deadline_ms) {
      server.ServePending(deadline_ms, handler);
    });
    const double elapsed_ms = platform_.clock()->NowMillis() - start_ms;
    EXPECT_LE(elapsed_ms, ChaosSessionConfig().total_deadline_ms + kHandlerSlackMs)
        << spec.name << " seed " << schedule_seed << " blew its deadline";
    if (!reply.ok()) {
      return CellVerdict::kFailedClosed;
    }
    CellVerdict verdict = classify(reply.value());
    if (verdict == CellVerdict::kWrongAnswer) {
      std::cerr << "WRONG ANSWER in mix " << spec.name << " seed " << schedule_seed << "\n";
      std::cerr << tracer.ExportChromeTrace();
    }
    return verdict;
  }

  FlickerPlatform platform_;
  PalBinary hello_binary_;
  PalBinary ssh_binary_;
  PalBinary dist_binary_;
  PrivacyCa ca_;
  AikCertificate cert_;
  AttestationService service_;
  AttestationVerifier verifier_;
  SshServer ssh_server_;
  SshClient ssh_client_;
  BoincClient boinc_client_;
};

TEST_F(NetChaosTest, MatrixHoldsInvariantAcross200PlusCells) {
  const std::vector<MixSpec> mixes = ChaosMixes();
  const int kSeeds = 10;
  MatrixTally tally;
  MatrixTally clean_tally;
  int replay_cells = 0;

  // ---- Shared fixtures built once; the chaos lives in the network. ----

  // SSH: establish and pin K_PAL over a clean control channel.
  ASSERT_TRUE(ssh_server_.AddUser("alice", "correct horse", "a1b2c3d4").ok());
  {
    Bytes setup_nonce = ssh_client_.MakeNonce();
    Result<SshServer::SetupResult> setup = ssh_server_.Setup(setup_nonce);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    ASSERT_TRUE(ssh_client_.VerifyServerSetup(setup.value(), setup_nonce).ok());
  }

  // Distributed: compute one unit and record its attested submission; every
  // cell then carries that same submission across a different hostile wire.
  BoincServer boinc_server;
  FactorWorkUnit unit = boinc_server.CreateWorkUnit(30030);
  unit.search_limit = 10000;
  const std::vector<uint64_t> reference = BoincServer::ReferenceFactors(unit);
  Bytes boinc_nonce = platform_.tpm()->GetRandom(20);
  ASSERT_TRUE(boinc_client_.Initialize().ok());
  ASSERT_TRUE(boinc_client_.Process(unit, 200, boinc_nonce).status.ok());
  Result<BoincClient::ResultSubmission> submission = boinc_client_.SubmitResult(boinc_nonce);
  ASSERT_TRUE(submission.ok()) << submission.status().ToString();
  const Bytes submission_wire = submission.value().Serialize();

  // A genuine reply the on-path replay adversary will answer with later.
  Bytes recorded_reply;
  {
    Bytes challenge = verifier_.MakeChallenge();
    Result<Bytes> reply = service_.HandleChallenge(challenge, hello_binary_, BytesOf("warmup"));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(verifier_.CheckReply(reply.value()).status.ok());
    recorded_reply = reply.value();
  }

  for (size_t mix_index = 0; mix_index < mixes.size(); ++mix_index) {
    const MixSpec& spec = mixes[mix_index];
    const bool clean = IsCleanMix(spec);
    for (int seed = 1; seed <= kSeeds; ++seed) {
      const uint64_t schedule_seed = static_cast<uint64_t>(seed) * 1000003ULL + mix_index;

      // ---- Workload 1: remote attestation (challenge -> verified quote).
      // Every third seed the server is an on-path adversary replaying the
      // recorded genuine reply; the hardened verifier must fail it closed.
      {
        const bool adversary_replays = (seed % 3 == 0);
        replay_cells += adversary_replays;
        Bytes challenge = verifier_.MakeChallenge();
        Result<AttestationChallenge> issued = AttestationChallenge::Deserialize(challenge);
        ASSERT_TRUE(issued.ok());
        SessionServer::Handler handler = [&](const Bytes& wire) -> Result<Bytes> {
          if (adversary_replays) {
            return recorded_reply;
          }
          return service_.HandleChallenge(wire, hello_binary_, BytesOf("chaos"));
        };
        auto classify = [&](const Bytes& reply_wire) {
          AttestationVerifier::Outcome outcome = verifier_.CheckReply(reply_wire);
          if (!outcome.status.ok()) {
            return CellVerdict::kFailedClosed;  // Rejected reply: closed.
          }
          // Accepted: it must be THIS cell's exchange, nothing stale.
          return outcome.log.nonce == issued.value().nonce &&
                         outcome.log.outputs == BytesOf("Hello, world")
                     ? CellVerdict::kVerified
                     : CellVerdict::kWrongAnswer;
        };
        CellVerdict verdict = RunCell(schedule_seed, spec, challenge, handler, classify);
        tally.Count(verdict);
        if (clean) {
          clean_tally.Count(verdict);
          // With no faults armed the outcome is exactly determined: genuine
          // exchanges verify, the replay adversary is always caught.
          EXPECT_EQ(verdict, adversary_replays ? CellVerdict::kFailedClosed
                                               : CellVerdict::kVerified)
              << "clean attestation cell, seed " << seed;
        }
      }

      // ---- Workload 2: secure channel (SSH login over the lossy wire).
      {
        Bytes login_nonce = ssh_client_.MakeNonce();
        Result<Bytes> encrypted = ssh_client_.EncryptPassword("correct horse", login_nonce);
        ASSERT_TRUE(encrypted.ok());
        SshLoginRequest login;
        login.username = "alice";
        login.encrypted_password = encrypted.value();
        login.login_nonce = login_nonce;
        SessionServer::Handler handler = [&](const Bytes& wire) {
          return ssh_server_.HandleLoginFrame(wire);
        };
        auto classify = [](const Bytes& reply) {
          if (reply.size() == 1 && reply[0] == 1) {
            return CellVerdict::kVerified;  // Correct password authenticated.
          }
          if (reply.size() == 1 && reply[0] == 0) {
            return CellVerdict::kFailedClosed;  // Denied: safe, not wrong.
          }
          return CellVerdict::kWrongAnswer;  // Garbage accepted as a verdict.
        };
        CellVerdict verdict =
            RunCell(schedule_seed ^ 0x55aaULL, spec, login.Serialize(), handler, classify);
        tally.Count(verdict);
        if (clean) {
          clean_tally.Count(verdict);
          EXPECT_EQ(verdict, CellVerdict::kVerified) << "clean ssh cell, seed " << seed;
        }
      }

      // ---- Workload 3: distributed computing (attested result submission).
      {
        SessionServer::Handler handler = [&](const Bytes& wire) {
          return boinc_server.HandleSubmissionFrame(dist_binary_, wire, cert_,
                                                    ca_.public_key(), boinc_nonce);
        };
        auto classify = [&](const Bytes& reply) {
          Reader r(reply);
          uint32_t count = r.U32();
          std::vector<uint64_t> divisors;
          for (uint32_t i = 0; i < count && r.ok(); ++i) {
            divisors.push_back(r.U64());
          }
          return r.ok() && r.AtEnd() && divisors == reference ? CellVerdict::kVerified
                                                              : CellVerdict::kWrongAnswer;
        };
        CellVerdict verdict =
            RunCell(schedule_seed ^ 0xb01cULL, spec, submission_wire, handler, classify);
        tally.Count(verdict);
        if (clean) {
          clean_tally.Count(verdict);
          EXPECT_EQ(verdict, CellVerdict::kVerified) << "clean boinc cell, seed " << seed;
        }
      }
    }
  }

  std::cerr << "net chaos matrix: " << tally.cells << " cells (" << replay_cells
            << " with a replay adversary), " << tally.verified << " verified, "
            << tally.failed_closed << " failed closed, " << tally.wrong << " wrong\n";
  EXPECT_EQ(tally.cells, kSeeds * static_cast<int>(mixes.size()) * 3);
  EXPECT_GE(tally.cells, 200);
  EXPECT_EQ(tally.wrong, 0) << "accepted-but-wrong exchanges in the matrix";
  EXPECT_EQ(clean_tally.cells, kSeeds * 3);
  // Chaos must neither starve every cell nor be a no-op: both terminal
  // outcomes appear, and the partition mix guarantees fail-closed cells.
  EXPECT_GT(tally.verified, tally.cells / 3);
  EXPECT_GT(tally.failed_closed, replay_cells);
}

TEST_F(NetChaosTest, BatchQuoteSlicesSurviveChaosAndForeignSlicesFailClosed) {
  // Batch-quote workload: one TPM quote answered K challengers; each slice
  // (quote + auth path) now crosses a hostile wire. The invariant sharpens:
  // no challenger may EVER accept a quote slice for a nonce outside its own
  // auth path, whatever the wire or an on-path adversary serves it.
  const size_t kChallengers = 8;

  // One Flicker session all challengers attest.
  Bytes session_nonce = Sha1::Digest(BytesOf("chaos batch session"));
  SlbCoreOptions options;
  options.nonce = session_nonce;
  Result<FlickerSessionResult> session =
      platform_.ExecuteSession(hello_binary_, Bytes(), options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value().ok());
  SessionExpectation expectation;
  expectation.binary = &hello_binary_;
  expectation.outputs = session.value().outputs();
  expectation.nonce = session_nonce;

  // One coalesced batch, flushed once; the chaos lives in delivering slices.
  std::vector<Bytes> nonces;
  for (size_t i = 0; i < kChallengers; ++i) {
    nonces.push_back(Sha1::Digest(BytesOf("chaos challenger " + std::to_string(i))));
    ASSERT_TRUE(platform_.tqd()->SubmitBatched(nonces.back(), PcrSelection({17})).ok());
  }
  std::vector<BatchQuoteResponse> slices;
  ASSERT_TRUE(platform_.tqd()->FlushReadyBatches(&slices, /*force=*/true).ok());
  ASSERT_EQ(slices.size(), kChallengers);
  std::map<Bytes, Bytes> slice_wire;  // nonce -> serialized slice.
  for (const BatchQuoteResponse& slice : slices) {
    slice_wire[slice.nonce] = SerializeBatchQuoteResponse(slice);
  }

  const std::vector<MixSpec> mixes = ChaosMixes();
  MatrixTally tally;
  for (size_t mix_index = 0; mix_index < mixes.size(); ++mix_index) {
    const MixSpec& spec = mixes[mix_index];
    const bool clean = IsCleanMix(spec);
    for (int seed = 1; seed <= 10; ++seed) {
      const uint64_t schedule_seed = static_cast<uint64_t>(seed) * 7000003ULL + mix_index;
      const size_t me = static_cast<size_t>(seed) % kChallengers;
      // Every third seed an on-path adversary hands this challenger a
      // NEIGHBOUR's genuine slice instead of its own.
      const bool adversary = (seed % 3 == 0);
      SessionServer::Handler handler = [&](const Bytes& wire) -> Result<Bytes> {
        const Bytes& key = adversary ? nonces[(me + 1) % kChallengers] : wire;
        auto it = slice_wire.find(key);
        if (it == slice_wire.end()) {
          return NotFoundError("unknown challenge nonce");
        }
        return it->second;
      };
      auto classify = [&](const Bytes& reply) {
        Result<BatchQuoteResponse> slice = DeserializeBatchQuoteResponse(reply);
        if (!slice.ok()) {
          return CellVerdict::kFailedClosed;  // Garbled slice: rejected.
        }
        Status verdict =
            VerifyBatchQuote(expectation, slice.value(), cert_, ca_.public_key(), nonces[me]);
        if (!verdict.ok()) {
          return CellVerdict::kFailedClosed;
        }
        // Accepted: it must be THIS challenger's slice.
        return slice.value().nonce == nonces[me] ? CellVerdict::kVerified
                                                 : CellVerdict::kWrongAnswer;
      };
      CellVerdict verdict = RunCell(schedule_seed, spec, nonces[me], handler, classify);
      tally.Count(verdict);
      if (clean) {
        EXPECT_EQ(verdict,
                  adversary ? CellVerdict::kFailedClosed : CellVerdict::kVerified)
            << "clean batch cell, seed " << seed;
      }
    }
  }
  std::cerr << "batch-quote chaos: " << tally.cells << " cells, " << tally.verified
            << " verified, " << tally.failed_closed << " failed closed, " << tally.wrong
            << " wrong\n";
  EXPECT_EQ(tally.wrong, 0) << "a challenger accepted a slice outside its own path";
  EXPECT_GT(tally.verified, 0);
  EXPECT_GT(tally.failed_closed, 0);

  // Byte-level corruption sweep on one genuine slice: no single-byte flip
  // may yield an ACCEPTED slice answering a different nonce or carrying a
  // different quote. Flips in untrusted bytes the hardened verifier ignores
  // (e.g. the wire's claimed quote nonce, which is recomputed from the auth
  // path) may still verify - they leave the accepted content unchanged.
  const Bytes& wire = slice_wire[nonces[0]];
  const BatchQuoteResponse& genuine =
      *std::find_if(slices.begin(), slices.end(),
                    [&](const BatchQuoteResponse& s) { return s.nonce == nonces[0]; });
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    Bytes mutated = wire;
    mutated[pos] ^= 0xff;
    Result<BatchQuoteResponse> slice = DeserializeBatchQuoteResponse(mutated);
    if (!slice.ok()) {
      continue;
    }
    Status verdict =
        VerifyBatchQuote(expectation, slice.value(), cert_, ca_.public_key(), nonces[0]);
    if (!verdict.ok()) {
      continue;
    }
    EXPECT_EQ(slice.value().nonce, nonces[0]) << "flip at byte " << pos;
    EXPECT_EQ(slice.value().response.quote.signature, genuine.response.quote.signature)
        << "flip at byte " << pos;
    EXPECT_EQ(slice.value().response.quote.pcr_values, genuine.response.quote.pcr_values)
        << "flip at byte " << pos;
  }
}

TEST_F(NetChaosTest, ReplayVulnerableVerifierFailsTheMatrix) {
  // Control experiment: the verifier variant that trusts the wire's claimed
  // nonce runs against the same replaying adversary. The matrix MUST catch
  // it accepting stale replies - if this test ever observes zero wrong
  // answers, the campaign has lost its teeth.
  Bytes recorded_reply;
  {
    Bytes challenge = verifier_.MakeChallenge();
    Result<Bytes> reply = service_.HandleChallenge(challenge, hello_binary_, BytesOf("x"));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(verifier_.CheckReply(reply.value()).status.ok());
    recorded_reply = reply.value();
  }

  verifier_.set_trust_wire_nonce_for_testing(true);
  int accepted_wrong = 0;
  for (int seed = 1; seed <= 10; ++seed) {
    LossyChannel channel(platform_.clock());
    SessionClient client(&channel, NetEndpoint::kClient, ChaosSessionConfig());
    SessionServer server(&channel, NetEndpoint::kServer);
    Bytes challenge = verifier_.MakeChallenge();
    Result<AttestationChallenge> issued = AttestationChallenge::Deserialize(challenge);
    ASSERT_TRUE(issued.ok());
    Result<Bytes> reply = client.Call(challenge, [&](double deadline_ms) {
      server.ServePending(deadline_ms, [&](const Bytes&) -> Result<Bytes> {
        return recorded_reply;  // The adversary answers from its recording.
      });
    });
    ASSERT_TRUE(reply.ok());
    AttestationVerifier::Outcome outcome = verifier_.CheckReply(reply.value());
    // Accepting a reply whose nonce is not this cell's challenge is the
    // accepted-but-wrong failure the hardened verifier exists to prevent.
    if (outcome.status.ok() && outcome.log.nonce != issued.value().nonce) {
      ++accepted_wrong;
    }
  }
  EXPECT_EQ(accepted_wrong, 10) << "the vulnerable variant must accept every replay";

  // The hardened verifier rejects the identical adversary.
  verifier_.set_trust_wire_nonce_for_testing(false);
  LossyChannel channel(platform_.clock());
  SessionClient client(&channel, NetEndpoint::kClient, ChaosSessionConfig());
  SessionServer server(&channel, NetEndpoint::kServer);
  verifier_.MakeChallenge();
  Result<Bytes> reply = client.Call(BytesOf("challenge"), [&](double deadline_ms) {
    server.ServePending(deadline_ms,
                        [&](const Bytes&) -> Result<Bytes> { return recorded_reply; });
  });
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(verifier_.CheckReply(reply.value()).status.code(), StatusCode::kReplayDetected);
}

}  // namespace
}  // namespace flicker
