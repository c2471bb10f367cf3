// Trustworthy distributed computing (paper §6.2): a BOINC-style client
// factors a number for a server inside Flicker sessions, checkpointing
// MAC-protected state between sessions so the OS can multitask. The server
// accepts the result on the strength of the attestation alone: a TPM quote
// over the final session's PCR 17, signed by an AIK a Privacy CA certified.
//
// Build & run:  ./build/examples/distributed_factoring

#include <cstdio>
#include <memory>
#include <vector>

#include "src/apps/distributed.h"
#include "src/common/serde.h"
#include "src/crypto/drbg.h"

using namespace flicker;  // NOLINT: example brevity.

namespace {

// The server's reply to an accepted submission: a u32 count, then the
// divisors as u64s.
std::vector<uint64_t> DecodeDivisors(const Bytes& reply) {
  Reader r(reply);
  uint32_t count = r.U32();
  std::vector<uint64_t> divisors;
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    divisors.push_back(r.U64());
  }
  return r.ok() && r.AtEnd() ? divisors : std::vector<uint64_t>();
}

}  // namespace

int main() {
  FlickerPlatform volunteer_machine;
  PalBuildOptions options;
  options.measurement_stub = true;
  PalBinary pal = BuildPal(std::make_shared<DistributedPal>(), options).value();

  BoincServer server;
  BoincClient client(&volunteer_machine, &pal);
  if (!client.Initialize().ok()) {
    std::printf("init failed\n");
    return 1;
  }
  std::printf("client initialized: 160-bit HMAC key generated from TPM randomness and "
              "sealed to the PAL\n");

  // The volunteer's AIK is certified once by a Privacy CA the server trusts.
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(volunteer_machine.tpm()->aik_public(), "volunteer");

  // The server hands out a work unit, find divisors of a composite, with a
  // fresh challenge the final session's quote must cover.
  FactorWorkUnit unit = server.CreateWorkUnit(823'573 * 1'000'003ULL);
  unit.search_limit = 1'100'000;  // ~6 s of simulated compute at 181/ms.
  Bytes nonce = Drbg(0xb01c).Generate(20);

  // Slice into ~2 s sessions so the user's machine stays responsive
  // (Table 4's second column).
  BoincClient::RunStats stats = client.Process(unit, /*slice_ms=*/2000, nonce);
  if (!stats.status.ok()) {
    std::printf("processing failed: %s\n", stats.status.ToString().c_str());
    return 1;
  }

  std::printf("work unit done in %d sessions, %.1f s simulated (%.1f s useful work, "
              "%.0f%% overhead)\n",
              stats.sessions, stats.total_ms / 1000.0, stats.work_ms / 1000.0,
              stats.overhead_ms / stats.total_ms * 100.0);
  std::printf("divisors found:");
  for (uint64_t d : stats.divisors) {
    std::printf(" %llu", static_cast<unsigned long long>(d));
  }
  std::printf("\n");

  Result<BoincClient::ResultSubmission> submission = client.SubmitResult(nonce);
  if (!submission.ok()) {
    std::printf("submission failed: %s\n", submission.status().ToString().c_str());
    return 1;
  }
  Bytes frame = submission.value().Serialize();
  std::printf("result submitted: %zu-byte frame (final session inputs/outputs + TPM quote "
              "over PCR 17)\n",
              frame.size());

  // No redundant re-execution: the server checks the quote and the PCR 17
  // chain it binds, then takes the divisors from the attested outputs.
  Result<Bytes> reply =
      server.HandleSubmissionFrame(pal, frame, cert, ca.public_key(), nonce);
  if (!reply.ok()) {
    std::printf("server rejected the result: %s\n", reply.status().ToString().c_str());
    return 1;
  }
  std::vector<uint64_t> accepted = DecodeDivisors(reply.value());
  bool match = accepted == stats.divisors;
  std::printf("server verified the attestation and accepted %zu divisors: %s\n",
              accepted.size(), match ? "they match the client's" : "MISMATCH");

  // A cheating client edits the result after the session: the final
  // outputs no longer hash to what the quoted PCR 17 chain recorded.
  BoincClient::ResultSubmission forged = submission.value();
  forged.final_outputs.back() ^= 0x01;
  Result<Bytes> forged_reply = server.HandleSubmissionFrame(pal, forged.Serialize(), cert,
                                                            ca.public_key(), nonce);
  std::printf("edited result: %s\n",
              forged_reply.ok() ? "ACCEPTED (attestation failed to bind the outputs)"
                                : "rejected, the attestation no longer matches");
  return match && !forged_reply.ok() ? 0 : 1;
}
