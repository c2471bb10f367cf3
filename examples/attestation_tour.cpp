// Attestation tour: the wire-level challenge/response protocol (§4.4.1)
// against a Flicker platform, contrasted with the trusted-boot baseline
// (§2.1/§8) on the same machine.
//
// Build & run:  ./build/examples/attestation_tour

#include <cstdio>
#include <memory>
#include <set>

#include "src/apps/hello.h"
#include "src/attest/ima.h"
#include "src/core/remote_attestation.h"
#include "src/crypto/sha1.h"

using namespace flicker;  // NOLINT: example brevity.

int main() {
  FlickerPlatform platform;
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(platform.tpm()->aik_public(), "demo-host");

  // ---- Flicker: one PAL, one log entry, decisive verdict ----
  PalBinary binary = BuildPal(std::make_shared<HelloWorldPal>()).value();
  AttestationService host(&platform, cert);
  AttestationVerifier verifier(&binary, ca.public_key());
  LossyChannel network(platform.clock());

  // The challenge and the reply cross the wire as byte strings.
  network.Send(NetEndpoint::kClient, verifier.MakeChallenge());
  Bytes challenge;
  network.Receive(NetEndpoint::kServer, &challenge);
  Result<Bytes> reply = host.HandleChallenge(challenge, binary, BytesOf("demo input"));
  if (!reply.ok()) {
    std::printf("host failed: %s\n", reply.status().ToString().c_str());
    return 1;
  }
  network.Send(NetEndpoint::kServer, reply.value());
  Bytes reply_wire;
  network.Receive(NetEndpoint::kClient, &reply_wire);
  AttestationVerifier::Outcome outcome = verifier.CheckReply(reply_wire);
  std::printf("Flicker attestation: %s\n", outcome.status.ToString().c_str());
  std::printf("  session facts now trustworthy: PAL '%s' on %zu input bytes produced \"%s\"\n",
              outcome.log.pal_name.c_str(), outcome.log.inputs.size(),
              std::string(outcome.log.outputs.begin(), outcome.log.outputs.end()).c_str());

  // A man-in-the-middle doctors the reply; the quote exposes it.
  Bytes challenge2 = verifier.MakeChallenge();
  Result<Bytes> reply2 = host.HandleChallenge(challenge2, binary, BytesOf("demo input"));
  AttestationReply doctored = AttestationReply::Deserialize(reply2.value()).take();
  doctored.log.outputs = BytesOf("doctored output");
  std::printf("with doctored outputs:  %s\n",
              verifier.CheckReply(doctored.Serialize()).status.ToString().c_str());

  // ---- Trusted boot on the same machine: the coarse alternative ----
  ImaSystem ima(platform.machine());
  std::set<std::string> known_good;
  for (const char* component : {"bios", "bootloader", "kernel", "sshd", "apache"}) {
    Bytes content = BytesOf(std::string("v1-") + component);
    (void)ima.MeasureEvent(component, content);
    known_good.insert(ToHex(Sha1::Digest(content)));
  }
  (void)ima.MeasureEvent("locally-built-tool", BytesOf("unknown to verifier"));

  Bytes nonce = Sha1::Digest(BytesOf("ima nonce"));
  ImaVerdict verdict = VerifyImaAttestation(ima.Attest(nonce).value(),
                                            platform.tpm()->aik_public(), known_good, nonce);
  std::printf("\ntrusted-boot attestation over the same machine:\n");
  std::printf("  %zu log entries, %zu unknown (%s) -> platform %s\n", verdict.entries_total,
              verdict.entries_unknown,
              verdict.unknown_entries.empty() ? "-" : verdict.unknown_entries[0].c_str(),
              verdict.Trustworthy() ? "trusted" : "UNDECIDABLE");
  std::printf("  (one unrecognized component spoils the verdict and the whole software\n"
              "   inventory leaked; Flicker attested one PAL and leaked nothing else)\n");
  return outcome.status.ok() ? 0 : 1;
}
