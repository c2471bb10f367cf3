// Figure 9 reproduction: SSH password-authentication overhead - the
// server-side breakdown of both PALs plus the client-perceived latencies
// quoted in §7.4.1.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/ssh.h"
#include "src/common/serde.h"
#include "src/core/remote_attestation.h"

namespace flicker {
namespace {

void RunProfile(const char* name, const TimingModel& timing) {
  FlickerPlatformConfig config;
  config.machine.timing = timing;
  FlickerPlatform platform(config);
  PalBuildOptions options;
  options.measurement_stub = true;
  PalBinary binary = BuildPal(std::make_shared<SshPal>(), options).value();

  SshServer server(&platform, &binary);
  if (!server.AddUser("alice", "correct horse", "a1b2c3d4").ok()) {
    return;
  }
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(platform.tpm()->aik_public(), "ssh-server");
  SshClient client(&binary, ca.public_key(), cert);
  LossyChannel channel(platform.clock());
  // Carries one frame to the peer; the clock advances by its wire latency.
  auto carry = [&channel](NetEndpoint from, const Bytes& frame) {
    channel.Send(from, frame);
    Bytes arrived;
    channel.Receive(from == NetEndpoint::kClient ? NetEndpoint::kServer : NetEndpoint::kClient,
                    &arrived);
    return arrived;
  };

  // ---- PAL 1 (setup) + attestation: the password-prompt latency ----
  double prompt_t0 = platform.clock()->NowMillis();
  Bytes setup_nonce = client.MakeNonce();
  Result<SshServer::SetupResult> setup =
      server.Setup(carry(NetEndpoint::kClient, setup_nonce));  // Challenge to the server.
  if (!setup.ok()) {
    std::printf("setup failed: %s\n", setup.status().ToString().c_str());
    return;
  }
  // Key material + attestation back to the client.
  Writer setup_frame;
  setup_frame.Blob(setup.value().setup_outputs);
  setup_frame.Blob(SerializeAttestationResponse(setup.value().attestation));
  Bytes setup_wire = carry(NetEndpoint::kServer, setup_frame.Take());
  Reader setup_reader(setup_wire);
  SshServer::SetupResult received;
  received.setup_outputs = setup_reader.Blob();
  Result<AttestationResponse> attestation = DeserializeAttestationResponse(setup_reader.Blob());
  if (!attestation.ok()) {
    std::printf("setup frame corrupt: %s\n", attestation.status().ToString().c_str());
    return;
  }
  received.attestation = attestation.take();
  if (!client.VerifyServerSetup(received, setup_nonce).ok()) {
    std::printf("client rejected setup attestation\n");
    return;
  }
  double prompt_latency = platform.clock()->NowMillis() - prompt_t0;

  // ---- PAL 2 (login): the post-password latency ----
  Bytes login_nonce = carry(NetEndpoint::kServer, client.MakeNonce());  // Nonce to the client.
  Result<Bytes> ciphertext = client.EncryptPassword("correct horse", login_nonce);
  if (!ciphertext.ok()) {
    return;
  }
  Bytes ciphertext_wire = carry(NetEndpoint::kClient, ciphertext.value());  // To the server.
  double login_t0 = platform.clock()->NowMillis();
  Result<SshServer::LoginResult> login =
      server.HandleLogin("alice", ciphertext_wire, login_nonce);
  double login_latency = platform.clock()->NowMillis() - login_t0;
  if (!login.ok() || !login.value().authenticated) {
    std::printf("login failed\n");
    return;
  }

  PrintHeader(std::string("Figure 9a: SSH PAL 1 (setup) [") + name + "]");
  PrintCompareHeader();
  PrintCompareRow("SKINIT", 14.3, setup.value().skinit_ms, "ms");
  PrintCompareRow("Key Gen (RSA-1024)", 185.7, timing.cpu.rsa1024_keygen_ms, "ms");
  PrintCompareRow("Seal", 10.2, timing.tpm.seal_ms, "ms");
  PrintCompareRow("Total PAL 1", 217.1, setup.value().pal1_total_ms, "ms");

  PrintHeader(std::string("Figure 9b: SSH PAL 2 (login) [") + name + "]");
  PrintCompareHeader();
  PrintCompareRow("SKINIT", 14.3, login.value().skinit_ms, "ms");
  PrintCompareRow("Unseal", 905.4, timing.tpm.unseal_ms, "ms");
  PrintCompareRow("Decrypt (RSA-1024)", 4.6, timing.cpu.rsa1024_decrypt_ms, "ms");
  PrintCompareRow("Total PAL 2", 937.6, login.value().pal2_total_ms, "ms");

  PrintHeader(std::string("Sec 7.4.1: client-perceived latency [") + name + "]");
  PrintCompareHeader();
  PrintCompareRow("TCP connect -> password prompt", 1221.0, prompt_latency, "ms");
  PrintCompareRow("  (unmodified server)", 210.0, 210.0, "ms");
  PrintCompareRow("password entry -> session", 940.0, login_latency, "ms");
  PrintCompareRow("  (unmodified server)", 10.0, 10.0, "ms");
  std::printf("(the prompt latency includes PAL 1 plus the %s quote of %.0f ms)\n",
              timing.tpm.name.c_str(), timing.tpm.quote_ms);
}

}  // namespace
}  // namespace flicker

int main() {
  flicker::RunProfile("Broadcom BCM0102", flicker::DefaultTimingModel());
  flicker::RunProfile("Infineon", flicker::InfineonTimingModel());
  return 0;
}
