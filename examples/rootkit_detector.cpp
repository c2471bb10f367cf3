// Remote rootkit detection (paper §6.1): a network administrator verifies a
// possibly-compromised host before admitting it to the corporate VPN.
//
// Build & run:  ./build/examples/rootkit_detector

#include <cstdio>
#include <memory>

#include "src/apps/rootkit_detector.h"

using namespace flicker;  // NOLINT: example brevity.

namespace {

void Report(const char* phase, const RootkitMonitor::QueryReport& report) {
  std::printf("%-38s attestation=%s kernel=%s latency=%.1f ms\n", phase,
              report.status.ok() ? "VALID" : "INVALID",
              report.kernel_clean ? "clean" : "TAMPERED", report.total_latency_ms);
}

}  // namespace

int main() {
  // The employee laptop: SVM machine + untrusted OS.
  FlickerPlatform laptop;

  // The administrator knows the detector PAL and the good kernel hash, and
  // trusts the Privacy CA that certified the laptop's AIK at enrollment.
  PalBinary detector = BuildPal(std::make_shared<RootkitDetectorPal>()).value();
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(laptop.tpm()->aik_public(), "employee-laptop-042");
  RootkitMonitor admin(&detector, laptop.kernel()->pristine_measurement(), ca.public_key(),
                       cert);
  LossyChannel vpn_link(laptop.clock());  // 12 hops, ~9.45 ms RTT (paper §7.1).

  // 1. Clean host admits.
  Report("clean host:", admin.Query(&laptop, &vpn_link));

  // 2. A rootkit hooks sys_open; the measured hash changes.
  (void)laptop.kernel()->InstallSyscallHook(5);
  Report("after syscall-table hook:", admin.Query(&laptop, &vpn_link));

  // 3. The attacker also patches kernel text to hide.
  (void)laptop.kernel()->PatchText(0x1f00, BytesOf("\xe9\xde\xad\xbe\xef"));
  Report("after text patch:", admin.Query(&laptop, &vpn_link));

  // 4. The compromised OS tries the strongest move: tamper with the
  // detector itself before launch. PCR 17 exposes it.
  laptop.flicker_module()->set_corrupt_slb_before_launch(true);
  Report("with tampered detector SLB:", admin.Query(&laptop, &vpn_link));
  laptop.flicker_module()->set_corrupt_slb_before_launch(false);

  // 5. Cleaned up, the host admits again.
  (void)laptop.kernel()->RestorePristine();
  Report("after reimaging:", admin.Query(&laptop, &vpn_link));
  return 0;
}
