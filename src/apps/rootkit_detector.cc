#include "src/apps/rootkit_detector.h"

#include "src/core/remote_attestation.h"
#include "src/crypto/sha1.h"
#include "src/os/kernel.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {

Status RootkitDetectorPal::Execute(PalContext* context) {
  Result<std::vector<KernelRegion>> regions = OsKernel::DeserializeRegions(context->inputs());
  if (!regions.ok()) {
    return regions.status();
  }

  Sha1 hash;
  for (const KernelRegion& region : regions.value()) {
    Result<Bytes> bytes = context->ReadMemory(region.base, region.size);
    if (!bytes.ok()) {
      return bytes.status();
    }
    hash.Update(bytes.value());
    context->ChargeSha1(region.size);
  }
  Bytes measurement = hash.Finish();

  // Extend the result into PCR 17 so the quote covers it even if the OS
  // tampers with the output buffer afterwards (§6.1).
  FLICKER_RETURN_IF_ERROR(context->tpm()->PcrExtend(kSkinitPcr, measurement));
  return context->SetOutputs(measurement);
}

RootkitMonitor::RootkitMonitor(const PalBinary* binary, Bytes known_good_measurement,
                               const RsaPublicKey& privacy_ca_public,
                               AikCertificate host_aik_cert, uint64_t nonce_seed)
    : binary_(binary),
      known_good_(std::move(known_good_measurement)),
      privacy_ca_public_(privacy_ca_public),
      host_aik_cert_(std::move(host_aik_cert)),
      nonce_rng_(nonce_seed) {}

RootkitMonitor::QueryReport RootkitMonitor::Query(FlickerPlatform* platform,
                                                  LossyChannel* channel) {
  QueryReport report;
  SimStopwatch total(platform->clock());

  // Challenge: nonce travels to the host.
  Bytes nonce = nonce_rng_.Generate(kPcrSize);
  Bytes inputs = platform->kernel()->SerializeRegions();
  channel->Send(NetEndpoint::kClient, nonce);
  Bytes host_nonce;
  if (!channel->Receive(NetEndpoint::kServer, &host_nonce)) {
    report.status = UnavailableError("challenge lost on the wire");
    return report;
  }

  // Host: run the detector PAL under Flicker.
  SlbCoreOptions options;
  options.nonce = host_nonce;
  Result<FlickerSessionResult> session = platform->ExecuteSession(*binary_, inputs, options);
  if (!session.ok()) {
    report.status = session.status();
    return report;
  }
  report.skinit_ms = session.value().skinit_ms;
  report.session_ms = session.value().session_total_ms;
  report.reported_measurement = session.value().outputs();

  // Host: quote daemon signs the PCR state.
  SimStopwatch quote_watch(platform->clock());
  Result<AttestationResponse> response =
      platform->tqd()->HandleChallenge(host_nonce, PcrSelection({kSkinitPcr}));
  report.quote_ms = quote_watch.ElapsedMillis();
  if (!response.ok()) {
    report.status = response.status();
    return report;
  }

  // Response travels back; administrator verifies.
  channel->Send(NetEndpoint::kServer, SerializeAttestationResponse(response.value()));
  Bytes response_wire;
  if (!channel->Receive(NetEndpoint::kClient, &response_wire)) {
    report.status = UnavailableError("attestation lost on the wire");
    return report;
  }
  Result<AttestationResponse> received = DeserializeAttestationResponse(response_wire);
  if (!received.ok()) {
    report.status = received.status();
    return report;
  }
  SessionExpectation expectation;
  expectation.binary = binary_;
  expectation.inputs = inputs;
  expectation.outputs = report.reported_measurement;
  expectation.nonce = nonce;
  expectation.pal_extends = {report.reported_measurement};
  report.status = VerifyAttestation(expectation, received.value(), host_aik_cert_,
                                    privacy_ca_public_, nonce);
  report.kernel_clean = report.status.ok() &&
                        ConstantTimeEquals(report.reported_measurement, known_good_);
  report.total_latency_ms = total.ElapsedMillis();
  return report;
}

}  // namespace flicker
