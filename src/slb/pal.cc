#include "src/slb/pal.h"

namespace flicker {

namespace {
constexpr size_t kOutputPageSize = 4096;
}  // namespace

PalContext::PalContext(Machine* machine, uint64_t slb_base, Bytes inputs,
                       bool os_protection_enabled, SegmentState pal_segment,
                       uint64_t deadline_micros)
    : machine_(machine),
      slb_base_(slb_base),
      inputs_(std::move(inputs)),
      os_protection_enabled_(os_protection_enabled),
      pal_segment_(pal_segment),
      deadline_micros_(deadline_micros) {}

bool PalContext::deadline_exceeded() const {
  return deadline_micros_ != 0 && machine_->clock()->NowMicros() > deadline_micros_;
}

Status PalContext::CheckDeadline() const {
  if (deadline_exceeded()) {
    return ResourceExhaustedError("PAL exceeded its execution budget (SLB-core timer fired)");
  }
  return Status::Ok();
}

Status PalContext::SetOutputs(const Bytes& outputs) {
  FLICKER_RETURN_IF_ERROR(CheckDeadline());
  if (outputs.size() > kOutputPageSize) {
    return ResourceExhaustedError("PAL outputs exceed the 4 KB output page");
  }
  outputs_ = outputs;
  return Status::Ok();
}

Result<Bytes> PalContext::ReadMemory(uint64_t addr, size_t len) {
  FLICKER_RETURN_IF_ERROR(CheckDeadline());
  if (os_protection_enabled_ && !pal_segment_.Contains(addr, len)) {
    ++fault_count_;
    return PermissionDeniedError("PAL memory read outside its segment (ring-3 fault)");
  }
  return machine_->memory()->Read(addr, len);
}

void PalContext::ChargeSha1(size_t bytes) {
  machine_->clock()->AdvanceMillis(machine_->timing().Sha1Millis(bytes));
}

void PalContext::ChargeRsaKeygen1024() {
  machine_->clock()->AdvanceMillis(machine_->timing().cpu.rsa1024_keygen_ms);
}

void PalContext::ChargeRsaDecrypt1024() {
  machine_->clock()->AdvanceMillis(machine_->timing().cpu.rsa1024_decrypt_ms);
}

void PalContext::ChargeRsaSign1024() {
  machine_->clock()->AdvanceMillis(machine_->timing().cpu.rsa1024_sign_ms);
}

void PalContext::ChargeMd5Crypt() {
  machine_->clock()->AdvanceMillis(machine_->timing().cpu.md5crypt_ms);
}

void PalContext::ChargeDivisorTests(uint64_t count) {
  machine_->clock()->AdvanceMillis(static_cast<double>(count) /
                                   machine_->timing().cpu.divisor_tests_per_ms);
}

}  // namespace flicker
