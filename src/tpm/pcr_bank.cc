#include "src/tpm/pcr_bank.h"

#include "src/crypto/sha1.h"

namespace flicker {

void PcrBank::PowerCycleReset() {
  for (int i = 0; i < kNumPcrs; ++i) {
    if (IsDynamic(i)) {
      values_[i] = Bytes(kPcrSize, 0xff);
    } else {
      values_[i] = Bytes(kPcrSize, 0x00);
    }
  }
}

void PcrBank::DynamicReset() {
  for (int i = kFirstDynamicPcr; i < kNumPcrs; ++i) {
    values_[i] = Bytes(kPcrSize, 0x00);
  }
}

Status PcrBank::Extend(int index, const Bytes& measurement) {
  if (!ValidIndex(index)) {
    return InvalidArgumentError("PCR index out of range");
  }
  if (measurement.size() != kPcrSize) {
    return InvalidArgumentError("PCR extend value must be 20 bytes");
  }
  values_[index] = Sha1::Digest(Concat(values_[index], measurement));
  return Status::Ok();
}

Result<Bytes> PcrBank::Read(int index) const {
  if (!ValidIndex(index)) {
    return InvalidArgumentError("PCR index out of range");
  }
  return values_[index];
}

Result<Bytes> PcrBank::ComputeComposite(const PcrSelection& selection) const {
  if (selection.Empty()) {
    return InvalidArgumentError("PCR selection must not be empty");
  }
  Bytes buffer = selection.Serialize();
  Bytes values;
  for (int index : selection.Indices()) {
    values.insert(values.end(), values_[index].begin(), values_[index].end());
  }
  PutUint32(&buffer, static_cast<uint32_t>(values.size()));
  buffer.insert(buffer.end(), values.begin(), values.end());
  return Sha1::Digest(buffer);
}

Bytes ExpectedPcr17AfterSkinit(const Bytes& slb_measurement) {
  Bytes zeros(kPcrSize, 0x00);
  return Sha1::Digest(Concat(zeros, slb_measurement));
}

}  // namespace flicker
