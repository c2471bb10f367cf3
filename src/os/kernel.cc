#include "src/os/kernel.h"

#include <map>
#include <mutex>
#include <utility>

#include "src/crypto/drbg.h"
#include "src/crypto/sha1.h"

namespace flicker {

namespace {

// The synthetic kernel image is a pure function of the content seed and the
// region layout, and a fleet builds the same image on every machine (and
// again on every RestorePristine). Generate each distinct image once per
// process: the region bytes, drawn from one DRBG in measurement order, and
// their SHA-1.
struct KernelImage {
  std::vector<Bytes> region_bytes;
  Bytes measurement;
  // Overlapping regions make memory disagree with the concatenated bytes, so
  // `measurement` is only the pristine digest when they are disjoint.
  bool disjoint = true;
};

const KernelImage& GetKernelImage(uint64_t content_seed,
                                  const std::vector<KernelRegion>& regions) {
  using Layout = std::vector<std::pair<uint64_t, size_t>>;
  static std::mutex mutex;
  static std::map<std::pair<uint64_t, Layout>, KernelImage>* cache =
      new std::map<std::pair<uint64_t, Layout>, KernelImage>();
  Layout layout;
  for (const KernelRegion& region : regions) {
    layout.emplace_back(region.base, region.size);
  }
  std::lock_guard<std::mutex> lock(mutex);
  auto key = std::make_pair(content_seed, std::move(layout));
  auto it = cache->find(key);
  if (it == cache->end()) {
    Drbg content(content_seed);
    Sha1 hash;
    KernelImage image;
    for (size_t i = 0; i < regions.size(); ++i) {
      image.region_bytes.push_back(content.Generate(regions[i].size));
      hash.Update(image.region_bytes.back());
      for (size_t j = 0; j < i; ++j) {
        if (regions[i].base < regions[j].base + regions[j].size &&
            regions[j].base < regions[i].base + regions[i].size) {
          image.disjoint = false;
        }
      }
    }
    image.measurement = hash.Finish();
    it = cache->emplace(std::move(key), std::move(image)).first;
  }
  return it->second;
}

}  // namespace

OsKernel::OsKernel(Machine* machine, const KernelConfig& config)
    : machine_(machine), config_(config) {
  regions_.push_back(KernelRegion{"text", config.text_base, config.text_size});
  regions_.push_back(
      KernelRegion{"syscall_table", config.syscall_table_base, config.syscall_table_size});
  uint64_t module_addr = config.modules_base;
  for (const auto& [name, size] : config.modules) {
    regions_.push_back(KernelRegion{"module:" + name, module_addr, size});
    module_addr += size;
  }

  // Config addresses are within the machine by construction; a region that
  // is not simply drops out of the measurement, as CurrentMeasurement reads.
  const KernelImage& image = GetKernelImage(config_.content_seed, regions_);
  bool all_written = true;
  for (size_t i = 0; i < regions_.size(); ++i) {
    all_written &= machine_->memory()->Write(regions_[i].base, image.region_bytes[i]).ok();
  }
  pristine_measurement_ =
      all_written && image.disjoint ? image.measurement : CurrentMeasurement();
  machine_->bsp()->cr3 = cr3_;
}

std::vector<KernelRegion> OsKernel::MeasuredRegions() const {
  return regions_;
}

Bytes OsKernel::SerializeRegions() const {
  Bytes out;
  PutUint32(&out, static_cast<uint32_t>(regions_.size()));
  for (const KernelRegion& region : regions_) {
    PutUint32(&out, static_cast<uint32_t>(region.name.size()));
    Bytes name = BytesOf(region.name);
    out.insert(out.end(), name.begin(), name.end());
    PutUint64(&out, region.base);
    PutUint64(&out, region.size);
  }
  return out;
}

Result<std::vector<KernelRegion>> OsKernel::DeserializeRegions(const Bytes& data) {
  std::vector<KernelRegion> regions;
  size_t pos = 0;
  if (data.size() < 4) {
    return InvalidArgumentError("region list truncated");
  }
  uint32_t count = GetUint32(data, pos);
  pos += 4;
  for (uint32_t i = 0; i < count; ++i) {
    if (pos + 4 > data.size()) {
      return InvalidArgumentError("region list truncated");
    }
    uint32_t name_len = GetUint32(data, pos);
    pos += 4;
    if (pos + name_len + 16 > data.size()) {
      return InvalidArgumentError("region list truncated");
    }
    KernelRegion region;
    region.name.assign(data.begin() + static_cast<long>(pos),
                       data.begin() + static_cast<long>(pos + name_len));
    pos += name_len;
    region.base = GetUint64(data, pos);
    pos += 8;
    region.size = GetUint64(data, pos);
    pos += 8;
    regions.push_back(std::move(region));
  }
  return regions;
}

Bytes OsKernel::CurrentMeasurement() const {
  Sha1 hash;
  for (const KernelRegion& region : regions_) {
    Result<Bytes> bytes = machine_->memory()->Read(region.base, region.size);
    if (bytes.ok()) {
      hash.Update(bytes.value());
    }
  }
  return hash.Finish();
}

Status OsKernel::InstallSyscallHook(size_t entry_index) {
  if (entry_index * 8 + 8 > config_.syscall_table_size) {
    return InvalidArgumentError("syscall index out of range");
  }
  // Point the entry at attacker-controlled memory.
  Bytes hook;
  PutUint64(&hook, 0xdeadbeefcafebabeULL);
  FLICKER_RETURN_IF_ERROR(
      machine_->memory()->Write(config_.syscall_table_base + entry_index * 8, hook));
  tampered_ = true;
  return Status::Ok();
}

Status OsKernel::PatchText(uint64_t offset, const Bytes& patch) {
  if (offset + patch.size() > config_.text_size) {
    return InvalidArgumentError("text patch out of range");
  }
  FLICKER_RETURN_IF_ERROR(machine_->memory()->Write(config_.text_base + offset, patch));
  tampered_ = true;
  return Status::Ok();
}

Status OsKernel::RestorePristine() {
  const KernelImage& image = GetKernelImage(config_.content_seed, regions_);
  for (size_t i = 0; i < regions_.size(); ++i) {
    FLICKER_RETURN_IF_ERROR(machine_->memory()->Write(regions_[i].base, image.region_bytes[i]));
  }
  tampered_ = false;
  return Status::Ok();
}

}  // namespace flicker
