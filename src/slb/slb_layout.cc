#include "src/slb/slb_layout.h"

#include <algorithm>
#include <set>

#include "src/crypto/drbg.h"
#include "src/crypto/sha1.h"
#include "src/hw/machine.h"

namespace flicker {

namespace {

// Deterministic synthetic bytes standing in for the PAL's compiled
// application code. Identity covers name, version and declared size, so a
// logic change that bumps code_version() changes the measurement - the same
// property a recompiled binary has.
Bytes SyntheticAppCode(const Pal& pal) {
  Drbg rng(BytesOf("flicker-app-code:" + pal.name() + ":" + pal.code_version()));
  return rng.Generate(pal.app_code_bytes());
}

Bytes SyntheticStubCode(size_t size) {
  Drbg rng(BytesOf("flicker-measurement-stub:v1"));
  return rng.Generate(size);
}

void PutU16Le(Bytes* image, size_t offset, uint16_t v) {
  (*image)[offset] = static_cast<uint8_t>(v);
  (*image)[offset + 1] = static_cast<uint8_t>(v >> 8);
}

void PutU32Le(Bytes* image, size_t offset, uint32_t v) {
  (*image)[offset] = static_cast<uint8_t>(v);
  (*image)[offset + 1] = static_cast<uint8_t>(v >> 8);
  (*image)[offset + 2] = static_cast<uint8_t>(v >> 16);
  (*image)[offset + 3] = static_cast<uint8_t>(v >> 24);
}

}  // namespace

Result<PalBinary> BuildPal(std::shared_ptr<Pal> pal, const PalBuildOptions& options) {
  ModuleRegistry registry;

  // Resolve the module set: SLB Core always, OS Protection when requested,
  // plus whatever the PAL asks for.
  std::vector<const PalModule*> linked;
  std::set<std::string> linked_names;
  auto link = [&](const std::string& name) -> Status {
    if (linked_names.count(name) != 0) {
      return Status::Ok();
    }
    Result<const PalModule*> module = registry.Find(name);
    if (!module.ok()) {
      return module.status();
    }
    linked.push_back(module.value());
    linked_names.insert(name);
    return Status::Ok();
  };
  FLICKER_RETURN_IF_ERROR(link(kModuleSlbCore));
  if (options.os_protection) {
    FLICKER_RETURN_IF_ERROR(link(kModuleOsProtection));
  }
  for (const std::string& name : pal->required_modules()) {
    FLICKER_RETURN_IF_ERROR(link(name));
  }

  // The extraction-tool check (§5.2): every referenced symbol must come from
  // a linked module. "printf" never resolves; "malloc" resolves only with
  // the Memory Management module.
  std::set<std::string> exported;
  for (const PalModule* module : linked) {
    exported.insert(module->exported_symbols.begin(), module->exported_symbols.end());
  }
  for (const std::string& symbol : pal->required_symbols()) {
    if (exported.count(symbol) == 0) {
      return NotFoundError("PAL '" + pal->name() + "' references symbol '" + symbol +
                           "' not exported by any linked module");
    }
  }

  // Assemble the code region: modules in link order, then app code.
  Bytes code;
  for (const PalModule* module : linked) {
    Bytes module_code = ModuleRegistry::SyntheticCode(*module);
    code.insert(code.end(), module_code.begin(), module_code.end());
  }
  Bytes app_code = SyntheticAppCode(*pal);
  code.insert(code.end(), app_code.begin(), app_code.end());

  PalBinary binary;
  binary.pal = std::move(pal);
  binary.options = options;
  binary.image.assign(kSlbRegionSize, 0);

  size_t code_offset = kSlbCodeOffset;
  size_t measured_end;
  if (options.measurement_stub) {
    // The stub occupies the measured prefix; the real core+PAL code follows
    // it inside the (unmeasured-by-SKINIT) remainder of the 64 KB region.
    if (kMeasurementStubSize < kSlbCodeOffset) {
      return InternalError("stub smaller than fixed headers");
    }
    Bytes stub = SyntheticStubCode(kMeasurementStubSize - kSlbCodeOffset);
    std::copy(stub.begin(), stub.end(), binary.image.begin() + static_cast<long>(kSlbCodeOffset));
    code_offset = kMeasurementStubSize;
    measured_end = kMeasurementStubSize;
  } else {
    measured_end = kSlbCodeOffset + code.size();
  }

  if (code_offset + code.size() > kSlbMaxMeasuredSize) {
    return ResourceExhaustedError("PAL too large: code ends beyond the 60 KB limit");
  }
  std::copy(code.begin(), code.end(), binary.image.begin() + static_cast<long>(code_offset));

  binary.measured_length = static_cast<uint16_t>(measured_end);
  binary.entry_point = static_cast<uint16_t>(kSlbCodeOffset);
  PutU16Le(&binary.image, 0, binary.measured_length);
  PutU16Le(&binary.image, 2, binary.entry_point);

  // TCB accounting (Fig. 6): linked modules + app code.
  for (const PalModule* module : linked) {
    binary.tcb.total_lines += module->lines_of_code;
    binary.tcb.total_bytes += module->binary_bytes;
    binary.tcb.linked_modules.push_back(module->name);
  }
  binary.tcb.total_lines += binary.pal->app_lines_of_code();
  binary.tcb.total_bytes += binary.pal->app_code_bytes();

  // Precompute the measurements a verifier expects, for the canonical load
  // address.
  Bytes patched = binary.image;
  PatchSlbImage(&patched, kSlbFixedBase);
  binary.skinit_measurement = MeasureSlbPrefix(patched, binary.measured_length);
  if (options.measurement_stub) {
    binary.stub_body_measurement = Sha1::Digest(patched);
  }
  return binary;
}

void PatchSlbImage(Bytes* image, uint64_t slb_base) {
  uint32_t base = static_cast<uint32_t>(slb_base);
  // Descriptors 1..3 (code, data, stack): base field at entry offset + 2.
  for (size_t entry = 1; entry <= 3; ++entry) {
    PutU32Le(image, kSlbGdtOffset + entry * 8 + 2, base);
  }
  // Descriptor 4: call gate target (flat resume segment) - keep base 0.
  // TSS: esp0/cr3-equivalents; stamp the base at its head.
  PutU32Le(image, kSlbTssOffset + 4, base);
}

Bytes MeasureSlbPrefix(const Bytes& patched_image, uint16_t measured_length) {
  size_t len = std::min<size_t>(measured_length, patched_image.size());
  return Sha1::Digest(patched_image.data(), len);
}

}  // namespace flicker
