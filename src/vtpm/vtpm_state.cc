#include "src/vtpm/vtpm_state.h"

#include "src/common/serde.h"
#include "src/crypto/sha1.h"

namespace flicker {
namespace vtpm {

namespace {

constexpr uint32_t kBindingMagic = 0x56434231;  // "VCB1"
constexpr uint32_t kStateMagic = 0x56545332;    // "VTS2"

uint32_t Fnv1a32(const Bytes& data, size_t len) {
  uint32_t hash = 0x811C9DC5u;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 0x01000193u;
  }
  return hash;
}

// Appends the checksum over everything written so far.
Bytes SealChecksum(Bytes body) {
  uint32_t crc = Fnv1a32(body, body.size());
  PutUint32(&body, crc);
  return body;
}

// Verifies the trailing checksum and copies out the body it covers.
bool CheckAndStripChecksum(const Bytes& wire, Bytes* body) {
  if (wire.size() < 4) {
    return false;
  }
  size_t body_len = wire.size() - 4;
  if (GetUint32(wire, body_len) != Fnv1a32(wire, body_len)) {
    return false;
  }
  body->assign(wire.begin(), wire.begin() + static_cast<long>(body_len));
  return true;
}

}  // namespace

Bytes TenantTag(const std::string& tenant) { return Sha1::Digest(BytesOf(tenant)); }

Bytes VtpmCounterBinding::Serialize() const {
  Writer w;
  w.U32(kBindingMagic);
  w.U32(counter_id);
  w.U64(counter_value);
  w.Blob(tenant_tag);
  return SealChecksum(w.Take());
}

Result<VtpmCounterBinding> VtpmCounterBinding::Deserialize(const Bytes& wire) {
  Bytes body;
  if (!CheckAndStripChecksum(wire, &body)) {
    return InvalidArgumentError("counter binding: bad length or checksum");
  }
  Reader r(body);
  if (r.U32() != kBindingMagic) {
    return InvalidArgumentError("counter binding: bad magic");
  }
  VtpmCounterBinding binding;
  binding.counter_id = r.U32();
  binding.counter_value = r.U64();
  binding.tenant_tag = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("counter binding: truncated or trailing bytes");
  }
  if (binding.tenant_tag.size() != kVtpmDigestSize) {
    return InvalidArgumentError("counter binding: tenant tag must be 20 bytes");
  }
  return binding;
}

VtpmState VtpmState::Fresh(const std::string& tenant, const Bytes& owner_auth) {
  VtpmState state;
  state.tenant = tenant;
  state.owner_auth = owner_auth;
  for (Bytes& pcr : state.pcrs) {
    pcr.assign(kVtpmDigestSize, 0x00);
  }
  state.binding.tenant_tag = TenantTag(tenant);
  return state;
}

Bytes VtpmState::Serialize() const {
  Writer w;
  w.U32(kStateMagic);
  w.Str(tenant);
  w.U64(generation);
  w.Blob(owner_auth);
  for (const Bytes& pcr : pcrs) {
    w.Blob(pcr);
  }
  w.Blob(binding.Serialize());
  w.U64(extends);
  return SealChecksum(w.Take());
}

Result<VtpmState> VtpmState::Deserialize(const Bytes& wire) {
  Bytes body;
  if (!CheckAndStripChecksum(wire, &body)) {
    return InvalidArgumentError("vTPM state: bad length or checksum");
  }
  Reader r(body);
  if (r.U32() != kStateMagic) {
    return InvalidArgumentError("vTPM state: bad magic");
  }
  VtpmState state;
  state.tenant = r.Str();
  state.generation = r.U64();
  state.owner_auth = r.Blob();
  for (Bytes& pcr : state.pcrs) {
    pcr = r.Blob();
  }
  Bytes binding_wire = r.Blob();
  state.extends = r.U64();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("vTPM state: truncated or trailing bytes");
  }
  if (state.tenant.empty() || state.tenant.size() > kMaxTenantNameLen) {
    return InvalidArgumentError("vTPM state: tenant name empty or too long");
  }
  if (state.owner_auth.size() != kVtpmDigestSize) {
    return InvalidArgumentError("vTPM state: owner auth must be 20 bytes");
  }
  for (const Bytes& pcr : state.pcrs) {
    if (pcr.size() != kVtpmDigestSize) {
      return InvalidArgumentError("vTPM state: vPCR values must be 20 bytes");
    }
  }
  Result<VtpmCounterBinding> binding = VtpmCounterBinding::Deserialize(binding_wire);
  if (!binding.ok()) {
    return binding.status();
  }
  state.binding = binding.take();
  if (state.binding.tenant_tag != TenantTag(state.tenant)) {
    return InvalidArgumentError("vTPM state: counter binding names a different tenant");
  }
  return state;
}

}  // namespace vtpm
}  // namespace flicker
