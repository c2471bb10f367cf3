#include "src/tpm/tpm.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>

#include "src/common/fault.h"
#include "src/crypto/aes.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha1.h"

namespace flicker {

namespace {

constexpr char kSealMagic[] = "TPM-SEAL-v1";
constexpr char kQuoteFixed[] = "QUOT";  // TPM_QUOTE_INFO fixed tag.

// RSA key generation at 2048 bits costs a few hundred host-milliseconds, and
// the test suite builds many TPMs with identical seeds. Manufacture-time key
// derivation is deterministic in (seed, bits), so memoize it.
struct ManufacturedKeys {
  RsaPrivateKey srk;
  RsaPrivateKey aik;
};

const ManufacturedKeys& GetManufacturedKeys(uint64_t seed, size_t bits) {
  static std::mutex mutex;
  static std::map<std::pair<uint64_t, size_t>, ManufacturedKeys>* cache =
      new std::map<std::pair<uint64_t, size_t>, ManufacturedKeys>();
  std::lock_guard<std::mutex> lock(mutex);
  auto key = std::make_pair(seed, bits);
  auto it = cache->find(key);
  if (it == cache->end()) {
    Drbg keygen_rng(seed);
    ManufacturedKeys keys;
    keys.srk = RsaGenerateKey(bits, &keygen_rng);
    keys.aik = RsaGenerateKey(bits, &keygen_rng);
    it = cache->emplace(key, std::move(keys)).first;
  }
  return it->second;
}

// TPM_QUOTE_INFO: fixed tag || composite || external nonce.
Bytes QuoteInfoDigestInput(const Bytes& composite, const Bytes& nonce) {
  Bytes info = BytesOf(kQuoteFixed);
  info.insert(info.end(), composite.begin(), composite.end());
  info.insert(info.end(), nonce.begin(), nonce.end());
  return info;
}

}  // namespace

Tpm::Tpm(SimClock* clock, TpmTimingProfile profile, TpmConfig config)
    : clock_(clock),
      profile_(std::move(profile)),
      hardware_(this),
      rng_(config.manufacture_seed ^ 0x54504d21ULL),  // "TPM!"
      srk_usage_auth_(WellKnownSecret()) {
  const ManufacturedKeys& keys = GetManufacturedKeys(config.manufacture_seed, config.key_bits);
  srk_ = keys.srk;
  aik_ = keys.aik;
}

// ---- Lifecycle ----

uint32_t Tpm::JournalCrc(const JournalEntry& entry) {
  // CRC-32 (reflected polynomial) over every field but the checksum itself.
  // A record whose stored crc disagrees was torn mid-write.
  Bytes encoded;
  encoded.push_back(static_cast<uint8_t>(entry.kind));
  encoded.push_back(entry.committed ? 1 : 0);
  PutUint32(&encoded, entry.index);
  PutUint64(&encoded, entry.counter_value);
  encoded.insert(encoded.end(), entry.data.begin(), entry.data.end());

  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : encoded) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

void Tpm::ReplayJournal(TpmStartupReport* report) {
  if (!journal_.has_value()) {
    return;
  }
  // Replay itself is a durability boundary: a second power cut striking here
  // leaves the journal record in place, and the next Startup replays it to
  // the same state (discard and roll-forward are both idempotent).
  CRASH_POINT("tpm.journal.replay");
  const JournalEntry& entry = *journal_;
  if (entry.crc != JournalCrc(entry) || !entry.committed) {
    // Torn record (checksum mismatch) or crash before the commit mark: the
    // mutation never happened as far as the caller knows, and the payload
    // area was untouched, so discarding is the correct roll-back.
    journal_.reset();
    report->journal_discarded = true;
    return;
  }
  // Committed: roll forward. Re-applying is idempotent, so a crash that
  // struck between commit and apply (or mid-apply, leaving a half-written
  // payload) converges to the same state.
  switch (entry.kind) {
    case JournalEntry::Kind::kNvWrite: {
      auto it = nv_spaces_.find(entry.index);
      if (it != nv_spaces_.end()) {
        it->second.data = entry.data;
      }
      break;
    }
    case JournalEntry::Kind::kCounterIncrement: {
      auto it = counters_.find(entry.index);
      if (it != counters_.end()) {
        // max() keeps the counter monotonic even if the increment had
        // already landed before the cut.
        it->second.value = std::max(it->second.value, entry.counter_value);
      }
      break;
    }
  }
  journal_.reset();
  report->journal_rolled_forward = true;
}

Result<TpmStartupReport> Tpm::Startup(TpmStartupType type) {
  if (lifecycle_ == TpmLifecycleState::kOperational) {
    return FailedPreconditionError("TPM_Startup without a preceding TPM_Init");
  }
  TpmStartupReport report;
  ReplayJournal(&report);

  if (type == TpmStartupType::kState) {
    if (!saved_state_valid_) {
      // The spec's answer to a ST_STATE resume with nothing to resume:
      // failure mode until the platform restarts with ST_CLEAR.
      self_test_result_ = kTpmTestNoSavedState;
      lifecycle_ = TpmLifecycleState::kFailed;
      return TpmFailedError("TPM_Startup(ST_STATE) without valid saved state");
    }
    pcrs_.RestoreStaticFrom(saved_pcrs_);
    report.state_restored = true;
  } else if (self_test_result_ == kTpmTestNoSavedState) {
    // ST_CLEAR needs no saved state; the resume failure is not permanent.
    self_test_result_ = kTpmTestPassed;
  }
  // The snapshot is single-use either way.
  saved_state_valid_ = false;

  if (self_test_result_ != kTpmTestPassed) {
    lifecycle_ = TpmLifecycleState::kFailed;
    return TpmFailedError("TPM self test failed during startup");
  }
  lifecycle_ = TpmLifecycleState::kOperational;
  return report;
}

Status Tpm::SaveState() {
  if (lifecycle_ != TpmLifecycleState::kOperational) {
    return FailedPreconditionError("TPM_SaveState requires an operational TPM");
  }
  saved_state_valid_ = false;  // A partially written snapshot is no snapshot.
  saved_pcrs_ = pcrs_;
  CRASH_POINT("tpm.save_state");
  saved_state_valid_ = true;
  return Status::Ok();
}

Bytes Tpm::GetRandom(size_t len) {
  Charge(profile_.get_random_ms);
  return rng_.Generate(std::min(len, kMaxRandomBytes));
}

Result<Bytes> Tpm::PcrRead(int index) {
  Charge(profile_.pcr_read_ms);
  return pcrs_.Read(index);
}

bool Tpm::ExtendAllowedAt(int index, int locality) {
  switch (index) {
    case 17:
    case 18:
    case 19:
      return locality >= 2;
    case 20:
      return locality >= 1;
    case 21:
    case 22:
      return locality == 2;
    default:
      return true;
  }
}

Status Tpm::PcrExtend(int index, const Bytes& measurement) {
  Charge(profile_.pcr_extend_ms);
  if (index >= 0 && index < kNumPcrs && !ExtendAllowedAt(index, locality_)) {
    return PermissionDeniedError("PCR " + std::to_string(index) +
                                 " cannot be extended from locality " + std::to_string(locality_));
  }
  return pcrs_.Extend(index, measurement);
}

AuthSessionInfo Tpm::StartOiap() {
  Charge(profile_.session_start_ms);
  AuthSessionInfo session;
  session.handle = next_session_handle_++;
  session.nonce_even = rng_.Generate(kPcrSize);
  sessions_[session.handle] = session;
  return session;
}

void Tpm::TerminateSession(uint32_t handle) {
  sessions_.erase(handle);
}

const Bytes& Tpm::EntitySecret(AuthEntity entity) const {
  switch (entity) {
    case AuthEntity::kSrk:
      return srk_usage_auth_;
    case AuthEntity::kOwner:
      return owner_auth_;
  }
  return srk_usage_auth_;
}

Bytes Tpm::ComputeCommandAuth(const Bytes& secret, const Bytes& param_digest,
                              const Bytes& nonce_even, const Bytes& nonce_odd) {
  return HmacSha1(secret, Concat(param_digest, nonce_even, nonce_odd));
}

Status Tpm::CheckAuth(AuthEntity entity, const Bytes& param_digest, const CommandAuth& auth) {
  auto it = sessions_.find(auth.session_handle);
  if (it == sessions_.end()) {
    return PermissionDeniedError("unknown authorization session");
  }
  AuthSessionInfo& session = it->second;
  Bytes expected =
      ComputeCommandAuth(EntitySecret(entity), param_digest, session.nonce_even, auth.nonce_odd);
  if (!ConstantTimeEquals(expected, auth.auth)) {
    // A real TPM terminates the session on auth failure (defense against
    // online guessing); model that.
    sessions_.erase(it);
    return PermissionDeniedError("authorization HMAC mismatch");
  }
  // Roll the rolling nonce for the next use of this session.
  session.nonce_even = rng_.Generate(kPcrSize);
  return Status::Ok();
}

Result<Bytes> Tpm::CompositeWithOverrides(const PcrSelection& selection,
                                          const std::map<int, Bytes>& overrides) const {
  if (selection.Empty()) {
    return InvalidArgumentError("PCR selection must not be empty");
  }
  Bytes buffer = selection.Serialize();
  Bytes values;
  for (int index : selection.Indices()) {
    auto it = overrides.find(index);
    if (it != overrides.end()) {
      if (it->second.size() != kPcrSize) {
        return InvalidArgumentError("override PCR value must be 20 bytes");
      }
      values.insert(values.end(), it->second.begin(), it->second.end());
    } else {
      Result<Bytes> current = pcrs_.Read(index);
      if (!current.ok()) {
        return current.status();
      }
      values.insert(values.end(), current.value().begin(), current.value().end());
    }
  }
  PutUint32(&buffer, static_cast<uint32_t>(values.size()));
  buffer.insert(buffer.end(), values.begin(), values.end());
  return Sha1::Digest(buffer);
}

Result<SealedBlob> Tpm::Seal(const Bytes& data, const PcrSelection& selection,
                             const std::map<int, Bytes>& release_pcrs, const Bytes& blob_auth,
                             const CommandAuth& auth) {
  Charge(profile_.seal_ms);
  if (blob_auth.size() != kPcrSize) {
    return InvalidArgumentError("blob auth must be 20 bytes");
  }
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_Seal"), data, selection.Serialize()));
  FLICKER_RETURN_IF_ERROR(CheckAuth(AuthEntity::kSrk, param_digest, auth));

  Result<Bytes> composite = CompositeWithOverrides(selection, release_pcrs);
  if (!composite.ok()) {
    return composite.status();
  }

  // Inner plaintext: magic || selection || release composite || blob auth ||
  // data. The whole envelope is AES-CBC under a fresh key wrapped by the SRK,
  // then MACed - the hybrid construction §2.2 describes.
  Bytes inner = BytesOf(kSealMagic);
  Bytes selection_wire = selection.Serialize();
  PutUint16(&inner, static_cast<uint16_t>(selection_wire.size()));
  inner.insert(inner.end(), selection_wire.begin(), selection_wire.end());
  inner.insert(inner.end(), composite.value().begin(), composite.value().end());
  inner.insert(inner.end(), blob_auth.begin(), blob_auth.end());
  PutUint32(&inner, static_cast<uint32_t>(data.size()));
  inner.insert(inner.end(), data.begin(), data.end());

  Bytes aes_key = rng_.Generate(16);
  Bytes mac_key = rng_.Generate(20);
  Bytes iv = rng_.Generate(16);
  Aes aes(aes_key);
  Bytes body = aes.EncryptCbc(inner, iv);

  Bytes wrapped_keys_plain = Concat(aes_key, mac_key);
  Result<Bytes> wrapped = RsaEncryptPkcs1(srk_.pub, wrapped_keys_plain, &rng_);
  if (!wrapped.ok()) {
    return wrapped.status();
  }

  SealedBlob blob;
  PutUint32(&blob.ciphertext, static_cast<uint32_t>(wrapped.value().size()));
  blob.ciphertext.insert(blob.ciphertext.end(), wrapped.value().begin(), wrapped.value().end());
  blob.ciphertext.insert(blob.ciphertext.end(), iv.begin(), iv.end());
  PutUint32(&blob.ciphertext, static_cast<uint32_t>(body.size()));
  blob.ciphertext.insert(blob.ciphertext.end(), body.begin(), body.end());
  Bytes tag = HmacSha1(mac_key, Concat(iv, body));
  blob.ciphertext.insert(blob.ciphertext.end(), tag.begin(), tag.end());

  SecureErase(&aes_key);
  SecureErase(&mac_key);
  return blob;
}

Result<Bytes> Tpm::Unseal(const SealedBlob& blob, const Bytes& blob_auth, const CommandAuth& auth) {
  Charge(profile_.unseal_ms);
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_Unseal"), blob.ciphertext));
  FLICKER_RETURN_IF_ERROR(CheckAuth(AuthEntity::kSrk, param_digest, auth));

  const Bytes& ct = blob.ciphertext;
  if (ct.size() < 4) {
    return InvalidArgumentError("sealed blob truncated");
  }
  size_t offset = 0;
  uint32_t wrapped_len = GetUint32(ct, offset);
  offset += 4;
  if (offset + wrapped_len + 16 + 4 > ct.size()) {
    return InvalidArgumentError("sealed blob truncated");
  }
  Bytes wrapped(ct.begin() + static_cast<long>(offset),
                ct.begin() + static_cast<long>(offset + wrapped_len));
  offset += wrapped_len;
  Bytes iv(ct.begin() + static_cast<long>(offset), ct.begin() + static_cast<long>(offset + 16));
  offset += 16;
  uint32_t body_len = GetUint32(ct, offset);
  offset += 4;
  if (offset + body_len + kPcrSize != ct.size()) {
    return InvalidArgumentError("sealed blob truncated");
  }
  Bytes body(ct.begin() + static_cast<long>(offset),
             ct.begin() + static_cast<long>(offset + body_len));
  offset += body_len;
  Bytes tag(ct.begin() + static_cast<long>(offset), ct.end());

  Result<Bytes> wrapped_keys = RsaDecryptPkcs1(srk_, wrapped);
  if (!wrapped_keys.ok() || wrapped_keys.value().size() != 36) {
    return IntegrityFailureError("sealed blob key unwrap failed");
  }
  Bytes aes_key(wrapped_keys.value().begin(), wrapped_keys.value().begin() + 16);
  Bytes mac_key(wrapped_keys.value().begin() + 16, wrapped_keys.value().end());

  if (!HmacSha1Verify(mac_key, Concat(iv, body), tag)) {
    return IntegrityFailureError("sealed blob MAC mismatch");
  }

  Aes aes(aes_key);
  Result<Bytes> inner = aes.DecryptCbc(body, iv);
  if (!inner.ok()) {
    return IntegrityFailureError("sealed blob decryption failed");
  }
  const Bytes& in = inner.value();

  size_t magic_len = BytesOf(kSealMagic).size();
  if (in.size() < magic_len + 2 ||
      !std::equal(in.begin(), in.begin() + static_cast<long>(magic_len),
                  BytesOf(kSealMagic).begin())) {
    return IntegrityFailureError("sealed blob magic mismatch");
  }
  size_t pos = magic_len;
  uint16_t selection_len = GetUint16(in, pos);
  pos += 2;
  if (pos + selection_len + kPcrSize + kPcrSize + 4 > in.size()) {
    return IntegrityFailureError("sealed blob inner structure truncated");
  }
  // Reconstruct the PCR selection from the wire form (3-byte bitmap).
  PcrSelection selection;
  if (selection_len == 5) {
    uint32_t mask = static_cast<uint32_t>(in[pos + 2]) | (static_cast<uint32_t>(in[pos + 3]) << 8) |
                    (static_cast<uint32_t>(in[pos + 4]) << 16);
    for (int i = 0; i < kNumPcrs; ++i) {
      if ((mask >> i) & 1) {
        selection.Select(i);
      }
    }
  }
  pos += selection_len;
  Bytes sealed_composite(in.begin() + static_cast<long>(pos),
                         in.begin() + static_cast<long>(pos + kPcrSize));
  pos += kPcrSize;
  Bytes sealed_auth(in.begin() + static_cast<long>(pos),
                    in.begin() + static_cast<long>(pos + kPcrSize));
  pos += kPcrSize;
  uint32_t data_len = GetUint32(in, pos);
  pos += 4;
  if (pos + data_len != in.size()) {
    return IntegrityFailureError("sealed blob inner structure truncated");
  }

  if (!ConstantTimeEquals(sealed_auth, blob_auth)) {
    return PermissionDeniedError("sealed blob auth mismatch");
  }

  Result<Bytes> current_composite = pcrs_.ComputeComposite(selection);
  if (!current_composite.ok()) {
    return current_composite.status();
  }
  if (!ConstantTimeEquals(current_composite.value(), sealed_composite)) {
    return IntegrityFailureError("PCR state does not match sealed composite");
  }

  return Bytes(in.begin() + static_cast<long>(pos), in.end());
}

Result<TpmQuote> Tpm::Quote(const Bytes& nonce, const PcrSelection& selection) {
  // Load, then sign: two charges, as the calibrated device spends them.
  Charge(profile_.load_key_ms);
  double sign_ms = profile_.quote_ms - profile_.load_key_ms;
  Charge(sign_ms > 0 ? sign_ms : profile_.quote_ms);
  if (selection.Empty()) {
    return InvalidArgumentError("quote requires a PCR selection");
  }
  Result<Bytes> composite = pcrs_.ComputeComposite(selection);
  if (!composite.ok()) {
    return composite.status();
  }

  TpmQuote quote;
  quote.selection = selection;
  quote.nonce = nonce;
  for (int index : selection.Indices()) {
    quote.pcr_values.push_back(pcrs_.Read(index).value());
  }
  quote.signature = RsaSignSha1(aik_, QuoteInfoDigestInput(composite.value(), nonce));
  return quote;
}

Status Tpm::NvDefineSpace(uint32_t index, size_t size, const PcrSelection& write_selection,
                          const std::map<int, Bytes>& write_pcrs, const CommandAuth& auth) {
  Charge(profile_.nv_write_ms);
  if (!owned_) {
    return FailedPreconditionError("TPM has no owner; TakeOwnership first");
  }
  Bytes param_digest =
      Sha1::Digest(Concat(BytesOf("TPM_NV_DefineSpace"), write_selection.Serialize()));
  FLICKER_RETURN_IF_ERROR(CheckAuth(AuthEntity::kOwner, param_digest, auth));
  if (nv_spaces_.count(index) != 0) {
    return InvalidArgumentError("NV index already defined");
  }

  NvSpace space;
  space.size = size;
  space.write_selection = write_selection;
  if (!write_selection.Empty()) {
    Result<Bytes> composite = CompositeWithOverrides(write_selection, write_pcrs);
    if (!composite.ok()) {
      return composite.status();
    }
    space.write_composite = composite.value();
  }
  nv_spaces_[index] = std::move(space);
  return Status::Ok();
}

Status Tpm::NvWrite(uint32_t index, const Bytes& data) {
  Charge(profile_.nv_write_ms);
  auto it = nv_spaces_.find(index);
  if (it == nv_spaces_.end()) {
    return NotFoundError("NV index not defined");
  }
  NvSpace& space = it->second;
  if (data.size() > space.size) {
    return ResourceExhaustedError("NV write exceeds defined space");
  }
  if (!space.write_selection.Empty()) {
    Result<Bytes> current = pcrs_.ComputeComposite(space.write_selection);
    if (!current.ok()) {
      return current.status();
    }
    if (!ConstantTimeEquals(current.value(), space.write_composite)) {
      return PermissionDeniedError("PCR state does not authorize NV write");
    }
  }

  // Write-ahead journal: record -> checksum -> commit mark -> apply -> clear,
  // with a durability boundary between each stage. NVRAM programs in
  // sectors, so the apply stage really is tearable: model the first half of
  // the payload landing before the second.
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kNvWrite;
  entry.index = index;
  entry.data = data;
  journal_ = entry;
  CRASH_POINT("tpm.nv_write.journal");  // Torn record: crc still unset.
  journal_->crc = JournalCrc(*journal_);
  CRASH_POINT("tpm.nv_write.staged");  // Valid record, no commit mark.
  journal_->committed = true;
  journal_->crc = JournalCrc(*journal_);
  CRASH_POINT("tpm.nv_write.commit");  // Committed, payload area untouched.
  Bytes torn(data.begin(), data.begin() + static_cast<long>(data.size() / 2));
  if (space.data.size() > torn.size()) {
    torn.insert(torn.end(), space.data.begin() + static_cast<long>(torn.size()),
                space.data.end());
  }
  space.data = torn;
  CRASH_POINT("tpm.nv_write.apply");  // Half-written payload, journal committed.
  space.data = data;
  journal_.reset();
  return Status::Ok();
}

Result<Bytes> Tpm::NvContents(uint32_t index) const {
  auto it = nv_spaces_.find(index);
  if (it == nv_spaces_.end()) {
    return NotFoundError("NV index not defined");
  }
  return it->second.data;
}

Result<uint32_t> Tpm::CreateCounter(const Bytes& counter_auth, const CommandAuth& auth) {
  Charge(profile_.counter_ms);
  if (!owned_) {
    return FailedPreconditionError("TPM has no owner; TakeOwnership first");
  }
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_CreateCounter"), counter_auth));
  FLICKER_RETURN_IF_ERROR(CheckAuth(AuthEntity::kOwner, param_digest, auth));
  uint32_t id = next_counter_id_++;
  counters_[id] = Counter{0, counter_auth};
  return id;
}

Result<uint64_t> Tpm::IncrementCounter(uint32_t id, const Bytes& counter_auth) {
  Charge(profile_.counter_ms);
  auto it = counters_.find(id);
  if (it == counters_.end()) {
    return NotFoundError("unknown counter");
  }
  if (!ConstantTimeEquals(it->second.auth, counter_auth)) {
    return PermissionDeniedError("counter auth mismatch");
  }

  // Same journal discipline as NvWrite; the apply itself is a single-word
  // program and therefore atomic, but the window between the commit mark and
  // the apply is not.
  const uint64_t target = it->second.value + 1;
  JournalEntry entry;
  entry.kind = JournalEntry::Kind::kCounterIncrement;
  entry.index = id;
  entry.counter_value = target;
  journal_ = entry;
  CRASH_POINT("tpm.counter.journal");  // Torn record: crc still unset.
  journal_->crc = JournalCrc(*journal_);
  CRASH_POINT("tpm.counter.staged");  // Valid record, no commit mark.
  journal_->committed = true;
  journal_->crc = JournalCrc(*journal_);
  CRASH_POINT("tpm.counter.commit");  // Committed, counter word not yet programmed.
  it->second.value = target;
  journal_.reset();
  return target;
}

Result<uint64_t> Tpm::ReadCounter(uint32_t id) {
  Charge(profile_.counter_ms);
  auto it = counters_.find(id);
  if (it == counters_.end()) {
    return NotFoundError("unknown counter");
  }
  return it->second.value;
}

Status Tpm::TakeOwnership(const Bytes& owner_auth) {
  if (owned_) {
    return FailedPreconditionError("TPM already has an owner");
  }
  if (owner_auth.size() != kPcrSize) {
    return InvalidArgumentError("owner auth must be 20 bytes");
  }
  owner_auth_ = owner_auth;
  owned_ = true;
  return Status::Ok();
}

Status Tpm::TransitionLocality(int locality, bool hardware) {
  if (locality < 0 || locality > 4) {
    return InvalidArgumentError("locality must be 0-4");
  }
  if (!hardware && locality >= 3) {
    return PermissionDeniedError("locality " + std::to_string(locality) +
                                 " is hardware-only (SKINIT microcode / ACM)");
  }
  locality_ = locality;
  return Status::Ok();
}

Status Tpm::RequestLocality(int locality) {
  return TransitionLocality(locality, /*hardware=*/false);
}

void Tpm::HardwareInterface::SkinitReset(const Bytes& slb_measurement) {
  Status raised = tpm_->TransitionLocality(4, /*hardware=*/true);
  (void)raised;  // Locality 4 is always reachable from the hardware side.
  // Dynamic PCRs reset only at locality 4 - the property the paper's TCB
  // argument rests on (§2.3); the transition above just established it.
  tpm_->pcrs_.DynamicReset();
  // The measurement arrives over the hardware path; the transfer time is
  // charged by the CPU model as part of SKINIT itself.
  Status st = tpm_->pcrs_.Extend(kSkinitPcr, slb_measurement);
  (void)st;  // A 20-byte digest from the CPU cannot fail validation.
  st = tpm_->TransitionLocality(2, /*hardware=*/true);
  (void)st;
}

Status Tpm::HardwareInterface::SetLocality(int locality) {
  return tpm_->TransitionLocality(locality, /*hardware=*/true);
}

void Tpm::HardwareInterface::ExtendIdentityPcr(const Bytes& measurement) {
  Status st = tpm_->pcrs_.Extend(kSkinitPcr, measurement);
  (void)st;  // 20-byte digests from the CPU cannot fail validation.
}

void Tpm::HardwareInterface::Init() {
  // The reset line: volatile state evaporates, persistent state (NV spaces,
  // counters, the journal, the SaveState snapshot, the fault latch) stays.
  tpm_->pcrs_.PowerCycleReset();
  tpm_->sessions_.clear();
  Status st = tpm_->TransitionLocality(0, /*hardware=*/true);
  (void)st;
  tpm_->lifecycle_ = TpmLifecycleState::kNeedStartup;
}

void Tpm::HardwareInterface::PowerCycle() {
  Init();
  // The BIOS issues TPM_Startup(ST_CLEAR) during POST; callers of this
  // one-shot reboot get back an operational TPM (or one parked in failure
  // mode, which Startup reports and the caller's next command will see).
  Result<TpmStartupReport> started = tpm_->Startup(TpmStartupType::kClear);
  (void)started;
}

void Tpm::HardwareInterface::ForceFailureMode() {
  tpm_->self_test_result_ = kTpmTestHardwareFault;
  tpm_->lifecycle_ = TpmLifecycleState::kFailed;
}

void Tpm::HardwareInterface::ClearFailureMode() {
  if (tpm_->self_test_result_ == kTpmTestHardwareFault) {
    tpm_->self_test_result_ = kTpmTestPassed;
  }
  // The device stays in failure mode until software runs TPM_Startup;
  // clearing the latch models the fault going away, not the recovery
  // protocol.
}

}  // namespace flicker
