#include "src/tpm/commands.h"

#include <utility>

#include "src/common/serde.h"

namespace flicker {

namespace {

// Vendor error band: TPM_SUCCESS is 0, our StatusCodes map above 0x400.
constexpr uint32_t kVendorErrorBase = 0x400;

uint32_t SelectionMask(const PcrSelection& selection) { return selection.mask(); }

PcrSelection SelectionFromMask(uint32_t mask) {
  PcrSelection selection;
  for (int i = 0; i < kNumPcrs; ++i) {
    if ((mask >> i) & 1) {
      selection.Select(i);
    }
  }
  return selection;
}

void WritePcrOverrides(Writer* w, const std::map<int, Bytes>& overrides) {
  w->U32(static_cast<uint32_t>(overrides.size()));
  for (const auto& [index, value] : overrides) {
    w->U32(static_cast<uint32_t>(index));
    w->Blob(value);
  }
}

std::map<int, Bytes> ReadPcrOverrides(Reader* r) {
  std::map<int, Bytes> overrides;
  uint32_t count = r->U32();
  if (count > static_cast<uint32_t>(kNumPcrs)) {
    // More overrides than PCRs is always malformed; stop reading so the
    // handler's AtEnd() check rejects the frame.
    return overrides;
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t index = r->U32();
    overrides[static_cast<int>(index)] = r->Blob();
  }
  return overrides;
}

void WriteAuthTrailer(Writer* w, const CommandAuth& auth) {
  w->U32(auth.session_handle);
  w->Blob(auth.nonce_odd);
  w->Blob(auth.auth);
}

CommandAuth ReadAuthTrailer(Reader* r) {
  CommandAuth auth;
  auth.session_handle = r->U32();
  auth.nonce_odd = r->Blob();
  auth.auth = r->Blob();
  return auth;
}

void WriteSessionPayload(Writer* w, const AuthSessionInfo& session) {
  w->U32(session.handle);
  w->Blob(session.nonce_even);
}

void WriteQuotePayload(Writer* w, const TpmQuote& quote) {
  w->U32(SelectionMask(quote.selection));
  w->U32(static_cast<uint32_t>(quote.pcr_values.size()));
  for (const Bytes& value : quote.pcr_values) {
    w->Blob(value);
  }
  w->Blob(quote.nonce);
  w->Blob(quote.signature);
}

}  // namespace

const char* TpmOrdinalName(uint32_t ordinal) {
  switch (ordinal) {
    case kOrdOiap: return "TPM_ORD_OIAP";
    case kOrdTakeOwnership: return "TPM_ORD_TakeOwnership";
    case kOrdExtend: return "TPM_ORD_Extend";
    case kOrdGetTestResult: return "TPM_ORD_GetTestResult";
    case kOrdStartup: return "TPM_ORD_Startup";
    case kOrdPcrRead: return "TPM_ORD_PcrRead";
    case kOrdQuote: return "TPM_ORD_Quote";
    case kOrdSeal: return "TPM_ORD_Seal";
    case kOrdUnseal: return "TPM_ORD_Unseal";
    case kOrdGetRandom: return "TPM_ORD_GetRandom";
    case kOrdTerminateHandle: return "TPM_ORD_Terminate_Handle";
    case kOrdNvDefineSpace: return "TPM_ORD_NV_DefineSpace";
    case kOrdNvWriteValue: return "TPM_ORD_NV_WriteValue";
    case kOrdCreateCounter: return "TPM_ORD_CreateCounter";
    case kOrdIncrementCounter: return "TPM_ORD_IncrementCounter";
    case kOrdReadCounter: return "TPM_ORD_ReadCounter";
    case kOrdGetPubKey: return "TPM_VENDOR_GetPubKey";
    case kOrdTisRequestLocality: return "TIS_RequestLocality";
    case kOrdTisReleaseLocality: return "TIS_ReleaseLocality";
    case kOrdHwSkinitReset: return "HW_SkinitReset";
    case kOrdHwExtendIdentityPcr: return "HW_ExtendIdentityPcr";
    case kOrdHwSetLocality: return "HW_SetLocality";
    case kOrdHwInit: return "HW_Init";
    case kOrdHwForceFailure: return "HW_ForceFailureMode";
    case kOrdHwClearFailure: return "HW_ClearFailureMode";
    default: return "TPM_ORD_<unknown>";
  }
}

uint32_t ReturnCodeFor(StatusCode code) {
  if (code == StatusCode::kOk) {
    return 0;
  }
  return kVendorErrorBase + static_cast<uint32_t>(code);
}

StatusCode StatusCodeFromReturnCode(uint32_t return_code) {
  if (return_code == 0) {
    return StatusCode::kOk;
  }
  uint32_t raw = return_code - kVendorErrorBase;
  if (raw >= 1 && raw <= static_cast<uint32_t>(kLastStatusCode)) {
    return static_cast<StatusCode>(raw);
  }
  return StatusCode::kInternal;
}

Bytes BuildCommandFrame(uint16_t tag, uint32_t ordinal, const Bytes& body) {
  Bytes frame;
  PutUint16(&frame, tag);
  PutUint32(&frame, static_cast<uint32_t>(kFrameHeaderSize + body.size()));
  PutUint32(&frame, ordinal);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

Result<CommandFrame> ParseCommandFrame(const Bytes& frame) {
  if (frame.size() < kFrameHeaderSize) {
    return InvalidArgumentError("TPM frame shorter than its header");
  }
  if (frame.size() > kMaxTpmFrameBytes) {
    return InvalidArgumentError("TPM frame longer than kMaxTpmFrameBytes");
  }
  CommandFrame out;
  out.tag = GetUint16(frame, 0);
  uint32_t param_size = GetUint32(frame, 2);
  out.ordinal = GetUint32(frame, 6);
  if (param_size != frame.size()) {
    return InvalidArgumentError("TPM frame paramSize does not match frame length");
  }
  if (out.tag != kTagRequest && out.tag != kTagRequestAuth1) {
    return InvalidArgumentError("TPM frame tag is not a request tag");
  }
  out.body.assign(frame.begin() + kFrameHeaderSize, frame.end());
  return out;
}

Bytes BuildResponseFrame(bool auth1, const Status& status, const Bytes& payload) {
  Bytes frame;
  PutUint16(&frame, auth1 ? kTagResponseAuth1 : kTagResponse);
  Bytes body;
  if (status.ok()) {
    body = payload;
  } else {
    Writer w;
    w.Str(status.message());
    body = w.Take();
  }
  PutUint32(&frame, static_cast<uint32_t>(kFrameHeaderSize + body.size()));
  PutUint32(&frame, ReturnCodeFor(status.code()));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

Result<Bytes> ParseResponseFrame(const Bytes& frame) {
  if (frame.size() < kFrameHeaderSize) {
    return InvalidArgumentError("TPM response shorter than its header");
  }
  if (frame.size() > kMaxTpmFrameBytes) {
    return InvalidArgumentError("TPM response longer than kMaxTpmFrameBytes");
  }
  uint16_t tag = GetUint16(frame, 0);
  if (tag != kTagResponse && tag != kTagResponseAuth1) {
    return InvalidArgumentError("TPM response tag invalid");
  }
  if (GetUint32(frame, 2) != frame.size()) {
    return InvalidArgumentError("TPM response paramSize does not match frame length");
  }
  uint32_t return_code = GetUint32(frame, 6);
  Bytes body(frame.begin() + kFrameHeaderSize, frame.end());
  if (return_code == 0) {
    return body;
  }
  Reader r(body);
  std::string message = r.Str();
  if (!r.ok()) {
    message = "TPM error response with corrupt message";
  }
  return Status(StatusCodeFromReturnCode(return_code), message);
}

Result<uint32_t> PeekOrdinal(const Bytes& frame) {
  if (frame.size() < kFrameHeaderSize) {
    return InvalidArgumentError("TPM frame shorter than its header");
  }
  return GetUint32(frame, 6);
}

uint32_t PeekReturnCode(const Bytes& frame) {
  if (frame.size() < kFrameHeaderSize) {
    return ReturnCodeFor(StatusCode::kInvalidArgument);
  }
  return GetUint32(frame, 6);
}

bool ExtendTargetPcr(const Bytes& frame, int* index) {
  Result<CommandFrame> parsed = ParseCommandFrame(frame);
  if (!parsed.ok() || parsed.value().ordinal != kOrdExtend) {
    return false;
  }
  Reader r(parsed.value().body);
  uint32_t pcr = r.U32();
  if (!r.ok()) {
    return false;
  }
  *index = static_cast<int>(pcr);
  return true;
}

// ---- Request builders ----

Bytes BuildGetRandom(size_t len) {
  Writer w;
  w.U32(static_cast<uint32_t>(len));
  return BuildCommandFrame(kTagRequest, kOrdGetRandom, w.Take());
}

Bytes BuildPcrRead(int index) {
  Writer w;
  w.U32(static_cast<uint32_t>(index));
  return BuildCommandFrame(kTagRequest, kOrdPcrRead, w.Take());
}

Bytes BuildPcrExtend(int index, const Bytes& measurement) {
  Writer w;
  w.U32(static_cast<uint32_t>(index));
  w.Blob(measurement);
  return BuildCommandFrame(kTagRequest, kOrdExtend, w.Take());
}

Bytes BuildOiap() { return BuildCommandFrame(kTagRequest, kOrdOiap, Bytes()); }

Bytes BuildTerminateHandle(uint32_t handle) {
  Writer w;
  w.U32(handle);
  return BuildCommandFrame(kTagRequest, kOrdTerminateHandle, w.Take());
}

Bytes BuildSeal(const Bytes& data, const PcrSelection& selection,
                const std::map<int, Bytes>& release_pcrs, const Bytes& blob_auth,
                const CommandAuth& auth) {
  Writer w;
  w.Blob(data);
  w.U32(SelectionMask(selection));
  WritePcrOverrides(&w, release_pcrs);
  w.Blob(blob_auth);
  WriteAuthTrailer(&w, auth);
  return BuildCommandFrame(kTagRequestAuth1, kOrdSeal, w.Take());
}

Bytes BuildUnseal(const SealedBlob& blob, const Bytes& blob_auth, const CommandAuth& auth) {
  Writer w;
  w.Blob(blob.ciphertext);
  w.Blob(blob_auth);
  WriteAuthTrailer(&w, auth);
  return BuildCommandFrame(kTagRequestAuth1, kOrdUnseal, w.Take());
}

Bytes BuildQuote(const Bytes& nonce, const PcrSelection& selection) {
  Writer w;
  w.U32(0);  // keyHandle: the resident AIK.
  w.Blob(nonce);
  w.U32(SelectionMask(selection));
  return BuildCommandFrame(kTagRequest, kOrdQuote, w.Take());
}

Bytes BuildNvDefineSpace(uint32_t index, size_t size, const PcrSelection& write_selection,
                         const std::map<int, Bytes>& write_pcrs, const CommandAuth& auth) {
  Writer w;
  w.U32(index);
  w.U64(size);
  w.U32(SelectionMask(write_selection));
  WritePcrOverrides(&w, write_pcrs);
  WriteAuthTrailer(&w, auth);
  return BuildCommandFrame(kTagRequestAuth1, kOrdNvDefineSpace, w.Take());
}

Bytes BuildNvWrite(uint32_t index, const Bytes& data) {
  Writer w;
  w.U32(index);
  w.Blob(data);
  return BuildCommandFrame(kTagRequest, kOrdNvWriteValue, w.Take());
}

Bytes BuildCreateCounter(const Bytes& counter_auth, const CommandAuth& auth) {
  Writer w;
  w.Blob(counter_auth);
  WriteAuthTrailer(&w, auth);
  return BuildCommandFrame(kTagRequestAuth1, kOrdCreateCounter, w.Take());
}

Bytes BuildIncrementCounter(uint32_t id, const Bytes& counter_auth) {
  Writer w;
  w.U32(id);
  w.Blob(counter_auth);
  return BuildCommandFrame(kTagRequest, kOrdIncrementCounter, w.Take());
}

Bytes BuildReadCounter(uint32_t id) {
  Writer w;
  w.U32(id);
  return BuildCommandFrame(kTagRequest, kOrdReadCounter, w.Take());
}

Bytes BuildTakeOwnership(const Bytes& owner_auth) {
  Writer w;
  w.Blob(owner_auth);
  return BuildCommandFrame(kTagRequest, kOrdTakeOwnership, w.Take());
}

Bytes BuildStartup() {
  Writer w;
  w.U16(kTpmStClear);
  return BuildCommandFrame(kTagRequest, kOrdStartup, w.Take());
}

Bytes BuildGetTestResult() { return BuildCommandFrame(kTagRequest, kOrdGetTestResult, Bytes()); }

Bytes BuildGetPubKey(bool srk) {
  Writer w;
  w.U8(srk ? 1 : 0);
  return BuildCommandFrame(kTagRequest, kOrdGetPubKey, w.Take());
}

// ---- Response payload codecs ----

Result<AuthSessionInfo> ParseSessionPayload(const Bytes& payload) {
  Reader r(payload);
  AuthSessionInfo session;
  session.handle = r.U32();
  session.nonce_even = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("malformed TPM session payload");
  }
  return session;
}

Result<TpmQuote> ParseQuotePayload(const Bytes& payload) {
  Reader r(payload);
  TpmQuote quote;
  quote.selection = SelectionFromMask(r.U32());
  uint32_t count = r.U32();
  if (count > static_cast<uint32_t>(kNumPcrs)) {
    return InvalidArgumentError("malformed TPM quote payload");
  }
  for (uint32_t i = 0; i < count; ++i) {
    quote.pcr_values.push_back(r.Blob());
  }
  quote.nonce = r.Blob();
  quote.signature = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("malformed TPM quote payload");
  }
  return quote;
}

Result<uint32_t> ParseHandlePayload(const Bytes& payload) {
  Reader r(payload);
  uint32_t handle = r.U32();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("malformed TPM handle payload");
  }
  return handle;
}

Result<uint64_t> ParseCounterPayload(const Bytes& payload) {
  Reader r(payload);
  uint64_t value = r.U64();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("malformed TPM counter payload");
  }
  return value;
}

Result<Bytes> ParseBlobPayload(const Bytes& payload) {
  Reader r(payload);
  Bytes blob = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("malformed TPM blob payload");
  }
  return blob;
}

Result<TpmStartupReport> ParseStartupPayload(const Bytes& payload) {
  Reader r(payload);
  TpmStartupReport report;
  report.journal_rolled_forward = r.U8() != 0;
  report.journal_discarded = r.U8() != 0;
  if (!r.ok() || !r.AtEnd()) {
    return InvalidArgumentError("malformed TPM startup payload");
  }
  return report;
}

// ---- Device side ----

namespace {

// Each handler parses the body and executes the command. `auth1` propagates
// into the response tag.
Bytes HandleFrame(Tpm* tpm, const CommandFrame& cmd) {
  const bool auth1 = cmd.tag == kTagRequestAuth1;
  Reader r(cmd.body);
  Writer payload;

  auto malformed = [&] {
    return BuildResponseFrame(auth1, InvalidArgumentError("malformed TPM command body"), Bytes());
  };
  auto respond = [&](const Status& st) { return BuildResponseFrame(auth1, st, payload.Take()); };

  switch (cmd.ordinal) {
    case kOrdGetRandom: {
      uint32_t len = r.U32();
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      payload.Blob(tpm->GetRandom(len));
      return respond(Status::Ok());
    }
    case kOrdPcrRead: {
      uint32_t index = r.U32();
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      Result<Bytes> value = tpm->PcrRead(static_cast<int>(index));
      if (!value.ok()) {
        return respond(value.status());
      }
      payload.Blob(value.value());
      return respond(Status::Ok());
    }
    case kOrdExtend: {
      uint32_t index = r.U32();
      Bytes measurement = r.Blob();
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      return respond(tpm->PcrExtend(static_cast<int>(index), measurement));
    }
    case kOrdOiap: {
      if (!r.AtEnd()) {
        return malformed();
      }
      WriteSessionPayload(&payload, tpm->StartOiap());
      return respond(Status::Ok());
    }
    case kOrdTerminateHandle: {
      uint32_t handle = r.U32();
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      tpm->TerminateSession(handle);
      return respond(Status::Ok());
    }
    case kOrdSeal: {
      Bytes data = r.Blob();
      PcrSelection selection = SelectionFromMask(r.U32());
      std::map<int, Bytes> release_pcrs = ReadPcrOverrides(&r);
      Bytes blob_auth = r.Blob();
      CommandAuth auth = ReadAuthTrailer(&r);
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      Result<SealedBlob> blob = tpm->Seal(data, selection, release_pcrs, blob_auth, auth);
      if (!blob.ok()) {
        return respond(blob.status());
      }
      payload.Blob(blob.value().ciphertext);
      return respond(Status::Ok());
    }
    case kOrdUnseal: {
      SealedBlob blob{r.Blob()};
      Bytes blob_auth = r.Blob();
      CommandAuth auth = ReadAuthTrailer(&r);
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      Result<Bytes> data = tpm->Unseal(blob, blob_auth, auth);
      if (!data.ok()) {
        return respond(data.status());
      }
      payload.Blob(data.value());
      return respond(Status::Ok());
    }
    case kOrdQuote: {
      uint32_t key_handle = r.U32();
      Bytes nonce = r.Blob();
      PcrSelection selection = SelectionFromMask(r.U32());
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      if (key_handle != 0) {
        // No key slots: the resident AIK (handle 0) is the only signing key.
        return respond(NotFoundError("quote requires the resident AIK (keyHandle 0)"));
      }
      Result<TpmQuote> quote = tpm->Quote(nonce, selection);
      if (!quote.ok()) {
        return respond(quote.status());
      }
      WriteQuotePayload(&payload, quote.value());
      return respond(Status::Ok());
    }
    case kOrdNvDefineSpace: {
      uint32_t index = r.U32();
      uint64_t size = r.U64();
      PcrSelection write_selection = SelectionFromMask(r.U32());
      std::map<int, Bytes> write_pcrs = ReadPcrOverrides(&r);
      CommandAuth auth = ReadAuthTrailer(&r);
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      return respond(tpm->NvDefineSpace(index, size, write_selection, write_pcrs, auth));
    }
    case kOrdNvWriteValue: {
      uint32_t index = r.U32();
      Bytes data = r.Blob();
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      return respond(tpm->NvWrite(index, data));
    }
    case kOrdCreateCounter: {
      Bytes counter_auth = r.Blob();
      CommandAuth auth = ReadAuthTrailer(&r);
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      Result<uint32_t> id = tpm->CreateCounter(counter_auth, auth);
      if (!id.ok()) {
        return respond(id.status());
      }
      payload.U32(id.value());
      return respond(Status::Ok());
    }
    case kOrdIncrementCounter: {
      uint32_t id = r.U32();
      Bytes counter_auth = r.Blob();
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      Result<uint64_t> value = tpm->IncrementCounter(id, counter_auth);
      if (!value.ok()) {
        return respond(value.status());
      }
      payload.U64(value.value());
      return respond(Status::Ok());
    }
    case kOrdReadCounter: {
      uint32_t id = r.U32();
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      Result<uint64_t> value = tpm->ReadCounter(id);
      if (!value.ok()) {
        return respond(value.status());
      }
      payload.U64(value.value());
      return respond(Status::Ok());
    }
    case kOrdTakeOwnership: {
      Bytes owner_auth = r.Blob();
      if (!r.ok() || !r.AtEnd()) {
        return malformed();
      }
      return respond(tpm->TakeOwnership(owner_auth));
    }
    case kOrdStartup: {
      // ST_STATE (the S3 resume) is not implemented: every type but
      // ST_CLEAR is refused before the lifecycle state changes.
      uint16_t type = r.U16();
      if (!r.ok() || !r.AtEnd() || type != kTpmStClear) {
        return malformed();
      }
      Result<TpmStartupReport> report = tpm->Startup();
      if (!report.ok()) {
        return respond(report.status());
      }
      payload.U8(report.value().journal_rolled_forward ? 1 : 0);
      payload.U8(report.value().journal_discarded ? 1 : 0);
      return respond(Status::Ok());
    }
    case kOrdGetTestResult: {
      if (!r.AtEnd()) {
        return malformed();
      }
      payload.U32(tpm->GetTestResult());
      return respond(Status::Ok());
    }
    case kOrdGetPubKey: {
      uint8_t srk = r.U8();
      if (!r.ok() || !r.AtEnd() || srk > 1) {
        return malformed();
      }
      payload.Blob(srk == 1 ? tpm->srk_public().Serialize() : tpm->aik_public().Serialize());
      return respond(Status::Ok());
    }
    default:
      return BuildResponseFrame(auth1, InvalidArgumentError("unknown TPM ordinal"), Bytes());
  }
}

}  // namespace

Bytes DispatchFrame(Tpm* tpm, const Bytes& request_frame) {
  Result<CommandFrame> cmd = ParseCommandFrame(request_frame);
  if (!cmd.ok()) {
    return BuildResponseFrame(/*auth1=*/false, cmd.status(), Bytes());
  }
  // Lifecycle gate (TPM 1.2 §"Startup"): after TPM_Init only TPM_Startup is
  // accepted; in failure mode only TPM_Startup and TPM_GetTestResult are.
  const uint32_t ordinal = cmd.value().ordinal;
  const bool lifecycle_exempt = ordinal == kOrdStartup || ordinal == kOrdGetTestResult;
  if (!lifecycle_exempt) {
    const bool auth1 = cmd.value().tag == kTagRequestAuth1;
    if (tpm->lifecycle_state() == TpmLifecycleState::kNeedStartup) {
      return BuildResponseFrame(
          auth1, FailedPreconditionError("TPM_Init: TPM_Startup required"), Bytes());
    }
    if (tpm->lifecycle_state() == TpmLifecycleState::kFailed) {
      return BuildResponseFrame(
          auth1, TpmFailedError("TPM in failure mode; only Startup/GetTestResult accepted"),
          Bytes());
    }
  }
  return HandleFrame(tpm, cmd.value());
}

}  // namespace flicker
