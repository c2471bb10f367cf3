// Wire-level TPM v1.2 command marshalling.
//
// Every driver-side TPM operation is expressed as a byte frame with the
// v1.2 header layout - tag (u16), paramSize (u32), ordinal/returnCode (u32) -
// followed by a serde-encoded parameter body. The driver builds request
// frames with the Build* helpers, the device side decodes and executes them
// in DispatchFrame, and both sides share the payload codecs so a garbled
// frame is caught by exactly the checks a real TPM applies (parse failure or
// authorization-HMAC mismatch).
//
// Ordinals use the real TPM 1.2 values; the simulator-only public-key
// export lives in the vendor-specific range, and TIS events that are
// register writes rather than commands (locality changes, the SKINIT
// hardware path) get pseudo-ordinals that exist only in the command trace.
// The device implements only the commands a Flicker platform sends: any
// other ordinal is answered with kInvalidArgument "unknown TPM ordinal".

#ifndef FLICKER_SRC_TPM_COMMANDS_H_
#define FLICKER_SRC_TPM_COMMANDS_H_

#include <cstdint>
#include <map>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/tpm/structures.h"
#include "src/tpm/tpm.h"

namespace flicker {

// ---- Frame tags (TPM_TAG_*) ----
constexpr uint16_t kTagRequest = 0x00C1;       // TPM_TAG_RQU_COMMAND
constexpr uint16_t kTagRequestAuth1 = 0x00C2;  // TPM_TAG_RQU_AUTH1_COMMAND
constexpr uint16_t kTagResponse = 0x00C4;      // TPM_TAG_RSP_COMMAND
constexpr uint16_t kTagResponseAuth1 = 0x00C5; // TPM_TAG_RSP_AUTH1_COMMAND

// Header: tag (2) + paramSize (4) + ordinal/returnCode (4).
constexpr size_t kFrameHeaderSize = 10;
// The largest frame either direction accepts, header included; a longer
// frame is refused even when its paramSize matches. A real v1.2 TIS buffer
// holds 4096 bytes, but the simulated TPM seals a whole payload in one
// hybrid envelope, and the seal-size tests send 8 KB payloads (an 8646-byte
// TPM_Seal frame), so the cap is the next power of two: 16 KiB.
constexpr size_t kMaxTpmFrameBytes = 16 * 1024;

// ---- Ordinals (TPM_ORD_*, v1.2 values) ----
enum TpmOrdinal : uint32_t {
  kOrdOiap = 0x0000000A,
  kOrdTakeOwnership = 0x0000000D,
  kOrdExtend = 0x00000014,
  kOrdPcrRead = 0x00000015,
  kOrdQuote = 0x00000016,
  kOrdSeal = 0x00000017,
  kOrdUnseal = 0x00000018,
  kOrdGetRandom = 0x00000046,
  kOrdGetTestResult = 0x00000054,
  kOrdTerminateHandle = 0x00000096,
  kOrdSaveState = 0x00000098,
  kOrdStartup = 0x00000099,
  kOrdNvDefineSpace = 0x000000CC,
  kOrdNvWriteValue = 0x000000CD,
  kOrdCreateCounter = 0x000000DC,
  kOrdIncrementCounter = 0x000000DD,
  kOrdReadCounter = 0x000000DE,

  // Vendor-specific range (TPM_VENDOR_COMMAND bit): simulator-only read.
  kOrdGetPubKey = 0x20000002,

  // TIS pseudo-ordinals: locality register writes and the hardware-side
  // interface. Never framed; recorded in the transport trace only.
  kOrdTisRequestLocality = 0xF0000001,
  kOrdTisReleaseLocality = 0xF0000002,
  kOrdHwSkinitReset = 0xF0000010,
  kOrdHwExtendIdentityPcr = 0xF0000011,
  kOrdHwPowerCycle = 0xF0000012,
  kOrdHwSetLocality = 0xF0000013,
  kOrdHwInit = 0xF0000014,
  kOrdHwForceFailure = 0xF0000015,
  kOrdHwClearFailure = 0xF0000016,
};

// Human-readable ordinal name for traces ("TPM_ORD_Quote").
const char* TpmOrdinalName(uint32_t ordinal);

// ---- Return-code <-> Status mapping ----
//
// 0 is TPM_SUCCESS; errors map StatusCode into the vendor error band
// (0x400 + code) and carry the message as a string in the response body.
uint32_t ReturnCodeFor(StatusCode code);
StatusCode StatusCodeFromReturnCode(uint32_t return_code);

// ---- Frame construction / parsing ----

struct CommandFrame {
  uint16_t tag = 0;
  uint32_t ordinal = 0;
  Bytes body;
};

Bytes BuildCommandFrame(uint16_t tag, uint32_t ordinal, const Bytes& body);
Result<CommandFrame> ParseCommandFrame(const Bytes& frame);

// Builds a response frame for `status` (payload only included on success).
Bytes BuildResponseFrame(bool auth1, const Status& status, const Bytes& payload);
// Returns the payload on TPM_SUCCESS, or the decoded error Status.
Result<Bytes> ParseResponseFrame(const Bytes& frame);

// Reads just the ordinal (requests) or return code (responses) of a frame
// without validating the body; used by the transport for tracing/policy.
Result<uint32_t> PeekOrdinal(const Bytes& frame);
uint32_t PeekReturnCode(const Bytes& frame);

// For an Extend request, recovers the target PCR index (for the transport's
// locality gate). Returns false if `frame` is not a well-formed Extend.
bool ExtendTargetPcr(const Bytes& frame, int* index);

// ---- Request builders (driver side) ----

Bytes BuildGetRandom(size_t len);
Bytes BuildPcrRead(int index);
Bytes BuildPcrExtend(int index, const Bytes& measurement);
Bytes BuildOiap();
Bytes BuildTerminateHandle(uint32_t handle);
Bytes BuildSeal(const Bytes& data, const PcrSelection& selection,
                const std::map<int, Bytes>& release_pcrs, const Bytes& blob_auth,
                const CommandAuth& auth);
Bytes BuildUnseal(const SealedBlob& blob, const Bytes& blob_auth, const CommandAuth& auth);
// Quotes with the resident AIK. The frame keeps TPM_ORD_Quote's v1.2
// keyHandle field, always written as 0; the device answers any other handle
// with kNotFound, since it has no key slots to load a key into.
Bytes BuildQuote(const Bytes& nonce, const PcrSelection& selection);
Bytes BuildNvDefineSpace(uint32_t index, size_t size, const PcrSelection& write_selection,
                         const std::map<int, Bytes>& write_pcrs, const CommandAuth& auth);
Bytes BuildNvWrite(uint32_t index, const Bytes& data);
Bytes BuildCreateCounter(const Bytes& counter_auth, const CommandAuth& auth);
Bytes BuildIncrementCounter(uint32_t id, const Bytes& counter_auth);
Bytes BuildReadCounter(uint32_t id);
Bytes BuildTakeOwnership(const Bytes& owner_auth);
Bytes BuildStartup(TpmStartupType type);
Bytes BuildSaveState();
Bytes BuildGetTestResult();
Bytes BuildGetPubKey(bool srk);

// ---- Response payload codecs ----

Result<AuthSessionInfo> ParseSessionPayload(const Bytes& payload);
Result<TpmQuote> ParseQuotePayload(const Bytes& payload);
Result<uint32_t> ParseHandlePayload(const Bytes& payload);
Result<uint64_t> ParseCounterPayload(const Bytes& payload);
Result<Bytes> ParseBlobPayload(const Bytes& payload);
Result<TpmStartupReport> ParseStartupPayload(const Bytes& payload);

// ---- Device side ----
//
// Decodes a request frame, executes it against `tpm`, and encodes the
// response frame. Errors (parse failures, authorization failures, device
// Status errors) are encoded in-band; the returned frame is always valid.
Bytes DispatchFrame(Tpm* tpm, const Bytes& request_frame);

}  // namespace flicker

#endif  // FLICKER_SRC_TPM_COMMANDS_H_
