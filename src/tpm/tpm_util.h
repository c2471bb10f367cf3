// Driver-side TPM utilities: the OIAP authorization-session handshake needed
// to call Seal, Unseal, NV definition and counter creation.
//
// This is the paper's "TPM Utilities" PAL module (Fig. 6): PAL code links it
// to perform TPM operations without hand-rolling the session HMACs. Each
// helper starts a session, computes the same parameter digest the TPM
// checks, presents the HMAC, and terminates the session. Every helper drives
// the device through the one driver, TpmClient, so each step is a real wire
// command.

#ifndef FLICKER_SRC_TPM_TPM_UTIL_H_
#define FLICKER_SRC_TPM_TPM_UTIL_H_

#include <cstdint>
#include <map>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/tpm/tpm.h"

namespace flicker {

class TpmClient;

namespace tpm_util_internal {

// Builds the CommandAuth for a command whose parameters hash to
// `param_digest`, under the OIAP `session`.
CommandAuth MakeAuth(TpmClient* tpm, const AuthSessionInfo& session, const Bytes& secret,
                     const Bytes& param_digest);

}  // namespace tpm_util_internal

// Seals `data` so it is released only when the PCRs in `selection` hold
// `release_pcrs` (current values where omitted) and the caller knows
// `blob_auth`. `srk_secret` is the SRK usage secret (the well-known secret
// unless changed).
Result<SealedBlob> TpmSealData(TpmClient* tpm, const Bytes& data, const PcrSelection& selection,
                               const std::map<int, Bytes>& release_pcrs, const Bytes& blob_auth,
                               const Bytes& srk_secret = Tpm::WellKnownSecret());

Result<Bytes> TpmUnsealData(TpmClient* tpm, const SealedBlob& blob, const Bytes& blob_auth,
                            const Bytes& srk_secret = Tpm::WellKnownSecret());

// Owner-authorized NV space definition.
Status TpmDefineNvSpace(TpmClient* tpm, uint32_t index, size_t size,
                        const PcrSelection& write_selection, const std::map<int, Bytes>& write_pcrs,
                        const Bytes& owner_secret);

// Owner-authorized monotonic-counter creation.
Result<uint32_t> TpmCreateCounter(TpmClient* tpm, const Bytes& counter_auth,
                                  const Bytes& owner_secret);

}  // namespace flicker

#endif  // FLICKER_SRC_TPM_TPM_UTIL_H_
