#include "src/tpm/tpm_util.h"

#include "src/crypto/sha1.h"
#include "src/tpm/transport.h"

namespace flicker {

namespace tpm_util_internal {

CommandAuth MakeAuth(TpmClient* tpm, const AuthSessionInfo& session, const Bytes& secret,
                     const Bytes& param_digest) {
  CommandAuth auth;
  auth.session_handle = session.handle;
  auth.nonce_odd = tpm->GetRandom(kPcrSize);
  auth.auth = Tpm::ComputeCommandAuth(secret, param_digest, session.nonce_even, auth.nonce_odd);
  return auth;
}

}  // namespace tpm_util_internal

using tpm_util_internal::MakeAuth;

Result<SealedBlob> TpmSealData(TpmClient* tpm, const Bytes& data, const PcrSelection& selection,
                               const std::map<int, Bytes>& release_pcrs, const Bytes& blob_auth,
                               const Bytes& srk_secret) {
  AuthSessionInfo session = tpm->StartOiap();
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_Seal"), data, selection.Serialize()));
  CommandAuth auth = MakeAuth(tpm, session, srk_secret, param_digest);
  Result<SealedBlob> blob = tpm->Seal(data, selection, release_pcrs, blob_auth, auth);
  tpm->TerminateSession(session.handle);
  return blob;
}

Result<Bytes> TpmUnsealData(TpmClient* tpm, const SealedBlob& blob, const Bytes& blob_auth,
                            const Bytes& srk_secret) {
  AuthSessionInfo session = tpm->StartOiap();
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_Unseal"), blob.ciphertext));
  CommandAuth auth = MakeAuth(tpm, session, srk_secret, param_digest);
  Result<Bytes> data = tpm->Unseal(blob, blob_auth, auth);
  tpm->TerminateSession(session.handle);
  return data;
}

Status TpmDefineNvSpace(TpmClient* tpm, uint32_t index, size_t size,
                        const PcrSelection& write_selection, const std::map<int, Bytes>& write_pcrs,
                        const Bytes& owner_secret) {
  AuthSessionInfo session = tpm->StartOiap();
  Bytes param_digest =
      Sha1::Digest(Concat(BytesOf("TPM_NV_DefineSpace"), write_selection.Serialize()));
  CommandAuth auth = MakeAuth(tpm, session, owner_secret, param_digest);
  Status st = tpm->NvDefineSpace(index, size, write_selection, write_pcrs, auth);
  tpm->TerminateSession(session.handle);
  return st;
}

Result<uint32_t> TpmCreateCounter(TpmClient* tpm, const Bytes& counter_auth,
                                  const Bytes& owner_secret) {
  AuthSessionInfo session = tpm->StartOiap();
  Bytes param_digest = Sha1::Digest(Concat(BytesOf("TPM_CreateCounter"), counter_auth));
  CommandAuth auth = MakeAuth(tpm, session, owner_secret, param_digest);
  Result<uint32_t> id = tpm->CreateCounter(counter_auth, auth);
  tpm->TerminateSession(session.handle);
  return id;
}

}  // namespace flicker
