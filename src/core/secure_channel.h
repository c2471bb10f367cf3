// The Secure Channel PAL module (paper §4.4.2, Fig. 6).
//
// Session 1 (inside a Flicker session): generate an RSA keypair, seal the
// private key to this PAL's own in-execution PCR 17 value, output the public
// key. An attestation over that output convinces a remote party that only
// this PAL, re-launched under Flicker, can ever use the private key.
// Session 2: unseal the private key and decrypt what the remote party sent.

#ifndef FLICKER_SRC_CORE_SECURE_CHANNEL_H_
#define FLICKER_SRC_CORE_SECURE_CHANNEL_H_

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/rsa.h"
#include "src/slb/pal.h"
#include "src/tpm/structures.h"

namespace flicker {

struct SecureChannelKeyMaterial {
  Bytes public_key;          // Serialized RsaPublicKey (K_PAL).
  Bytes sealed_private_key;  // SealedBlob ciphertext, kept by untrusted code.

  Bytes Serialize() const;
  static Result<SecureChannelKeyMaterial> Deserialize(const Bytes& data);
};

class SecureChannelModule {
 public:
  // Session-1 body. Charges the 1024-bit key-generation cost (the dominant
  // CPU cost in Fig. 9a) and the TPM Seal. The private key is sealed to the
  // *current* PCR 17, i.e., to a future session of the same PAL.
  static Result<SecureChannelKeyMaterial> GenerateAndSeal(PalContext* context,
                                                          const Bytes& blob_auth);

  // Session-2 body: recover the private key (TPM Unseal; the dominant cost
  // in Fig. 9b).
  static Result<RsaPrivateKey> UnsealPrivateKey(PalContext* context,
                                                const Bytes& sealed_private_key,
                                                const Bytes& blob_auth);

  // Session-2 body: PKCS#1 decrypt with the recovered key (charged at the
  // paper's 4.6 ms).
  static Result<Bytes> Decrypt(PalContext* context, const RsaPrivateKey& key,
                               const Bytes& ciphertext);
};

// Remote-party side: encrypt a message under an attested PAL public key.
Result<Bytes> SecureChannelEncrypt(const Bytes& serialized_public_key, const Bytes& message,
                                   Drbg* rng);

}  // namespace flicker

#endif  // FLICKER_SRC_CORE_SECURE_CHANNEL_H_
