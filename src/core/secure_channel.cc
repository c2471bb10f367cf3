#include "src/core/secure_channel.h"

#include "src/core/sealed_state.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {

Bytes SecureChannelKeyMaterial::Serialize() const {
  Bytes out;
  PutUint32(&out, static_cast<uint32_t>(public_key.size()));
  out.insert(out.end(), public_key.begin(), public_key.end());
  PutUint32(&out, static_cast<uint32_t>(sealed_private_key.size()));
  out.insert(out.end(), sealed_private_key.begin(), sealed_private_key.end());
  return out;
}

Result<SecureChannelKeyMaterial> SecureChannelKeyMaterial::Deserialize(const Bytes& data) {
  SecureChannelKeyMaterial material;
  size_t pos = 0;
  if (data.size() < 4) {
    return InvalidArgumentError("key material truncated");
  }
  uint32_t pub_len = GetUint32(data, pos);
  pos += 4;
  if (pos + pub_len + 4 > data.size()) {
    return InvalidArgumentError("key material truncated");
  }
  material.public_key.assign(data.begin() + static_cast<long>(pos),
                             data.begin() + static_cast<long>(pos + pub_len));
  pos += pub_len;
  uint32_t sealed_len = GetUint32(data, pos);
  pos += 4;
  if (pos + sealed_len != data.size()) {
    return InvalidArgumentError("key material truncated");
  }
  material.sealed_private_key.assign(data.begin() + static_cast<long>(pos), data.end());
  return material;
}

Result<SecureChannelKeyMaterial> SecureChannelModule::GenerateAndSeal(PalContext* context,
                                                                      const Bytes& blob_auth) {
  // Seed key generation from the TPM's RNG (the paper pulls 128 bytes via
  // TPM_GetRandom to seed a PRNG).
  Bytes seed = context->tpm()->GetRandom(128);
  Drbg rng(seed);
  context->ChargeRsaKeygen1024();
  RsaPrivateKey key = RsaGenerateKey(1024, &rng);

  // Seal the private key to this PAL's current PCR 17.
  Result<Bytes> pcr17 = context->tpm()->PcrRead(kSkinitPcr);
  if (!pcr17.ok()) {
    return pcr17.status();
  }
  Result<SealedBlob> sealed =
      SealForPal(context->tpm(), key.Serialize(), pcr17.value(), blob_auth);
  if (!sealed.ok()) {
    return sealed.status();
  }

  SecureChannelKeyMaterial material;
  material.public_key = key.pub.Serialize();
  material.sealed_private_key = sealed.value().Serialize();
  return material;
}

Result<RsaPrivateKey> SecureChannelModule::UnsealPrivateKey(PalContext* context,
                                                            const Bytes& sealed_private_key,
                                                            const Bytes& blob_auth) {
  SealedBlob blob = SealedBlob::Deserialize(sealed_private_key);
  Result<Bytes> serialized = UnsealInPal(context->tpm(), blob, blob_auth);
  if (!serialized.ok()) {
    return serialized.status();
  }
  return RsaPrivateKey::Deserialize(serialized.value());
}

Result<Bytes> SecureChannelModule::Decrypt(PalContext* context, const RsaPrivateKey& key,
                                           const Bytes& ciphertext) {
  context->ChargeRsaDecrypt1024();
  return RsaDecryptPkcs1(key, ciphertext);
}

Result<Bytes> SecureChannelEncrypt(const Bytes& serialized_public_key, const Bytes& message,
                                   Drbg* rng) {
  Result<RsaPublicKey> key = RsaPublicKey::Deserialize(serialized_public_key);
  if (!key.ok()) {
    return key.status();
  }
  return RsaEncryptPkcs1(key.value(), message, rng);
}

}  // namespace flicker
