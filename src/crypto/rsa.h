// RSA key generation and PKCS#1 v1.5 operations, implemented from scratch on
// the BigInt library.
//
// Used in three places that mirror the paper:
//  * the TPM's 2048-bit SRK and AIK (seal/unseal, quote signatures),
//  * the secure-channel module's 1024-bit PAL keypair (§4.4.2),
//  * the CA application's 1024-bit signing key (§6.3.2).
// The paper's client encrypts passwords with PKCS#1 encryption (§6.3.1).

#ifndef FLICKER_SRC_CRYPTO_RSA_H_
#define FLICKER_SRC_CRYPTO_RSA_H_

#include <cstddef>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/bigint.h"
#include "src/crypto/drbg.h"

namespace flicker {

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }

  // Stable serialization (length-prefixed n and e), used for key fingerprints
  // and for shipping the PAL public key to remote parties.
  Bytes Serialize() const;
  static Result<RsaPublicKey> Deserialize(const Bytes& data);
};

struct RsaPrivateKey {
  RsaPublicKey pub;
  BigInt d;
  BigInt p;
  BigInt q;
  BigInt dp;    // d mod (p-1)
  BigInt dq;    // d mod (q-1)
  BigInt qinv;  // q^-1 mod p

  // Serialization for sealed-storage round trips (the SSH/CA PALs seal their
  // private keys between sessions).
  Bytes Serialize() const;
  static Result<RsaPrivateKey> Deserialize(const Bytes& data);
};

// Generates an RSA keypair with public exponent 65537. `bits` is the modulus
// size (>= 512 and a multiple of 2 required). Primality via Miller-Rabin with
// 40 rounds after small-prime trial division.
RsaPrivateKey RsaGenerateKey(size_t bits, Drbg* rng);

// Returns true iff `candidate` passes trial division and Miller-Rabin.
bool IsProbablePrime(const BigInt& candidate, Drbg* rng);

// Raw RSA with CRT speedup for the private operation.
BigInt RsaPublicOp(const RsaPublicKey& key, const BigInt& m);
BigInt RsaPrivateOp(const RsaPrivateKey& key, const BigInt& c);

// PKCS#1 v1.5 encryption (block type 2 with random nonzero padding).
// Message must be at most modulus_bytes - 11.
Result<Bytes> RsaEncryptPkcs1(const RsaPublicKey& key, const Bytes& message, Drbg* rng);
Result<Bytes> RsaDecryptPkcs1(const RsaPrivateKey& key, const Bytes& ciphertext);

// PKCS#1 v1.5 signature (block type 1) over SHA-1 with the standard
// DigestInfo encoding.
Bytes RsaSignSha1(const RsaPrivateKey& key, const Bytes& message);
bool RsaVerifySha1(const RsaPublicKey& key, const Bytes& message, const Bytes& signature);

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_RSA_H_
