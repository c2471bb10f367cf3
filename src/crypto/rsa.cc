#include "src/crypto/rsa.h"

#include <cassert>

#include "src/crypto/montgomery.h"
#include "src/crypto/sha1.h"

namespace flicker {

namespace {

// DigestInfo DER prefix for SHA-1 (RFC 3447 §9.2).
constexpr uint8_t kSha1DigestInfoPrefix[] = {0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e,
                                             0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14};

constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,  59,  61,  67,
    71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
    163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257,
    263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367,
    373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467,
    479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599,
    601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709,
    719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829,
    839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967,
    971, 977, 983, 991, 997};

void PutLengthPrefixed(Bytes* out, const BigInt& v) {
  Bytes bytes = v.ToBytesBe();
  PutUint32(out, static_cast<uint32_t>(bytes.size()));
  out->insert(out->end(), bytes.begin(), bytes.end());
}

bool GetLengthPrefixed(const Bytes& in, size_t* offset, BigInt* out) {
  if (*offset + 4 > in.size()) {
    return false;
  }
  uint32_t len = GetUint32(in, *offset);
  *offset += 4;
  if (*offset + len > in.size()) {
    return false;
  }
  Bytes bytes(in.begin() + static_cast<long>(*offset), in.begin() + static_cast<long>(*offset + len));
  *offset += len;
  *out = BigInt::FromBytesBe(bytes);
  return true;
}

BigInt RandomBits(size_t bits, Drbg* rng) {
  size_t bytes = (bits + 7) / 8;
  Bytes b = rng->Generate(bytes);
  // Clear excess high bits, then force the top bit so the product has full
  // modulus width.
  size_t excess = bytes * 8 - bits;
  b[0] = static_cast<uint8_t>(b[0] & (0xff >> excess));
  b[0] = static_cast<uint8_t>(b[0] | (0x80 >> excess));
  return BigInt::FromBytesBe(b);
}

}  // namespace

Bytes RsaPublicKey::Serialize() const {
  Bytes out;
  PutLengthPrefixed(&out, n);
  PutLengthPrefixed(&out, e);
  return out;
}

Result<RsaPublicKey> RsaPublicKey::Deserialize(const Bytes& data) {
  RsaPublicKey key;
  size_t offset = 0;
  if (!GetLengthPrefixed(data, &offset, &key.n) || !GetLengthPrefixed(data, &offset, &key.e) ||
      offset != data.size()) {
    return InvalidArgumentError("malformed RSA public key serialization");
  }
  if (key.n.IsZero() || key.e.IsZero()) {
    return InvalidArgumentError("RSA public key fields must be nonzero");
  }
  return key;
}

Bytes RsaPrivateKey::Serialize() const {
  Bytes out;
  PutLengthPrefixed(&out, pub.n);
  PutLengthPrefixed(&out, pub.e);
  PutLengthPrefixed(&out, d);
  PutLengthPrefixed(&out, p);
  PutLengthPrefixed(&out, q);
  PutLengthPrefixed(&out, dp);
  PutLengthPrefixed(&out, dq);
  PutLengthPrefixed(&out, qinv);
  return out;
}

Result<RsaPrivateKey> RsaPrivateKey::Deserialize(const Bytes& data) {
  RsaPrivateKey key;
  size_t offset = 0;
  bool ok = GetLengthPrefixed(data, &offset, &key.pub.n) &&
            GetLengthPrefixed(data, &offset, &key.pub.e) &&
            GetLengthPrefixed(data, &offset, &key.d) && GetLengthPrefixed(data, &offset, &key.p) &&
            GetLengthPrefixed(data, &offset, &key.q) && GetLengthPrefixed(data, &offset, &key.dp) &&
            GetLengthPrefixed(data, &offset, &key.dq) &&
            GetLengthPrefixed(data, &offset, &key.qinv) && offset == data.size();
  if (!ok) {
    return InvalidArgumentError("malformed RSA private key serialization");
  }
  if (key.pub.n.IsZero() || key.d.IsZero()) {
    return InvalidArgumentError("RSA private key fields must be nonzero");
  }
  return key;
}

bool IsProbablePrime(const BigInt& candidate, Drbg* rng) {
  if (candidate < BigInt(2)) {
    return false;
  }
  if (candidate == BigInt(2)) {
    return true;
  }
  if (!candidate.IsOdd()) {
    return false;
  }
  for (uint32_t p : kSmallPrimes) {
    BigInt small(p);
    if (candidate == small) {
      return true;
    }
    if ((candidate % small).IsZero()) {
      return false;
    }
  }

  // Miller-Rabin: candidate - 1 = d * 2^r.
  BigInt n_minus_1 = candidate - BigInt(1);
  BigInt d = n_minus_1;
  size_t r = 0;
  while (!d.IsOdd()) {
    d = d >> 1;
    ++r;
  }

  // One Montgomery context per candidate, shared by every round's
  // exponentiation and squaring chain (candidate is odd > 2 here).
  Result<MontgomeryContext> mont = MontgomeryContext::Create(candidate);
  const MontgomeryContext& ctx = mont.value();

  // Rounds follow Handbook of Applied Cryptography Table 4.4: large random
  // candidates need very few rounds for a negligible error bound; small
  // inputs (where adversarial composites are plausible) get the full 40.
  size_t candidate_bits = candidate.BitLength();
  const int kRounds = candidate_bits >= 512 ? 8 : (candidate_bits >= 256 ? 16 : 40);
  for (int round = 0; round < kRounds; ++round) {
    // Witness in [2, candidate - 2].
    size_t bits = candidate.BitLength();
    BigInt a;
    do {
      Bytes raw = rng->Generate((bits + 7) / 8);
      a = BigInt::FromBytesBe(raw) % n_minus_1;
    } while (a < BigInt(2));

    BigInt x = ctx.ModExp(a, d);
    if (x == BigInt(1) || x == n_minus_1) {
      continue;
    }
    bool composite = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      x = ctx.ModMul(x, x);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) {
      return false;
    }
  }
  return true;
}

RsaPrivateKey RsaGenerateKey(size_t bits, Drbg* rng) {
  assert(bits >= 512 && bits % 2 == 0);
  const BigInt e(65537);
  size_t prime_bits = bits / 2;

  auto generate_prime = [&]() {
    for (;;) {
      BigInt candidate = RandomBits(prime_bits, rng);
      if (!candidate.IsOdd()) {
        candidate = candidate + BigInt(1);
      }
      if (!IsProbablePrime(candidate, rng)) {
        continue;
      }
      // e must be invertible mod (p-1).
      if (BigInt::Gcd(candidate - BigInt(1), e) != BigInt(1)) {
        continue;
      }
      return candidate;
    }
  };

  for (;;) {
    BigInt p = generate_prime();
    BigInt q = generate_prime();
    if (p == q) {
      continue;
    }
    if (p < q) {
      std::swap(p, q);
    }
    BigInt n = p * q;
    if (n.BitLength() != bits) {
      continue;
    }
    BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    BigInt d = BigInt::ModInverse(e, phi);
    if (d.IsZero()) {
      continue;
    }

    RsaPrivateKey key;
    key.pub.n = n;
    key.pub.e = e;
    key.d = d;
    key.p = p;
    key.q = q;
    key.dp = d % (p - BigInt(1));
    key.dq = d % (q - BigInt(1));
    key.qinv = BigInt::ModInverse(q, p);
    return key;
  }
}

BigInt RsaPublicOp(const RsaPublicKey& key, const BigInt& m) {
  return BigInt::ModExp(m, key.e, key.n);
}

BigInt RsaPrivateOp(const RsaPrivateKey& key, const BigInt& c) {
  // CRT: m1 = c^dp mod p, m2 = c^dq mod q, h = qinv (m1 - m2) mod p, with a
  // Montgomery context per prime half.
  Result<MontgomeryContext> mont_p = MontgomeryContext::Create(key.p);
  Result<MontgomeryContext> mont_q = MontgomeryContext::Create(key.q);
  if (!mont_p.ok() || !mont_q.ok()) {
    // Degenerate key material (e.g. deserialized without CRT parameters):
    // fall back to the non-CRT private exponentiation.
    return BigInt::ModExp(c, key.d, key.pub.n);
  }
  BigInt m1 = mont_p.value().ModExp(c % key.p, key.dp);
  BigInt m2 = mont_q.value().ModExp(c % key.q, key.dq);
  const BigInt m2_mod_p = m2 % key.p;
  BigInt diff = m1 >= m2_mod_p ? m1 - m2_mod_p : (m1 + key.p) - m2_mod_p;
  BigInt h = mont_p.value().ModMul(key.qinv, diff);
  return m2 + h * key.q;
}

Result<Bytes> RsaEncryptPkcs1(const RsaPublicKey& key, const Bytes& message, Drbg* rng) {
  size_t k = key.ModulusBytes();
  if (message.size() + 11 > k) {
    return InvalidArgumentError("PKCS#1 message too long for modulus");
  }
  // EM = 0x00 || 0x02 || PS (nonzero random) || 0x00 || M.
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x02);
  size_t ps_len = k - message.size() - 3;
  while (em.size() < 2 + ps_len) {
    Bytes r = rng->Generate(ps_len);
    for (uint8_t b : r) {
      if (b != 0 && em.size() < 2 + ps_len) {
        em.push_back(b);
      }
    }
  }
  em.push_back(0x00);
  em.insert(em.end(), message.begin(), message.end());

  BigInt m = BigInt::FromBytesBe(em);
  BigInt c = RsaPublicOp(key, m);
  return c.ToBytesBe(k);
}

Result<Bytes> RsaDecryptPkcs1(const RsaPrivateKey& key, const Bytes& ciphertext) {
  size_t k = key.pub.ModulusBytes();
  if (ciphertext.size() != k) {
    return InvalidArgumentError("PKCS#1 ciphertext length mismatch");
  }
  BigInt c = BigInt::FromBytesBe(ciphertext);
  if (c >= key.pub.n) {
    return InvalidArgumentError("PKCS#1 ciphertext out of range");
  }
  BigInt m = RsaPrivateOp(key, c);
  Bytes em = m.ToBytesBe(k);
  if (em[0] != 0x00 || em[1] != 0x02) {
    return IntegrityFailureError("PKCS#1 decryption: bad block type");
  }
  size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) {
    ++sep;
  }
  if (sep < 10 || sep == em.size()) {
    return IntegrityFailureError("PKCS#1 decryption: bad padding");
  }
  return Bytes(em.begin() + static_cast<long>(sep) + 1, em.end());
}

Bytes RsaSignSha1(const RsaPrivateKey& key, const Bytes& message) {
  size_t k = key.pub.ModulusBytes();
  Bytes digest = Sha1::Digest(message);

  Bytes t(kSha1DigestInfoPrefix, kSha1DigestInfoPrefix + sizeof(kSha1DigestInfoPrefix));
  t.insert(t.end(), digest.begin(), digest.end());

  assert(k >= t.size() + 11);
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), k - t.size() - 3, 0xff);
  em.push_back(0x00);
  em.insert(em.end(), t.begin(), t.end());

  BigInt m = BigInt::FromBytesBe(em);
  BigInt s = RsaPrivateOp(key, m);
  return s.ToBytesBe(k);
}

namespace {

// PKCS#1 v1.5 block-type-1 encoding of a SHA-1 digest, the value a valid
// signature must decrypt to.
Bytes EmsaPkcs1Sha1(const Bytes& digest, size_t k) {
  Bytes t(kSha1DigestInfoPrefix, kSha1DigestInfoPrefix + sizeof(kSha1DigestInfoPrefix));
  t.insert(t.end(), digest.begin(), digest.end());

  Bytes expected;
  expected.reserve(k);
  expected.push_back(0x00);
  expected.push_back(0x01);
  expected.insert(expected.end(), k - t.size() - 3, 0xff);
  expected.push_back(0x00);
  expected.insert(expected.end(), t.begin(), t.end());
  return expected;
}

}  // namespace

bool RsaVerifySha1(const RsaPublicKey& key, const Bytes& message, const Bytes& signature) {
  size_t k = key.ModulusBytes();
  if (signature.size() != k) {
    return false;
  }
  BigInt s = BigInt::FromBytesBe(signature);
  if (s >= key.n) {
    return false;
  }
  Bytes em = RsaPublicOp(key, s).ToBytesBe(k);
  return ConstantTimeEquals(em, EmsaPkcs1Sha1(Sha1::Digest(message), k));
}

}  // namespace flicker
