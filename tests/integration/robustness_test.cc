// Robustness sweep: every wire-format parser in the tree is fed random and
// mutated inputs. Parsers guard the PAL/TCB boundary (the untrusted OS
// supplies all of these buffers), so the property is: never crash, never
// accept garbage as valid, always return a clean error.

#include <gtest/gtest.h>

#include "src/apps/ca.h"
#include "src/apps/distributed.h"
#include "src/attest/event_log.h"
#include "src/core/secure_channel.h"
#include "src/crypto/drbg.h"
#include "src/crypto/rsa.h"
#include "src/os/kernel.h"
#include "src/tpm/tpm.h"
#include "src/tpm/tpm_util.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

// Random buffers of assorted sizes.
std::vector<Bytes> RandomInputs(uint64_t seed) {
  Drbg rng(seed);
  std::vector<Bytes> inputs;
  inputs.push_back(Bytes());
  for (size_t len : {1u, 2u, 3u, 4u, 7u, 8u, 16u, 32u, 100u, 1000u, 5000u}) {
    inputs.push_back(rng.Generate(len));
  }
  return inputs;
}

TEST(RobustnessTest, AllParsersSurviveRandomInput) {
  for (const Bytes& input : RandomInputs(0xfade)) {
    (void)FactorState::Deserialize(input);
    (void)CertificateSigningRequest::Deserialize(input);
    (void)Certificate::Deserialize(input);
    (void)CaPolicy::Deserialize(input);
    (void)SecureChannelKeyMaterial::Deserialize(input);
    (void)FlickerEventLog::Deserialize(input);
    (void)RsaPublicKey::Deserialize(input);
    (void)RsaPrivateKey::Deserialize(input);
    (void)OsKernel::DeserializeRegions(input);
  }
  SUCCEED();  // The property is "no crash / no UB".
}

TEST(RobustnessTest, RandomInputNeverParsesAsValidKey) {
  // A 5000-byte random buffer must not satisfy the length-prefixed key
  // grammar by accident (the prefixes make this astronomically unlikely;
  // this guards against a parser that ignores its length fields).
  for (const Bytes& input : RandomInputs(0xbead)) {
    if (input.size() < 8) {
      continue;
    }
    Result<RsaPrivateKey> key = RsaPrivateKey::Deserialize(input);
    EXPECT_FALSE(key.ok());
  }
}

TEST(RobustnessTest, UnsealSurvivesRandomBlobs) {
  SimClock clock;
  Tpm tpm(&clock, InfineonProfile());
  TpmTransport transport(&tpm);
  TpmClient client(&transport);
  Bytes auth = Bytes(20, 7);
  for (const Bytes& input : RandomInputs(0xcafe)) {
    Result<Bytes> out = TpmUnsealData(&client, SealedBlob{input}, auth);
    EXPECT_FALSE(out.ok());
  }
}

// Single-byte mutations of *valid* wire forms must be rejected or parse to
// something different - never crash.
TEST(RobustnessTest, MutatedValidStructuresSurvive) {
  Certificate cert;
  cert.serial = 7;
  cert.subject = "host.example.org";
  cert.subject_public_key = BytesOf("key");
  cert.issuer = "CA";
  cert.signature = BytesOf("sig");
  Bytes wire = cert.Serialize();

  Drbg rng(0xfeed);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = wire;
    size_t pos = rng.UniformUint64(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(rng.UniformUint64(255) + 1);
    Result<Certificate> parsed = Certificate::Deserialize(mutated);
    if (parsed.ok()) {
      // If it still parses, it must differ somewhere or the mutation hit a
      // byte the grammar ignores - there are none in this format, so the
      // parsed value must not equal the original in all fields.
      bool identical = parsed.value().serial == cert.serial &&
                       parsed.value().subject == cert.subject &&
                       parsed.value().subject_public_key == cert.subject_public_key &&
                       parsed.value().issuer == cert.issuer &&
                       parsed.value().signature == cert.signature;
      EXPECT_FALSE(identical);
    }
  }
}

TEST(RobustnessTest, TruncationsOfValidStructuresSurvive) {
  FlickerEventLog log;
  log.pal_name = "p";
  log.claimed_measurement = Bytes(20, 1);
  log.inputs = BytesOf("in");
  log.outputs = BytesOf("out");
  log.nonce = Bytes(20, 2);
  log.pal_extends = {Bytes(20, 3)};
  Bytes wire = log.Serialize();
  for (size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_FALSE(FlickerEventLog::Deserialize(truncated).ok()) << "len " << len;
  }
}

}  // namespace
}  // namespace flicker
