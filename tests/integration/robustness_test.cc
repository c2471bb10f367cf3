// Robustness sweep: every wire-format parser in the tree is fed random and
// mutated inputs. Parsers guard the PAL/TCB boundary (the untrusted OS
// supplies all of these buffers), so the property is: never crash, never
// accept garbage as valid, always return a clean error - and never let a
// length field size an allocation: each decode allocates at most
// kAllocPerInputByte x input size + kAllocSlackBytes.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

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

// Counting global allocator: every operator new in this binary adds its
// request to g_allocated_bytes. Backed by malloc/free, so a sanitizer build
// still checks every block.
namespace {
size_t g_allocated_bytes = 0;

void* CountedAlloc(size_t size) {
  g_allocated_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void* operator new[](size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace flicker {
namespace {

// The allocation bound every decoder must keep (ROADMAP item 5): a decode
// may copy its input into its fields (twice for a string field: the blob,
// then the string), plus a fixed slack for error-message strings, but a
// length or count field must never size an allocation on its own. The
// largest decode measured on these inputs is 50 bytes.
constexpr size_t kAllocPerInputByte = 2;
constexpr size_t kAllocSlackBytes = 256;

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
  const std::vector<std::pair<std::string, std::function<void(const Bytes&)>>> decoders = {
      {"FactorState", [](const Bytes& in) { (void)FactorState::Deserialize(in); }},
      {"CertificateSigningRequest",
       [](const Bytes& in) { (void)CertificateSigningRequest::Deserialize(in); }},
      {"Certificate", [](const Bytes& in) { (void)Certificate::Deserialize(in); }},
      {"CaPolicy", [](const Bytes& in) { (void)CaPolicy::Deserialize(in); }},
      {"SecureChannelKeyMaterial",
       [](const Bytes& in) { (void)SecureChannelKeyMaterial::Deserialize(in); }},
      {"FlickerEventLog", [](const Bytes& in) { (void)FlickerEventLog::Deserialize(in); }},
      {"RsaPublicKey", [](const Bytes& in) { (void)RsaPublicKey::Deserialize(in); }},
      {"RsaPrivateKey", [](const Bytes& in) { (void)RsaPrivateKey::Deserialize(in); }},
      {"OsKernel regions", [](const Bytes& in) { (void)OsKernel::DeserializeRegions(in); }},
  };
  for (const Bytes& input : RandomInputs(0xfade)) {
    for (const auto& [name, decode] : decoders) {
      size_t before = g_allocated_bytes;
      decode(input);
      size_t allocated = g_allocated_bytes - before;
      EXPECT_LE(allocated, kAllocPerInputByte * input.size() + kAllocSlackBytes)
          << name << " on " << input.size() << " input bytes";
    }
  }
}

// A structured hostile policy: 2^18 empty suffixes are 1 MB of input, but
// each costs a 32-byte std::string in the decoded vector, so a decoder that
// trusts the count - the whole frame's, or one larger than the frame can
// hold - allocates several times its input.
TEST(RobustnessTest, CaPolicyCountCannotSizeTheDecode) {
  constexpr uint32_t kEmptySuffixes = 1u << 18;
  for (uint32_t count : {0xFFFFFFFFu, kEmptySuffixes}) {
    Bytes frame;
    PutUint32(&frame, count);
    frame.resize(frame.size() + size_t{kEmptySuffixes} * 4, 0);  // Zero-length strings.
    size_t before = g_allocated_bytes;
    Result<CaPolicy> policy = CaPolicy::Deserialize(frame);
    size_t allocated = g_allocated_bytes - before;
    EXPECT_FALSE(policy.ok()) << "count " << count;
    EXPECT_LE(allocated, kAllocPerInputByte * frame.size() + kAllocSlackBytes)
        << "count " << count;
  }
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
