// Hostile-input battery for the vTPM wire formats, in the table-driven
// style of the command-parser batteries: the state blob and the counter
// binding are both parsed from bytes the untrusted OS stores, so
// Deserialize must reject - never crash, never misparse - truncations,
// length lies, and every single-byte flip of a valid encoding.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/serde.h"
#include "src/crypto/sha1.h"
#include "src/vtpm/vtpm_state.h"

namespace flicker {
namespace vtpm {
namespace {

VtpmCounterBinding MakeBinding() {
  VtpmCounterBinding binding;
  binding.counter_id = 42;
  binding.counter_value = 1234567;
  binding.tenant_tag = TenantTag("tenant-a");
  return binding;
}

VtpmState MakeState() {
  VtpmState state = VtpmState::Fresh("tenant-a", Sha1::Digest(BytesOf("auth")));
  state.generation = 5;
  state.extends = 2;
  state.binding = MakeBinding();
  state.pcrs[3] = Sha1::Digest(BytesOf("measured"));
  return state;
}

// A hand-built binding encoding with one field lied about; the checksum is
// recomputed so it alone cannot save the parser.
Bytes BindingWithLie(const std::string& lie) {
  Writer w;
  w.U32(0x56434231);  // Magic.
  w.U32(42);
  w.U64(1234567);
  if (lie == "short-tag") {
    w.Blob(Bytes(19, 0xaa));
  } else if (lie == "long-tag") {
    w.Blob(Bytes(21, 0xaa));
  } else if (lie == "huge-tag") {
    w.Blob(Bytes(4096, 0xaa));
  } else if (lie == "trailing") {
    w.Blob(Bytes(20, 0xaa));
    w.U32(0xdeadbeef);
  } else if (lie == "missing-tag") {
    // No tag blob at all.
  }
  Bytes body = w.Take();
  uint32_t crc = 0x811C9DC5u;
  for (uint8_t byte : body) {
    crc = (crc ^ byte) * 0x01000193u;
  }
  PutUint32(&body, crc);
  return body;
}

TEST(VtpmWireBatteryTest, BindingTruncationSweepRejectsEveryPrefix) {
  const Bytes wire = MakeBinding().Serialize();
  for (size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_FALSE(VtpmCounterBinding::Deserialize(truncated).ok())
        << "prefix of " << len << "/" << wire.size() << " bytes parsed";
  }
}

TEST(VtpmWireBatteryTest, BindingSingleByteFlipSweepRejectsEveryFlip) {
  const Bytes wire = MakeBinding().Serialize();
  for (size_t i = 0; i < wire.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      Bytes mutated = wire;
      mutated[i] ^= flip;
      EXPECT_FALSE(VtpmCounterBinding::Deserialize(mutated).ok())
          << "flip 0x" << std::hex << int(flip) << " at byte " << std::dec << i << " parsed";
    }
  }
}

TEST(VtpmWireBatteryTest, BindingLengthLiesAreRejected) {
  for (const char* lie : {"short-tag", "long-tag", "huge-tag", "trailing", "missing-tag"}) {
    EXPECT_FALSE(VtpmCounterBinding::Deserialize(BindingWithLie(lie)).ok())
        << "length lie '" << lie << "' parsed";
  }
}

TEST(VtpmWireBatteryTest, BindingGarbageAndEmptyAreRejected) {
  EXPECT_FALSE(VtpmCounterBinding::Deserialize(Bytes()).ok());
  EXPECT_FALSE(VtpmCounterBinding::Deserialize(Bytes(3, 0x00)).ok());
  EXPECT_FALSE(VtpmCounterBinding::Deserialize(Bytes(64, 0xff)).ok());
  // Right sizes, wrong magic.
  Bytes wire = MakeBinding().Serialize();
  wire[0] ^= 0xff;
  EXPECT_FALSE(VtpmCounterBinding::Deserialize(wire).ok());
}

TEST(VtpmWireBatteryTest, StateTruncationSweepRejectsEveryPrefix) {
  const Bytes wire = MakeState().Serialize();
  for (size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_FALSE(VtpmState::Deserialize(truncated).ok())
        << "prefix of " << len << "/" << wire.size() << " bytes parsed";
  }
}

TEST(VtpmWireBatteryTest, StateSingleByteFlipSweepRejectsEveryFlip) {
  const Bytes wire = MakeState().Serialize();
  for (size_t i = 0; i < wire.size(); ++i) {
    Bytes mutated = wire;
    mutated[i] ^= 0x01;
    EXPECT_FALSE(VtpmState::Deserialize(mutated).ok())
        << "flip at byte " << i << " of " << wire.size() << " parsed";
  }
}

TEST(VtpmWireBatteryTest, StateStructuralLiesAreRejected) {
  // Each case re-serializes a corrupted struct through the honest writer, so
  // checksums and framing are valid and only the semantic check can refuse.
  {
    VtpmState state = MakeState();
    state.tenant = std::string(kMaxTenantNameLen + 1, 'x');
    state.binding.tenant_tag = TenantTag(state.tenant);
    EXPECT_FALSE(VtpmState::Deserialize(state.Serialize()).ok()) << "oversize tenant parsed";
  }
  {
    VtpmState state = MakeState();
    state.tenant.clear();
    EXPECT_FALSE(VtpmState::Deserialize(state.Serialize()).ok()) << "empty tenant parsed";
  }
  {
    VtpmState state = MakeState();
    state.owner_auth = Bytes(8, 0x01);
    EXPECT_FALSE(VtpmState::Deserialize(state.Serialize()).ok()) << "short owner auth parsed";
  }
  {
    VtpmState state = MakeState();
    state.pcrs[5] = Bytes(64, 0x01);
    EXPECT_FALSE(VtpmState::Deserialize(state.Serialize()).ok()) << "oversize vPCR parsed";
  }
  {
    // Cross-tenant swap: state blob for tenant-a carrying tenant-b's tag.
    VtpmState state = MakeState();
    state.binding.tenant_tag = TenantTag("tenant-b");
    EXPECT_FALSE(VtpmState::Deserialize(state.Serialize()).ok()) << "cross-tenant tag parsed";
  }
}

TEST(VtpmWireBatteryTest, HonestEncodingsStillParseAfterTheSweeps) {
  // Guard against a battery that "passes" because everything is rejected.
  EXPECT_TRUE(VtpmCounterBinding::Deserialize(MakeBinding().Serialize()).ok());
  EXPECT_TRUE(VtpmState::Deserialize(MakeState().Serialize()).ok());
}

}  // namespace
}  // namespace vtpm
}  // namespace flicker
