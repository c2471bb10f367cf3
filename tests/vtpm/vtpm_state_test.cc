// VtpmState / VirtualTpm unit coverage: wire round-trips, hardware-faithful
// vPCR extend semantics, the composite digest, and the owner-auth gate. The
// hostile-input battery for the same formats lives in vtpm_wire_test.cc.

#include <gtest/gtest.h>

#include "src/crypto/sha1.h"
#include "src/vtpm/vtpm.h"
#include "src/vtpm/vtpm_state.h"

namespace flicker {
namespace vtpm {
namespace {

VtpmState MakeState() {
  VtpmState state = VtpmState::Fresh("tenant-a", Sha1::Digest(BytesOf("auth")));
  state.generation = 7;
  state.extends = 3;
  state.binding.counter_id = 42;
  state.binding.counter_value = 9;
  return state;
}

TEST(VtpmStateTest, BindingRoundTrips) {
  VtpmCounterBinding binding;
  binding.counter_id = 11;
  binding.counter_value = 1234567890123ULL;
  binding.tenant_tag = TenantTag("tenant-a");

  Result<VtpmCounterBinding> back = VtpmCounterBinding::Deserialize(binding.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == binding);
}

TEST(VtpmStateTest, StateRoundTrips) {
  VtpmState state = MakeState();
  Result<VtpmState> back = VtpmState::Deserialize(state.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().tenant, state.tenant);
  EXPECT_EQ(back.value().generation, state.generation);
  EXPECT_EQ(back.value().owner_auth, state.owner_auth);
  EXPECT_EQ(back.value().pcrs, state.pcrs);
  EXPECT_TRUE(back.value().binding == state.binding);
  EXPECT_EQ(back.value().extends, state.extends);
}

TEST(VtpmStateTest, FreshStateIsAllZeroPcrsGenerationZero) {
  VtpmState state = VtpmState::Fresh("t", Bytes(20, 0x01));
  EXPECT_EQ(state.generation, 0u);
  EXPECT_EQ(state.extends, 0u);
  for (const Bytes& pcr : state.pcrs) {
    EXPECT_EQ(pcr, Bytes(20, 0x00));
  }
  EXPECT_EQ(state.binding.tenant_tag, TenantTag("t"));
}

TEST(VtpmStateTest, TenantTagIsSha1OfName) {
  EXPECT_EQ(TenantTag("tenant-a"), Sha1::Digest(BytesOf("tenant-a")));
  EXPECT_NE(TenantTag("tenant-a"), TenantTag("tenant-b"));
}

TEST(VirtualTpmTest, ExtendMatchesHardwareSemantics) {
  VirtualTpm vt(MakeState());
  Bytes measurement = Sha1::Digest(BytesOf("module"));
  Bytes before = vt.state().pcrs[2];
  ASSERT_TRUE(vt.Extend(2, measurement).ok());

  Bytes expected_input = before;
  expected_input.insert(expected_input.end(), measurement.begin(), measurement.end());
  EXPECT_EQ(vt.state().pcrs[2], Sha1::Digest(expected_input));
  EXPECT_EQ(vt.state().extends, MakeState().extends + 1);
}

TEST(VirtualTpmTest, ExtendRejectsOutOfRangeIndex) {
  VirtualTpm vt(MakeState());
  EXPECT_FALSE(vt.Extend(-1, Bytes(20, 0xaa)).ok());
  EXPECT_FALSE(vt.Extend(kNumVtpmPcrs, Bytes(20, 0xaa)).ok());
}

TEST(VirtualTpmTest, CompositeDigestTracksTheBank) {
  VirtualTpm vt(MakeState());
  Bytes before = vt.CompositeDigest();
  ASSERT_TRUE(vt.Extend(0, Bytes(20, 0x55)).ok());
  EXPECT_NE(vt.CompositeDigest(), before);

  // Two instances with identical banks agree.
  VirtualTpm other(vt.state());
  EXPECT_EQ(other.CompositeDigest(), vt.CompositeDigest());
}

TEST(VirtualTpmTest, OwnerAuthGateIsExact) {
  VirtualTpm vt(MakeState());
  EXPECT_TRUE(vt.CheckOwnerAuth(Sha1::Digest(BytesOf("auth"))));
  EXPECT_FALSE(vt.CheckOwnerAuth(Sha1::Digest(BytesOf("wrong"))));
  EXPECT_FALSE(vt.CheckOwnerAuth(Bytes()));
}

}  // namespace
}  // namespace vtpm
}  // namespace flicker
