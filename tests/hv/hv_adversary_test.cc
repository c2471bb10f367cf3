// The cross-core adversary, in unit form: an OS core attacks a protected
// PAL session from the concurrency window the classic mode never exposes -
// after HcStartSession measured and protected the slot, before the PAL
// runs. Every attack must die with its exact typed denial, no protected
// byte may change, and the attacked session must still complete
// byte-identical to an unattacked reference. The fleet-scale version of
// this battery is src/hv/hv_campaign; this suite pins each attack's
// behavior individually.

#include <memory>

#include <gtest/gtest.h>

#include "src/apps/hello.h"
#include "src/core/flicker_platform.h"
#include "src/hv/hypervisor.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

constexpr uint64_t kSecondSlot = 0x150000;

class HvAdversaryTest : public ::testing::Test {
 protected:
  HvAdversaryTest() : binary_(BuildPal(std::make_shared<HelloWorldPal>()).take()) {
    FlickerPlatformConfig config;
    config.mode = SessionMode::kConcurrent;
    config.machine.num_cpus = 4;
    config.hv.pal_slot_bases = {kSlbFixedBase, kSecondSlot};
    // TPM-free PAL, so sessions may overlap and attacks can probe both
    // slots; the mirrored seal/quote path is covered by hv_parity_test.
    config.hv.mirror_hardware_pcr = false;
    platform_ = std::make_unique<FlickerPlatform>(config);
    EXPECT_TRUE(platform_->EnsureHypervisorResident().ok());

    // The unattacked reference: one full session, recorded for comparison.
    Result<FlickerSessionResult> reference =
        platform_->ExecuteSession(binary_, BytesOf("adversary-input"));
    EXPECT_TRUE(reference.ok());
    reference_ = reference.value().record;
  }

  hv::Hypervisor* hv() { return platform_->hypervisor(); }
  Machine* machine() { return platform_->machine(); }

  // Stages the PAL and opens the protection window: returns the session id
  // with the region measured + protected but the PAL not yet run.
  uint64_t OpenProtectedSession(uint64_t slot) {
    EXPECT_TRUE(platform_->flicker_module()->WriteSlb(binary_.image).ok());
    EXPECT_TRUE(platform_->flicker_module()->WriteInputs(BytesOf("adversary-input")).ok());
    EXPECT_TRUE(platform_->flicker_module()->StageForHypervisorAt(slot).ok());
    Result<uint64_t> id = hv()->HcStartSession(slot);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? id.value() : 0;
  }

  template <typename Fn>
  void ExpectDenied(hv::HvDenial expect, Fn attack) {
    const uint64_t before = hv()->denied(expect);
    auto result = attack();
    EXPECT_FALSE(result.ok()) << "attack accepted";
    EXPECT_EQ(hv()->denied(expect), before + 1)
        << "denied, but not as " << hv::HvDenialName(expect);
  }

  // A DMA attack must be refused by DEV and must not move a single byte.
  void ExpectDmaBlocked(uint64_t addr) {
    const Bytes before = machine()->memory()->Read(addr, 16).value();
    const uint64_t blocked = machine()->dma_blocked_count();
    EXPECT_FALSE(machine()->DmaWrite(addr, BytesOf("dma-corruption!!")).ok());
    EXPECT_EQ(machine()->dma_blocked_count(), blocked + 1);
    EXPECT_EQ(machine()->memory()->Read(addr, 16).value(), before);
  }

  std::unique_ptr<FlickerPlatform> platform_;
  PalBinary binary_;
  SessionRecord reference_;
};

TEST_F(HvAdversaryTest, MidSessionBatteryIsFullyDeniedAndTheSessionSurvives) {
  const uint64_t id = OpenProtectedSession(kSlbFixedBase);
  ASSERT_NE(id, 0u);
  const Bytes slot_before =
      machine()->memory()->Read(kSlbFixedBase, kSlbAllocationSize).value();

  // DMA from an OS-driven device into the PAL's code, its inputs, and the
  // hypervisor itself.
  ExpectDmaBlocked(kSlbFixedBase + kSlbCodeOffset);
  ExpectDmaBlocked(kSlbFixedBase + kSlbInputsOffset);
  ExpectDmaBlocked(hv::kHvBase);
  EXPECT_FALSE(machine()->DmaRead(kSlbFixedBase, 64).ok()) << "DEV must block reads too";

  // Guest-mode loads/stores from OS core 0 probing the protected frames.
  const uint64_t npt_before = machine()->npt_blocked_count();
  EXPECT_FALSE(machine()->GuestWrite(0, kSlbFixedBase + kSlbCodeOffset, BytesOf("hook")).ok());
  EXPECT_FALSE(machine()->GuestRead(0, kSlbFixedBase + kSlbInputsOffset, 32).ok());
  EXPECT_FALSE(machine()->GuestWrite(0, hv::kHvBase + 16, BytesOf("vmcb-patch")).ok());
  EXPECT_EQ(machine()->npt_blocked_count(), npt_before + 3);

  // Malicious hypercalls against the live session.
  ExpectDenied(hv::HvDenial::kRegionOverlap, [&] { return hv()->HcStartSession(kSlbFixedBase); });
  ExpectDenied(hv::HvDenial::kSessionNotRunning, [&] { return hv()->HcCollectOutputs(id); });

  // Nothing moved: the protected region is bit-for-bit what was measured.
  EXPECT_EQ(machine()->memory()->Read(kSlbFixedBase, kSlbAllocationSize).value(), slot_before);

  // And the besieged session still completes byte-identical to the
  // unattacked reference.
  Result<SessionRecord> record = hv()->RunSession(id, binary_, SlbCoreOptions());
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record.value().outputs, reference_.outputs);
  EXPECT_EQ(record.value().pcr17_during_execution, reference_.pcr17_during_execution);
  EXPECT_EQ(record.value().pcr17_final, reference_.pcr17_final);
  EXPECT_TRUE(hv()->HcCollectOutputs(id).ok());
}

TEST_F(HvAdversaryTest, DualSlotSessionsAreMutuallyProtected) {
  const uint64_t first = OpenProtectedSession(kSlbFixedBase);
  const uint64_t second = OpenProtectedSession(kSecondSlot);
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);

  // Both regions are off-limits to DMA and guest probes at once.
  ExpectDmaBlocked(kSlbFixedBase + kSlbCodeOffset);
  ExpectDmaBlocked(kSecondSlot + kSlbCodeOffset);
  EXPECT_FALSE(machine()->GuestRead(1, kSlbFixedBase, 16).ok());
  EXPECT_FALSE(machine()->GuestRead(1, kSecondSlot, 16).ok());

  Result<SessionRecord> ra = hv()->RunSession(first, binary_, SlbCoreOptions());
  Result<SessionRecord> rb = hv()->RunSession(second, binary_, SlbCoreOptions());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().outputs, reference_.outputs);
  EXPECT_EQ(rb.value().outputs, reference_.outputs);
  // Slot 0 is the classic fixed base, so its chain equals the reference;
  // the second slot's patched image measures differently by construction.
  EXPECT_EQ(ra.value().pcr17_final, reference_.pcr17_final);
  EXPECT_NE(rb.value().pcr17_final, reference_.pcr17_final);
  EXPECT_TRUE(hv()->HcCollectOutputs(first).ok());
  EXPECT_TRUE(hv()->HcCollectOutputs(second).ok());
}

TEST_F(HvAdversaryTest, AmbientHypercallBatteryIsFullyTyped) {
  // Between rounds (no live session), every malformed hypercall still dies
  // with its own denial - the exact list the fleet campaign draws from.
  ExpectDenied(hv::HvDenial::kBadRegion, [&] { return hv()->HcStartSession(0x1000); });
  ExpectDenied(hv::HvDenial::kSessionNotFound,
               [&] { return hv()->RunSession(0xdead, binary_, SlbCoreOptions()); });
  ExpectDenied(hv::HvDenial::kBadHypercallParam, [&] { return hv()->HcCollectOutputs(0); });
  ExpectDenied(hv::HvDenial::kSessionNotFound, [&] { return hv()->HcCollectOutputs(0xdead); });
  ExpectDenied(hv::HvDenial::kAlreadyLaunched, [&] { return hv()->LateLaunch(); });

  // A validly staged image started on a core the OS owns (the header check
  // passes, the core hijack is what gets refused).
  ASSERT_TRUE(platform_->flicker_module()->WriteSlb(binary_.image).ok());
  ASSERT_TRUE(platform_->flicker_module()->WriteInputs(BytesOf("adversary-input")).ok());
  ASSERT_TRUE(platform_->flicker_module()->StageForHypervisorAt(kSlbFixedBase).ok());
  ExpectDenied(hv::HvDenial::kBadCore,
               [&] { return hv()->HcStartSession(kSlbFixedBase, /*requested_core=*/0); });

  ASSERT_TRUE(machine()->memory()->Write(kSlbFixedBase, Bytes{2, 0, 9, 9}).ok());
  ExpectDenied(hv::HvDenial::kBadHeader, [&] { return hv()->HcStartSession(kSlbFixedBase); });

  // The hypervisor's own frames stay sealed while idle.
  EXPECT_FALSE(machine()->GuestWrite(0, hv::kHvBase + 8, BytesOf("x")).ok());
  ExpectDmaBlocked(hv::kHvBase + 64);
}

TEST_F(HvAdversaryTest, CompletedSlotsReopenToTheOs) {
  // After a session completes and its outputs are collected, the slot
  // returns to the OS: DMA and guest traffic flow again. Protection is a
  // session property, not a permanent land grab.
  const uint64_t id = OpenProtectedSession(kSlbFixedBase);
  ASSERT_TRUE(hv()->RunSession(id, binary_, SlbCoreOptions()).ok());
  ASSERT_TRUE(hv()->HcCollectOutputs(id).ok());

  EXPECT_TRUE(machine()->DmaWrite(kSlbFixedBase + kSlbCodeOffset, BytesOf("recycled")).ok());
  EXPECT_TRUE(machine()->GuestRead(0, kSlbFixedBase, 16).ok());
}

}  // namespace
}  // namespace flicker
