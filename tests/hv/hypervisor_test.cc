// The minimal SVM hypervisor (§9 concurrent execution): late launch and
// residency, the typed denial taxonomy, nested-page + DEV protections, the
// mirrored/non-mirrored PCR 17 contract, slot lifecycle, and eviction by
// every reset flavour.

#include <memory>

#include <gtest/gtest.h>

#include "src/apps/hello.h"
#include "src/core/flicker_platform.h"
#include "src/hv/hypervisor.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

FlickerPlatformConfig ConcurrentConfig() {
  FlickerPlatformConfig config;
  config.mode = SessionMode::kConcurrent;
  return config;
}

// A concurrent platform with two PAL slots and enough cores to dedicate
// one per slot (the default 64 MB map leaves 0x150000 clear: it sits right
// above the hypervisor's 64 KB SKINIT region at 0x140000).
FlickerPlatformConfig DualSlotConfig(bool mirror) {
  FlickerPlatformConfig config;
  config.mode = SessionMode::kConcurrent;
  config.machine.num_cpus = 4;
  config.hv.pal_slot_bases = {kSlbFixedBase, 0x150000};
  config.hv.mirror_hardware_pcr = mirror;
  return config;
}

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest() : binary_(BuildPal(std::make_shared<HelloWorldPal>()).take()) {}

  // Stages the hello PAL at `slot` through the untrusted module interface,
  // exactly as the concurrent platform path does.
  Status Stage(FlickerPlatform* platform, uint64_t slot) {
    FLICKER_RETURN_IF_ERROR(platform->flicker_module()->WriteSlb(binary_.image));
    FLICKER_RETURN_IF_ERROR(platform->flicker_module()->WriteInputs(BytesOf("hv-test-input")));
    return platform->flicker_module()->StageForHypervisorAt(slot);
  }

  // Runs `attack` and requires it to fail with exactly the expected typed
  // denial (the denial counter for that kind must bump).
  template <typename Fn>
  void ExpectDenied(hv::Hypervisor* hv, hv::HvDenial expect, Fn attack) {
    const uint64_t before = hv->denied(expect);
    auto result = attack();
    EXPECT_FALSE(result.ok()) << "attack was accepted";
    EXPECT_EQ(hv->denied(expect), before + 1)
        << "denied, but not as " << hv::HvDenialName(expect);
  }

  PalBinary binary_;
};

TEST_F(HypervisorTest, LateLaunchMeasuresTheLoaderIntoPcr17) {
  FlickerPlatform platform(ConcurrentConfig());
  hv::Hypervisor* hv = platform.hypervisor();
  EXPECT_FALSE(hv->resident());

  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  EXPECT_TRUE(hv->resident());
  EXPECT_EQ(hv->measurement().size(), 20u);
  // PCR 17 attests the hypervisor exactly as it would an SLB:
  // SHA1(0^20 || H(HLB)).
  EXPECT_EQ(hv->launch_pcr17(), ExpectedPcr17AfterSkinit(hv->measurement()));
  EXPECT_EQ(platform.tpm()->PcrRead(kSkinitPcr).value(), hv->launch_pcr17());

  // The HLB is synthetic and deterministic: a verifier can whitelist one
  // measurement for the whole fleet.
  FlickerPlatform other(ConcurrentConfig());
  ASSERT_TRUE(other.EnsureHypervisorResident().ok());
  EXPECT_EQ(other.hypervisor()->measurement(), hv->measurement());
}

TEST_F(HypervisorTest, RelaunchWhileResidentIsDenied) {
  FlickerPlatform platform(ConcurrentConfig());
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  ExpectDenied(platform.hypervisor(), hv::HvDenial::kAlreadyLaunched,
               [&] { return platform.hypervisor()->LateLaunch(); });
  // The idempotent platform entry point is still fine: it sees residency.
  EXPECT_TRUE(platform.EnsureHypervisorResident().ok());
}

TEST_F(HypervisorTest, HypercallsBeforeLaunchAreDenied) {
  FlickerPlatform platform(ConcurrentConfig());
  hv::Hypervisor* hv = platform.hypervisor();
  ExpectDenied(hv, hv::HvDenial::kNotLaunched, [&] { return hv->HcStartSession(kSlbFixedBase); });
  ExpectDenied(hv, hv::HvDenial::kNotLaunched,
               [&] { return hv->RunSession(1, binary_, SlbCoreOptions()); });
  ExpectDenied(hv, hv::HvDenial::kNotLaunched, [&] { return hv->HcCollectOutputs(1); });
}

TEST_F(HypervisorTest, MalformedHypercallsDieWithTypedDenials) {
  FlickerPlatform platform(ConcurrentConfig());
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  hv::Hypervisor* hv = platform.hypervisor();

  // A base that is not a configured session slot.
  ExpectDenied(hv, hv::HvDenial::kBadRegion, [&] { return hv->HcStartSession(0x1000); });
  // A staged region whose header fails the SKINIT validation rules
  // (entry_point >= length).
  ASSERT_TRUE(platform.machine()->memory()->Write(kSlbFixedBase, Bytes{2, 0, 9, 9}).ok());
  ExpectDenied(hv, hv::HvDenial::kBadHeader, [&] { return hv->HcStartSession(kSlbFixedBase); });
  // Bogus session ids.
  ExpectDenied(hv, hv::HvDenial::kSessionNotFound,
               [&] { return hv->RunSession(0xdead, binary_, SlbCoreOptions()); });
  ExpectDenied(hv, hv::HvDenial::kBadHypercallParam, [&] { return hv->HcCollectOutputs(0); });
  ExpectDenied(hv, hv::HvDenial::kSessionNotFound, [&] { return hv->HcCollectOutputs(0xdead); });
}

TEST_F(HypervisorTest, CoreRequestsAreValidated) {
  FlickerPlatform platform(DualSlotConfig(/*mirror=*/false));
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  hv::Hypervisor* hv = platform.hypervisor();

  // Cores 2 and 3 are PAL-dedicated (two slots); 0 and 1 belong to the OS.
  EXPECT_FALSE(platform.machine()->cpu(0)->pal_dedicated);
  EXPECT_TRUE(platform.machine()->cpu(2)->pal_dedicated);
  EXPECT_TRUE(platform.machine()->cpu(3)->pal_dedicated);

  ASSERT_TRUE(Stage(&platform, kSlbFixedBase).ok());
  ExpectDenied(hv, hv::HvDenial::kBadCore,
               [&] { return hv->HcStartSession(kSlbFixedBase, /*requested_core=*/0); });
  ExpectDenied(hv, hv::HvDenial::kBadCore,
               [&] { return hv->HcStartSession(kSlbFixedBase, /*requested_core=*/99); });

  // Auto-pick pins the top dedicated core; asking for that busy core by
  // name for the second slot is refused.
  Result<uint64_t> first = hv->HcStartSession(kSlbFixedBase);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(hv->FindSession(first.value())->core, 3);
  ASSERT_TRUE(Stage(&platform, 0x150000).ok());
  ExpectDenied(hv, hv::HvDenial::kNoFreeCore,
               [&] { return hv->HcStartSession(0x150000, /*requested_core=*/3); });
}

TEST_F(HypervisorTest, MirroredSessionsAreExclusive) {
  FlickerPlatform platform(DualSlotConfig(/*mirror=*/true));
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  hv::Hypervisor* hv = platform.hypervisor();

  ASSERT_TRUE(Stage(&platform, kSlbFixedBase).ok());
  Result<uint64_t> first = hv->HcStartSession(kSlbFixedBase);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // The hardware TPM has one PCR 17: a second mirrored session must wait.
  ASSERT_TRUE(Stage(&platform, 0x150000).ok());
  ExpectDenied(hv, hv::HvDenial::kTpmBusy, [&] { return hv->HcStartSession(0x150000); });

  // Once the first session completes and is collected, the slot opens up.
  ASSERT_TRUE(hv->RunSession(first.value(), binary_, SlbCoreOptions()).ok());
  ASSERT_TRUE(hv->HcCollectOutputs(first.value()).ok());
  EXPECT_TRUE(hv->HcStartSession(0x150000).ok());
}

TEST_F(HypervisorTest, NonMirroredSessionsOverlapAndLeaveTheHardwarePcrAlone) {
  FlickerPlatform platform(DualSlotConfig(/*mirror=*/false));
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  hv::Hypervisor* hv = platform.hypervisor();
  const Bytes pcr_after_launch = platform.tpm()->PcrRead(kSkinitPcr).value();

  ASSERT_TRUE(Stage(&platform, kSlbFixedBase).ok());
  Result<uint64_t> a = hv->HcStartSession(kSlbFixedBase);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(Stage(&platform, 0x150000).ok());
  Result<uint64_t> b = hv->HcStartSession(0x150000);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(hv->active_sessions(), 2);

  Result<SessionRecord> ra = hv->RunSession(a.value(), binary_, SlbCoreOptions());
  Result<SessionRecord> rb = hv->RunSession(b.value(), binary_, SlbCoreOptions());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().outputs, BytesOf("Hello, world"));
  EXPECT_EQ(rb.value().outputs, BytesOf("Hello, world"));
  // Each slot patches the image for its own base, so the two µPCR chains
  // differ from each other - and the hardware register never moved.
  EXPECT_NE(ra.value().pcr17_final, rb.value().pcr17_final);
  EXPECT_EQ(platform.tpm()->PcrRead(kSkinitPcr).value(), pcr_after_launch);
}

TEST_F(HypervisorTest, DevBlocksDmaIntoProtectedFrames) {
  FlickerPlatform platform(ConcurrentConfig());
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  Machine* machine = platform.machine();

  const Bytes before = machine->memory()->Read(hv::kHvBase, 16).value();
  uint64_t blocked = machine->dma_blocked_count();
  EXPECT_FALSE(machine->DmaWrite(hv::kHvBase + 4, BytesOf("dma-overwrite")).ok());
  EXPECT_EQ(machine->dma_blocked_count(), blocked + 1);
  EXPECT_EQ(machine->memory()->Read(hv::kHvBase, 16).value(), before);

  // An active session's slot is DEV-covered too, for reads and writes.
  ASSERT_TRUE(Stage(&platform, kSlbFixedBase).ok());
  ASSERT_TRUE(platform.hypervisor()->HcStartSession(kSlbFixedBase).ok());
  blocked = machine->dma_blocked_count();
  EXPECT_FALSE(machine->DmaWrite(kSlbFixedBase + kSlbCodeOffset, BytesOf("patch")).ok());
  EXPECT_FALSE(machine->DmaRead(kSlbFixedBase, 32).ok());
  EXPECT_EQ(machine->dma_blocked_count(), blocked + 2);

  // DMA elsewhere still works: the protections are surgical, not a blanket.
  EXPECT_TRUE(machine->DmaWrite(0x300000, BytesOf("bulk-io")).ok());
}

TEST_F(HypervisorTest, NestedPagingFaultsGuestProbesIntoProtectedFrames) {
  FlickerPlatform platform(ConcurrentConfig());
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  Machine* machine = platform.machine();
  hv::Hypervisor* hv = platform.hypervisor();

  ASSERT_TRUE(Stage(&platform, kSlbFixedBase).ok());
  ASSERT_TRUE(hv->HcStartSession(kSlbFixedBase).ok());

  const uint64_t npt_before = machine->npt_blocked_count();
  const uint64_t denials_before = hv->denied(hv::HvDenial::kNptViolation);
  EXPECT_FALSE(machine->GuestWrite(0, hv::kHvBase + 8, BytesOf("hijack")).ok());
  EXPECT_FALSE(machine->GuestRead(0, kSlbFixedBase + kSlbInputsOffset, 16).ok());
  EXPECT_EQ(machine->npt_blocked_count(), npt_before + 2);
  EXPECT_EQ(hv->denied(hv::HvDenial::kNptViolation), denials_before + 2);

  // Guest traffic to its own memory sails through the nested page tables.
  EXPECT_TRUE(machine->GuestWrite(0, 0x300000, BytesOf("os-data")).ok());
  EXPECT_TRUE(machine->GuestRead(0, 0x300000, 7).ok());
}

TEST_F(HypervisorTest, EveryResetFlavourEvictsTheHypervisor) {
  FlickerPlatform platform(ConcurrentConfig());
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());

  platform.machine()->Reboot();
  EXPECT_FALSE(platform.hypervisor()->resident());
  ExpectDenied(platform.hypervisor(), hv::HvDenial::kNotLaunched,
               [&] { return platform.hypervisor()->HcStartSession(kSlbFixedBase); });
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  EXPECT_TRUE(platform.hypervisor()->resident());

  platform.machine()->PowerCut();
  EXPECT_FALSE(platform.hypervisor()->resident());
  ASSERT_TRUE(platform.tpm()->Startup(TpmStartupType::kClear).ok());
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  EXPECT_TRUE(platform.hypervisor()->resident());
}

TEST_F(HypervisorTest, SlotLifecycleFreesOnCollect) {
  FlickerPlatform platform(ConcurrentConfig());
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());
  hv::Hypervisor* hv = platform.hypervisor();

  EXPECT_EQ(hv->FreeSlotBase(), kSlbFixedBase);
  ASSERT_TRUE(Stage(&platform, kSlbFixedBase).ok());
  Result<uint64_t> id = hv->HcStartSession(kSlbFixedBase);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(hv->FreeSlotBase(), 0u) << "single slot should be consumed";

  ASSERT_TRUE(hv->RunSession(id.value(), binary_, SlbCoreOptions()).ok());
  Result<Bytes> outputs = hv->HcCollectOutputs(id.value());
  ASSERT_TRUE(outputs.ok());
  EXPECT_EQ(hv->FreeSlotBase(), kSlbFixedBase);
  // Collection is destructive: the id is gone.
  ExpectDenied(hv, hv::HvDenial::kSessionNotFound, [&] { return hv->HcCollectOutputs(id.value()); });
}

TEST_F(HypervisorTest, ConcurrentSessionNeverSuspendsTheOs) {
  FlickerPlatform platform(ConcurrentConfig());
  ASSERT_TRUE(platform.EnsureHypervisorResident().ok());

  Result<FlickerSessionResult> result =
      platform.ExecuteSession(binary_, BytesOf("concurrent-input"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok());
  EXPECT_EQ(result.value().outputs(), BytesOf("Hello, world"));
  // No per-session SKINIT, no suspend, and the OS pause is only the
  // hypercall/world-switch slivers - a strict subset of the session.
  EXPECT_EQ(result.value().skinit_ms, 0);
  EXPECT_EQ(result.value().suspend_ms, 0);
  EXPECT_GT(result.value().os_pause_ms, 0);
  EXPECT_LT(result.value().os_pause_ms, result.value().session_total_ms / 5);
  // The OS core stayed a live hypervisor guest throughout.
  EXPECT_TRUE(platform.machine()->cpu(0)->guest_mode);
  EXPECT_TRUE(platform.machine()->cpu(0)->interrupts_enabled);
}

}  // namespace
}  // namespace flicker
