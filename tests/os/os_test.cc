// The untrusted-OS layer: kernel images, scheduler/hotplug, the
// flicker-module staging flow, block-device behaviour under suspension, and
// the quote daemon.

#include <gtest/gtest.h>

#include "src/crypto/drbg.h"
#include "src/os/devices.h"
#include "src/os/flicker_module.h"
#include "src/os/kernel.h"
#include "src/os/scheduler.h"
#include "src/os/tqd.h"
#include "src/slb/slb_core.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

class OsTest : public ::testing::Test {
 protected:
  OsTest() : machine_(MachineConfig{}), kernel_(&machine_), scheduler_(&machine_) {}

  // The measured regions as the rootkit detector receives them.
  std::vector<KernelRegion> Regions() const {
    return OsKernel::DeserializeRegions(kernel_.SerializeRegions()).value();
  }

  Machine machine_;
  OsKernel kernel_;
  Scheduler scheduler_;
};

TEST_F(OsTest, KernelRegionsAndMeasurement) {
  std::vector<KernelRegion> regions = Regions();
  ASSERT_EQ(regions.size(), 5u);  // text + syscall table + 3 modules.
  EXPECT_EQ(regions[0].name, "text");
  EXPECT_EQ(regions[1].name, "syscall_table");
  EXPECT_EQ(regions[2].name, "module:ext3");

  EXPECT_EQ(kernel_.CurrentMeasurement(), kernel_.pristine_measurement());
  EXPECT_FALSE(kernel_.tampered());
}

TEST_F(OsTest, RegionSerializationRoundTrip) {
  Bytes wire = kernel_.SerializeRegions();
  Result<std::vector<KernelRegion>> back = OsKernel::DeserializeRegions(wire);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 5u);
  EXPECT_EQ(back.value()[0].base, KernelConfig().text_base);
  EXPECT_EQ(back.value()[4].size, KernelConfig().modules[2].second);

  EXPECT_FALSE(OsKernel::DeserializeRegions(Bytes(2, 0)).ok());
  EXPECT_FALSE(OsKernel::DeserializeRegions(BytesOf("garbage....")).ok());
}

TEST_F(OsTest, SyscallHookChangesMeasurement) {
  Bytes before = kernel_.CurrentMeasurement();
  ASSERT_TRUE(kernel_.InstallSyscallHook(42).ok());
  EXPECT_TRUE(kernel_.tampered());
  EXPECT_NE(kernel_.CurrentMeasurement(), before);

  ASSERT_TRUE(kernel_.RestorePristine().ok());
  EXPECT_EQ(kernel_.CurrentMeasurement(), before);
  EXPECT_FALSE(kernel_.tampered());

  // Text patches and hooks together: RestorePristine undoes both.
  ASSERT_TRUE(kernel_.PatchText(0x1000, BytesOf("\xcc\xcc\xcc\xcc")).ok());
  ASSERT_TRUE(kernel_.InstallSyscallHook(7).ok());
  ASSERT_NE(kernel_.CurrentMeasurement(), kernel_.pristine_measurement());
  ASSERT_TRUE(kernel_.RestorePristine().ok());
  EXPECT_EQ(kernel_.CurrentMeasurement(), kernel_.pristine_measurement());
}

TEST_F(OsTest, KernelImageIsAFunctionOfLayout) {
  // The image is the content DRBG's output (seed 0x2620), region after
  // region in measurement order.
  Drbg content(0x2620);
  for (const KernelRegion& region : Regions()) {
    EXPECT_EQ(machine_.memory()->Read(region.base, region.size).value(),
              content.Generate(region.size))
        << region.name;
  }

  // A second machine with the same config holds the same bytes.
  Machine twin_machine(MachineConfig{});
  OsKernel twin(&twin_machine);
  for (const KernelRegion& region : Regions()) {
    EXPECT_EQ(twin_machine.memory()->Read(region.base, region.size).value(),
              machine_.memory()->Read(region.base, region.size).value())
        << region.name;
  }
  EXPECT_EQ(twin.pristine_measurement(), kernel_.pristine_measurement());
  EXPECT_EQ(twin.CurrentMeasurement(), twin.pristine_measurement());

  // A resized region is another image.
  KernelConfig resized;
  resized.syscall_table_size = 8192;
  Machine resized_machine(MachineConfig{});
  OsKernel resized_kernel(&resized_machine, resized);
  EXPECT_NE(resized_kernel.pristine_measurement(), kernel_.pristine_measurement());
  EXPECT_EQ(resized_kernel.CurrentMeasurement(), resized_kernel.pristine_measurement());

  // A moved region carries its bytes to the new base; the old one stays zero.
  KernelConfig moved;
  moved.modules_base += 0x100000;
  Machine moved_machine(MachineConfig{});
  OsKernel moved_kernel(&moved_machine, moved);
  const KernelRegion module = Regions()[2];
  EXPECT_EQ(moved_machine.memory()->Read(module.base + 0x100000, module.size).value(),
            machine_.memory()->Read(module.base, module.size).value());
  EXPECT_EQ(moved_machine.memory()->Read(module.base, module.size).value(),
            Bytes(module.size, 0));
  EXPECT_EQ(moved_kernel.CurrentMeasurement(), moved_kernel.pristine_measurement());
  ASSERT_TRUE(moved_kernel.PatchText(0, Bytes(4, 0x90)).ok());
  ASSERT_TRUE(moved_kernel.RestorePristine().ok());
  EXPECT_EQ(moved_kernel.CurrentMeasurement(), moved_kernel.pristine_measurement());
}

TEST_F(OsTest, TextPatchChangesMeasurement) {
  Bytes before = kernel_.CurrentMeasurement();
  ASSERT_TRUE(kernel_.PatchText(0x1000, BytesOf("\xcc\xcc\xcc\xcc")).ok());
  EXPECT_NE(kernel_.CurrentMeasurement(), before);
  EXPECT_FALSE(kernel_.PatchText(3 * 1024 * 1024, Bytes(4, 0)).ok());
  EXPECT_FALSE(kernel_.InstallSyscallHook(100000).ok());
}

TEST_F(OsTest, HotplugParksAps) {
  // INIT IPI must fail while the AP runs.
  EXPECT_FALSE(machine_.apic()->SendInitIpi(1).ok());

  ASSERT_TRUE(scheduler_.DescheduleAps().ok());
  EXPECT_EQ(machine_.cpu(1)->state, CpuState::kIdle);
  EXPECT_TRUE(machine_.apic()->SendInitIpi(1).ok());

  ASSERT_TRUE(scheduler_.RestoreAps().ok());
  EXPECT_EQ(machine_.cpu(1)->state, CpuState::kRunning);
}

class FlickerModuleTest : public ::testing::Test {
 protected:
  FlickerModuleTest()
      : machine_(MachineConfig{}),
        kernel_(&machine_),
        scheduler_(&machine_),
        module_(&machine_, &kernel_, &scheduler_) {}

  Bytes MinimalSlb() {
    Bytes image(kSlbRegionSize, 0);
    uint16_t length = 4096;
    uint16_t entry = kSlbCodeOffset;
    image[0] = static_cast<uint8_t>(length);
    image[1] = static_cast<uint8_t>(length >> 8);
    image[2] = static_cast<uint8_t>(entry);
    image[3] = static_cast<uint8_t>(entry >> 8);
    return image;
  }

  Machine machine_;
  OsKernel kernel_;
  Scheduler scheduler_;
  FlickerModule module_;
};

TEST_F(FlickerModuleTest, RejectsBadStaging) {
  EXPECT_FALSE(module_.WriteSlb(Bytes(100, 0)).ok());          // Not 64 KB.
  EXPECT_FALSE(module_.WriteInputs(Bytes(kSlbIoPageSize, 0)).ok());
  EXPECT_EQ(module_.StartSession().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(module_.FinishSession().code(), StatusCode::kFailedPrecondition);
}

TEST_F(FlickerModuleTest, FullStagingFlow) {
  ASSERT_TRUE(module_.WriteSlb(MinimalSlb()).ok());
  ASSERT_TRUE(module_.WriteInputs(BytesOf("input data")).ok());

  Result<SkinitLaunch> launch = module_.StartSession();
  ASSERT_TRUE(launch.ok()) << launch.status().ToString();
  EXPECT_TRUE(machine_.in_secure_session());
  EXPECT_EQ(launch.value().slb_base, kSlbFixedBase);

  // Inputs and saved state landed on their pages.
  EXPECT_EQ(ReadIoPage(*machine_.memory(), kSlbFixedBase + kSlbInputsOffset).value(),
            BytesOf("input data"));
  Bytes saved = ReadIoPage(*machine_.memory(), kSlbFixedBase + kSlbSavedStateOffset).value();
  ASSERT_EQ(saved.size(), 8u);
  EXPECT_EQ(GetUint64(saved, 0), kernel_.cr3());

  // Simulate the SLB core's resume, then teardown.
  ASSERT_TRUE(WriteIoPage(machine_.memory(), kSlbFixedBase + kSlbOutputsOffset,
                          BytesOf("output data"))
                  .ok());
  ASSERT_TRUE(machine_.ExitSecureMode(0, kernel_.cr3()).ok());
  ASSERT_TRUE(module_.FinishSession().ok());
  EXPECT_EQ(machine_.cpu(1)->state, CpuState::kRunning);
}

TEST_F(FlickerModuleTest, SkinitFailureRollsBackSuspension) {
  Bytes bad = MinimalSlb();
  bad[0] = 2;  // Length below header size.
  bad[1] = 0;
  ASSERT_TRUE(module_.WriteSlb(bad).ok());
  Result<SkinitLaunch> launch = module_.StartSession();
  ASSERT_FALSE(launch.ok());
  EXPECT_FALSE(machine_.in_secure_session());
  EXPECT_EQ(machine_.cpu(1)->state, CpuState::kRunning);  // APs restored.
}

TEST(BlockCopyTest, NoDataLossDuringSessions) {
  // §7.5: 1 GB copy while 8.3 s sessions run back to back with 37 ms OS
  // windows. Integrity must hold (digests equal), with zero I/O errors.
  BlockCopyParams params;
  params.total_bytes = 64ULL * 1024 * 1024;  // Scaled for test speed.
  BlockCopyReport report = SimulateBlockCopyDuringSessions(params);

  EXPECT_EQ(report.io_errors, 0u);
  EXPECT_EQ(report.bytes_delivered, params.total_bytes);
  EXPECT_EQ(report.source_digest, report.delivered_digest);
  EXPECT_GT(report.stall_events, 0u);  // The ring did fill up.
  EXPECT_GT(report.elapsed_ms, 0.0);
}

TEST(BlockCopyTest, NoSessionsNoStalls) {
  BlockCopyParams params;
  params.total_bytes = 8ULL * 1024 * 1024;
  params.session_ms = 0.0;
  params.os_window_ms = 1000.0;
  BlockCopyReport report = SimulateBlockCopyDuringSessions(params);
  EXPECT_EQ(report.stall_events, 0u);
  EXPECT_DOUBLE_EQ(report.stall_ms, 0.0);
  EXPECT_EQ(report.source_digest, report.delivered_digest);
}

TEST(TqdTest, QuoteWhileOsRuns) {
  Machine machine{MachineConfig{}};
  TpmQuoteDaemon tqd(&machine);
  Result<AttestationResponse> response =
      tqd.HandleChallenge(Bytes(20, 7), PcrSelection({kSkinitPcr}));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().quote.nonce, Bytes(20, 7));
  EXPECT_EQ(response.value().aik_public, machine.tpm()->aik_public().Serialize());
}

TEST(TqdTest, RefusesWhileSuspended) {
  Machine machine{MachineConfig{}};
  // Enter a session manually.
  Bytes image(kSlbRegionSize, 0);
  image[0] = 0x00;
  image[1] = 0x10;  // length 4096
  image[2] = 0x9c;
  image[3] = 0x00;  // entry 156
  ASSERT_TRUE(machine.memory()->Write(0x100000, image).ok());
  for (int i = 1; i < machine.num_cpus(); ++i) {
    machine.cpu(i)->state = CpuState::kIdle;
    ASSERT_TRUE(machine.apic()->SendInitIpi(i).ok());
  }
  ASSERT_TRUE(machine.Skinit(0, 0x100000).ok());

  TpmQuoteDaemon tqd(&machine);
  Result<AttestationResponse> response = tqd.HandleChallenge(Bytes(20, 7), PcrSelection({17}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace flicker
