// The simulated SVM platform: SKINIT preconditions and effects, DEV/DMA
// blocking, timing calibration, APIC handshakes, reboot semantics.

#include "src/hw/machine.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/sha1.h"
#include "src/obs/trace.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

// Builds a minimal raw SLB image: header (length, entry) + filler code.
Bytes RawSlb(uint16_t length, uint16_t entry) {
  Bytes image(kSlbRegionSize, 0);
  image[0] = static_cast<uint8_t>(length);
  image[1] = static_cast<uint8_t>(length >> 8);
  image[2] = static_cast<uint8_t>(entry);
  image[3] = static_cast<uint8_t>(entry >> 8);
  for (size_t i = 4; i < length; ++i) {
    image[i] = static_cast<uint8_t>(i * 31);
  }
  return image;
}

constexpr uint64_t kBase = 0x100000;

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : machine_(MachineConfig{}) {}

  void StageSlb(const Bytes& image) {
    ASSERT_TRUE(machine_.memory()->Write(kBase, image).ok());
  }

  void ParkAps() {
    for (int i = 1; i < machine_.num_cpus(); ++i) {
      machine_.cpu(i)->state = CpuState::kIdle;
      ASSERT_TRUE(machine_.apic()->SendInitIpi(i).ok());
    }
  }

  Machine machine_;
};

TEST_F(MachineTest, SkinitHappyPath) {
  StageSlb(RawSlb(4096, 156));
  ParkAps();
  Result<SkinitLaunch> launch = machine_.Skinit(0, kBase);
  ASSERT_TRUE(launch.ok()) << launch.status().ToString();
  EXPECT_EQ(launch.value().slb_length, 4096);
  EXPECT_EQ(launch.value().entry_point, 156);
  EXPECT_TRUE(machine_.in_secure_session());

  // Hardware protections engaged.
  EXPECT_FALSE(machine_.bsp()->interrupts_enabled);
  EXPECT_FALSE(machine_.bsp()->debug_access_enabled);
  EXPECT_FALSE(machine_.bsp()->paging_enabled);
  EXPECT_TRUE(machine_.dev()->Blocks(kBase, 1));
  EXPECT_TRUE(machine_.dev()->Blocks(kBase + kSlbRegionSize - 1, 1));
  EXPECT_FALSE(machine_.dev()->Blocks(kBase + kSlbRegionSize, 1));

  // PCR 17 holds H(0^20 || H(SLB prefix)).
  Bytes slb_bytes = machine_.memory()->Read(kBase, 4096).value();
  EXPECT_EQ(machine_.tpm()->PcrRead(17).value(),
            ExpectedPcr17AfterSkinit(Sha1::Digest(slb_bytes)));
  EXPECT_EQ(launch.value().measurement, Sha1::Digest(slb_bytes));
}

TEST_F(MachineTest, SkinitRequiresRing0) {
  StageSlb(RawSlb(4096, 156));
  ParkAps();
  machine_.bsp()->ring = 3;
  Result<SkinitLaunch> launch = machine_.Skinit(0, kBase);
  ASSERT_FALSE(launch.ok());
  EXPECT_EQ(launch.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(MachineTest, SkinitRequiresBsp) {
  StageSlb(RawSlb(4096, 156));
  ParkAps();
  Result<SkinitLaunch> launch = machine_.Skinit(1, kBase);
  ASSERT_FALSE(launch.ok());
  EXPECT_EQ(launch.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MachineTest, SkinitRequiresParkedAps) {
  StageSlb(RawSlb(4096, 156));
  // APs still running: the INIT handshake cannot complete.
  Result<SkinitLaunch> launch = machine_.Skinit(0, kBase);
  ASSERT_FALSE(launch.ok());
  EXPECT_EQ(launch.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MachineTest, SkinitRejectsMalformedHeaders) {
  ParkAps();
  StageSlb(RawSlb(2, 0));  // Length smaller than the header itself.
  EXPECT_FALSE(machine_.Skinit(0, kBase).ok());
  StageSlb(RawSlb(4096, 5000));  // Entry beyond length.
  EXPECT_FALSE(machine_.Skinit(0, kBase).ok());
}

TEST_F(MachineTest, SkinitRejectsOutOfBoundsRegion) {
  ParkAps();
  EXPECT_FALSE(machine_.Skinit(0, machine_.memory()->size() - 100).ok());
  EXPECT_FALSE(machine_.Skinit(5, kBase).ok());  // Bad CPU index.
}

TEST_F(MachineTest, SkinitRejectsNestedSession) {
  StageSlb(RawSlb(4096, 156));
  ParkAps();
  ASSERT_TRUE(machine_.Skinit(0, kBase).ok());
  Result<SkinitLaunch> second = machine_.Skinit(0, kBase);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MachineTest, SkinitTimingMatchesTable2) {
  // Table 2: SLB sizes 4/16/32/64 KB -> 11.9/45.0/89.2/177.5 ms. Our model
  // is cpu_setup + 2.76 ms/KB; verify the linear shape within ~15%.
  struct Row {
    uint16_t kb;
    double paper_ms;
  };
  for (const Row& row : {Row{4, 11.9}, Row{16, 45.0}, Row{32, 89.2}}) {
    Machine machine{MachineConfig{}};
    Bytes image = RawSlb(static_cast<uint16_t>(row.kb * 1024), 156);
    ASSERT_TRUE(machine.memory()->Write(kBase, image).ok());
    for (int i = 1; i < machine.num_cpus(); ++i) {
      machine.cpu(i)->state = CpuState::kIdle;
      ASSERT_TRUE(machine.apic()->SendInitIpi(i).ok());
    }
    double before = machine.clock()->NowMillis();
    ASSERT_TRUE(machine.Skinit(0, kBase).ok());
    double elapsed = machine.clock()->NowMillis() - before;
    EXPECT_NEAR(elapsed, row.paper_ms, row.paper_ms * 0.15) << row.kb << " KB";
  }
}

TEST_F(MachineTest, DmaBlockedInsideSlbDuringSession) {
  StageSlb(RawSlb(4096, 156));
  ParkAps();
  ASSERT_TRUE(machine_.Skinit(0, kBase).ok());

  // A malicious DMA device tries to overwrite PAL code: the DEV blocks it.
  Status write = machine_.DmaWrite(kBase + 200, Bytes(16, 0xee));
  EXPECT_EQ(write.code(), StatusCode::kPermissionDenied);
  Result<Bytes> read = machine_.DmaRead(kBase + 200, 16);
  EXPECT_EQ(read.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(machine_.dma_blocked_count(), 2u);

  // DMA elsewhere still works (devices keep running, §7.5).
  EXPECT_TRUE(machine_.DmaWrite(0x800000, Bytes(16, 0x11)).ok());
}

TEST_F(MachineTest, ExitSecureModeRestoresPlatform) {
  StageSlb(RawSlb(4096, 156));
  ParkAps();
  ASSERT_TRUE(machine_.Skinit(0, kBase).ok());
  ASSERT_TRUE(machine_.ExitSecureMode(0, 0x2000).ok());

  EXPECT_FALSE(machine_.in_secure_session());
  EXPECT_TRUE(machine_.bsp()->interrupts_enabled);
  EXPECT_TRUE(machine_.bsp()->paging_enabled);
  EXPECT_TRUE(machine_.bsp()->debug_access_enabled);
  EXPECT_EQ(machine_.bsp()->cr3, 0x2000u);
  EXPECT_FALSE(machine_.dev()->Blocks(kBase, kSlbRegionSize));
  EXPECT_EQ(machine_.tpm()->locality(), 0);

  // DMA into the former SLB region is allowed again.
  EXPECT_TRUE(machine_.DmaWrite(kBase + 200, Bytes(4, 1)).ok());
}

TEST_F(MachineTest, ExitSecureModeWithoutSessionFails) {
  EXPECT_EQ(machine_.ExitSecureMode(0, 0).code(), StatusCode::kFailedPrecondition);
}

TEST_F(MachineTest, RebootResetsEverything) {
  ASSERT_TRUE(machine_.tpm()->PcrExtend(0, Bytes(kPcrSize, 2)).ok());
  StageSlb(RawSlb(4096, 156));
  ParkAps();
  ASSERT_TRUE(machine_.Skinit(0, kBase).ok());

  std::vector<std::string> reboot_spans;
  {
    obs::ScopedTracer tracer(machine_.clock());
    machine_.Reboot();
    for (const obs::SpanRecord& span : tracer.spans()) {
      if (std::string(span.category) == "tpm") {
        reboot_spans.push_back(span.name);
      }
    }
  }
  // The reset line, then the BIOS's TPM_Startup(ST_CLEAR) as a wire frame.
  EXPECT_EQ(reboot_spans, (std::vector<std::string>{"HW_Init", "TPM_ORD_Startup"}));

  EXPECT_FALSE(machine_.in_secure_session());
  EXPECT_FALSE(machine_.dev()->Blocks(kBase, 1));
  // The TPM answers again at locality 0. Dynamic PCRs are back to -1, so a
  // reboot is distinguishable from a SKINIT reset; statics are zero.
  EXPECT_EQ(machine_.tpm_transport()->locality(), 0);
  Result<Bytes> pcr17 = machine_.tpm()->PcrRead(kSkinitPcr);
  ASSERT_TRUE(pcr17.ok()) << pcr17.status().ToString();
  EXPECT_EQ(pcr17.value(), Bytes(kPcrSize, 0xff));
  for (int i = 0; i < kFirstDynamicPcr; ++i) {
    EXPECT_EQ(machine_.tpm()->PcrRead(i).value(), Bytes(kPcrSize, 0x00)) << "PCR " << i;
  }
  for (int i = 0; i < machine_.num_cpus(); ++i) {
    EXPECT_EQ(machine_.cpu(i)->state, CpuState::kRunning);
  }
}

TEST_F(MachineTest, ApicRejectsBadIpis) {
  EXPECT_FALSE(machine_.apic()->SendInitIpi(0).ok());   // BSP.
  EXPECT_FALSE(machine_.apic()->SendInitIpi(9).ok());   // Out of range.
  EXPECT_FALSE(machine_.apic()->SendInitIpi(1).ok());   // Still running.
  machine_.cpu(1)->state = CpuState::kIdle;
  EXPECT_TRUE(machine_.apic()->SendInitIpi(1).ok());
  EXPECT_EQ(machine_.cpu(1)->state, CpuState::kInit);
  EXPECT_TRUE(machine_.apic()->SendStartupIpi(1).ok());
  EXPECT_EQ(machine_.cpu(1)->state, CpuState::kRunning);
}

TEST(SegmentStateTest, ContainsChecksBounds) {
  SegmentState segment{0x1000, 0xfff};  // [0x1000, 0x2000).
  EXPECT_TRUE(segment.Contains(0x1000, 1));
  EXPECT_TRUE(segment.Contains(0x1fff, 1));
  EXPECT_TRUE(segment.Contains(0x1000, 0x1000));
  EXPECT_FALSE(segment.Contains(0x0fff, 1));
  EXPECT_FALSE(segment.Contains(0x2000, 1));
  EXPECT_FALSE(segment.Contains(0x1fff, 2));
}

TEST(PhysicalMemoryTest, BoundsChecking) {
  PhysicalMemory memory(1024);
  EXPECT_TRUE(memory.Write(0, Bytes(1024, 1)).ok());
  EXPECT_FALSE(memory.Write(1, Bytes(1024, 1)).ok());
  EXPECT_TRUE(memory.Read(1000, 24).ok());
  EXPECT_FALSE(memory.Read(1000, 25).ok());
  EXPECT_TRUE(memory.Erase(0, 1024).ok());
  EXPECT_FALSE(memory.Erase(1024, 1).ok());
  EXPECT_EQ(memory.Read(0, 4).value(), Bytes(4, 0));

  // Fresh memory reads back zeros over its full range.
  PhysicalMemory fresh(3 * 4096 + 17);
  EXPECT_EQ(fresh.Read(0, fresh.size()).value(), Bytes(fresh.size(), 0));

  // Erase zero-fills and dirties only the watches it overlaps.
  int low = fresh.RegisterWatch(0, 4096);
  int high = fresh.RegisterWatch(8192, 4096);
  ASSERT_TRUE(fresh.Write(8190, Bytes(4, 0x5A)).ok());
  EXPECT_FALSE(fresh.IsWatchDirty(low));
  EXPECT_TRUE(fresh.IsWatchDirty(high));
  fresh.ClearWatchDirty(high);
  ASSERT_TRUE(fresh.Erase(8188, 8).ok());
  EXPECT_TRUE(fresh.IsWatchDirty(high));
  EXPECT_FALSE(fresh.IsWatchDirty(low));
  EXPECT_EQ(fresh.Read(0, fresh.size()).value(), Bytes(fresh.size(), 0));

  // A default 64 MB machine builds, and its memory starts zeroed at the top.
  Machine machine(MachineConfig{});
  ASSERT_EQ(machine.memory()->size(), 64u * 1024 * 1024);
  EXPECT_EQ(machine.memory()->Read(machine.memory()->size() - 4096, 4096).value(),
            Bytes(4096, 0));
}

TEST(DevTest, OverlapSemantics) {
  DeviceExclusionVector dev;
  dev.Protect(100, 50);
  EXPECT_TRUE(dev.Blocks(100, 1));
  EXPECT_TRUE(dev.Blocks(149, 1));
  EXPECT_TRUE(dev.Blocks(90, 20));
  EXPECT_TRUE(dev.Blocks(140, 20));
  EXPECT_FALSE(dev.Blocks(150, 10));
  EXPECT_FALSE(dev.Blocks(50, 50));
  dev.Unprotect(100, 50);
  EXPECT_FALSE(dev.Blocks(100, 1));
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.NowMicros(), 0u);
  clock.AdvanceMillis(1.5);
  EXPECT_EQ(clock.NowMicros(), 1500u);
  clock.AdvanceMicros(500);
  EXPECT_DOUBLE_EQ(clock.NowMillis(), 2.0);
  SimStopwatch watch(&clock);
  clock.AdvanceMillis(10);
  EXPECT_DOUBLE_EQ(watch.ElapsedMillis(), 10.0);
  clock.AdvanceMillis(-5);  // Negative advances are ignored.
  EXPECT_DOUBLE_EQ(clock.NowMillis(), 12.0);
}

}  // namespace
}  // namespace flicker
