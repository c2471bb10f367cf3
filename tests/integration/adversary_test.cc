// Integration tests for the §3.1 adversary: a ring-0 attacker who controls
// the OS and DMA devices, plus the platform extensions (TXT launch, PAL
// execution budget, cross-PAL sealed handoff).

#include <memory>

#include <gtest/gtest.h>

#include "src/apps/hello.h"
#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/core/sealed_state.h"
#include "src/crypto/sha1.h"
#include "src/os/devices.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

// A PAL that holds a secret in SLB memory for a while (giving an attacker's
// DMA device a window to aim at).
class DmaTargetPal : public Pal {
 public:
  explicit DmaTargetPal(Machine* machine) : machine_(machine) {}
  std::string name() const override { return "dma-target"; }
  std::vector<std::string> required_modules() const override { return {}; }
  size_t app_code_bytes() const override { return 128; }
  Status Execute(PalContext* context) override {
    // Write a secret into the SLB stack area.
    FLICKER_RETURN_IF_ERROR(
        machine_->memory()->Write(context->slb_base() + kSlbStackOffset, BytesOf("pal-secret")));

    // Mid-session, a compromised NIC tries to read and overwrite it by DMA.
    DmaDevice evil_nic(machine_, "evil-nic");
    Result<Bytes> stolen = evil_nic.ReadFrom(context->slb_base() + kSlbStackOffset, 10);
    Status smashed =
        evil_nic.WriteTo(context->slb_base() + kSlbCodeOffset, Bytes(16, 0xcc));
    read_blocked_ = !stolen.ok();
    write_blocked_ = !smashed.ok();

    // But DMA to memory outside the SLB region still works (devices keep
    // running during sessions, §7.5).
    outside_allowed_ = evil_nic.WriteTo(0x800000, Bytes(16, 0x11)).ok();
    return context->SetOutputs(BytesOf("done"));
  }

  bool read_blocked_ = false;
  bool write_blocked_ = false;
  bool outside_allowed_ = false;

 private:
  Machine* machine_;
};

TEST(AdversaryTest, DmaIntoSlbBlockedDuringSession) {
  FlickerPlatform platform;
  auto pal = std::make_shared<DmaTargetPal>(platform.machine());
  Result<PalBinary> binary = BuildPal(pal);
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().ok());
  EXPECT_TRUE(pal->read_blocked_);
  EXPECT_TRUE(pal->write_blocked_);
  EXPECT_TRUE(pal->outside_allowed_);
  EXPECT_EQ(platform.machine()->dma_blocked_count(), 2u);

  // After the session the DEV is clear again.
  DmaDevice nic(platform.machine(), "nic");
  EXPECT_TRUE(nic.WriteTo(kSlbFixedBase + kSlbStackOffset, Bytes(4, 0)).ok());
}

TEST(AdversaryTest, RebootCannotForgeSkinitPcr) {
  // After a reboot, dynamic PCRs hold -1. Software extends can never reach a
  // value of the form H(0^20 || m): the attacker cannot simulate SKINIT.
  FlickerPlatform platform;
  platform.machine()->Reboot();
  TpmClient* tpm = platform.tpm();
  EXPECT_EQ(tpm->PcrRead(kSkinitPcr).value(), Bytes(kPcrSize, 0xff));

  Result<PalBinary> binary = BuildPal(std::make_shared<HelloWorldPal>());
  ASSERT_TRUE(binary.ok());
  // Try to replicate the PAL's execution PCR by extending its measurement.
  ASSERT_TRUE(tpm->PcrExtend(kSkinitPcr, binary.value().skinit_measurement).ok());
  EXPECT_NE(tpm->PcrRead(kSkinitPcr).value(), ComputeExecutionPcr17(binary.value()));
}

TEST(AdversaryTest, SealedHandoffBetweenTwoDifferentPals) {
  // §4.3.1's P -> P' pattern: a producer PAL seals data for a *different*
  // consumer PAL; only the consumer (under Flicker) can read it.
  FlickerPlatform platform;
  Bytes auth = Sha1::Digest(BytesOf("handoff"));

  class ConsumerPal : public Pal {
   public:
    ConsumerPal(Bytes sealed, Bytes auth) : sealed_(std::move(sealed)), auth_(std::move(auth)) {}
    ConsumerPal() = default;
    std::string name() const override { return "consumer"; }
    std::vector<std::string> required_modules() const override {
      return {kModuleTpmDriver, kModuleTpmUtilities};
    }
    size_t app_code_bytes() const override { return 200; }
    Status Execute(PalContext* context) override {
      Result<Bytes> secret =
          UnsealInPal(context->tpm(), SealedBlob::Deserialize(sealed_), auth_);
      if (!secret.ok()) {
        return secret.status();
      }
      return context->SetOutputs(secret.value());
    }

   private:
    Bytes sealed_;
    Bytes auth_;
  };

  class ProducerPal : public Pal {
   public:
    ProducerPal(Bytes target_pcr, Bytes auth)
        : target_pcr_(std::move(target_pcr)), auth_(std::move(auth)) {}
    std::string name() const override { return "producer"; }
    std::vector<std::string> required_modules() const override {
      return {kModuleTpmDriver, kModuleTpmUtilities};
    }
    size_t app_code_bytes() const override { return 200; }
    Status Execute(PalContext* context) override {
      Result<SealedBlob> blob =
          SealForPal(context->tpm(), BytesOf("from P to P'"), target_pcr_, auth_);
      if (!blob.ok()) {
        return blob.status();
      }
      return context->SetOutputs(blob.value().Serialize());
    }

   private:
    Bytes target_pcr_;
    Bytes auth_;
  };

  // The producer needs the consumer's execution-PCR value, which is public
  // (derived from the consumer's published binary).
  Result<PalBinary> consumer_shape = BuildPal(std::make_shared<ConsumerPal>());
  ASSERT_TRUE(consumer_shape.ok());
  Bytes consumer_pcr = ComputeExecutionPcr17(consumer_shape.value());

  Result<PalBinary> producer =
      BuildPal(std::make_shared<ProducerPal>(consumer_pcr, auth));
  ASSERT_TRUE(producer.ok());
  Result<FlickerSessionResult> produce = platform.ExecuteSession(producer.value(), Bytes());
  ASSERT_TRUE(produce.ok());
  ASSERT_TRUE(produce.value().ok()) << produce.value().record.pal_status.ToString();
  Bytes sealed = produce.value().outputs();

  // The OS itself cannot unseal it.
  EXPECT_FALSE(UnsealInPal(platform.tpm(), SealedBlob::Deserialize(sealed), auth).ok());

  // The consumer PAL can.
  Result<PalBinary> consumer = BuildPal(std::make_shared<ConsumerPal>(sealed, auth));
  ASSERT_TRUE(consumer.ok());
  ASSERT_EQ(consumer.value().skinit_measurement, consumer_shape.value().skinit_measurement);
  Result<FlickerSessionResult> consume = platform.ExecuteSession(consumer.value(), Bytes());
  ASSERT_TRUE(consume.ok());
  ASSERT_TRUE(consume.value().ok()) << consume.value().record.pal_status.ToString();
  EXPECT_EQ(consume.value().outputs(), BytesOf("from P to P'"));

  // The producer cannot read back its own gift.
  class GreedyProducer : public ProducerPal {
   public:
    GreedyProducer(Bytes sealed, Bytes auth)
        : ProducerPal(Bytes(kPcrSize, 0), auth), sealed_(std::move(sealed)), auth2_(auth) {}
    Status Execute(PalContext* context) override {
      Result<Bytes> secret =
          UnsealInPal(context->tpm(), SealedBlob::Deserialize(sealed_), auth2_);
      return secret.ok() ? Status::Ok() : secret.status();
    }

   private:
    Bytes sealed_;
    Bytes auth2_;
  };
  Result<PalBinary> greedy = BuildPal(std::make_shared<GreedyProducer>(sealed, auth));
  ASSERT_TRUE(greedy.ok());
  Result<FlickerSessionResult> steal = platform.ExecuteSession(greedy.value(), Bytes());
  ASSERT_TRUE(steal.ok());
  EXPECT_FALSE(steal.value().ok());
}

// ---- Intel TXT launch ----

TEST(TxtTest, SessionRunsAndChainsThroughAcm) {
  FlickerPlatformConfig config;
  config.machine.tech = LateLaunchTech::kIntelTxt;
  FlickerPlatform platform(config);

  Result<PalBinary> binary = BuildPal(std::make_shared<HelloWorldPal>());
  ASSERT_TRUE(binary.ok());
  Bytes nonce = Sha1::Digest(BytesOf("txt-nonce"));
  SlbCoreOptions options;
  options.nonce = nonce;
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().ok());
  EXPECT_EQ(result.value().outputs(), BytesOf("Hello, world"));

  // The execution PCR includes the SINIT ACM link; the SVM chain does not
  // match, the TXT chain does.
  EXPECT_NE(result.value().record.pcr17_during_execution,
            ComputeExecutionPcr17(binary.value(), LateLaunchTech::kAmdSvm));
  EXPECT_EQ(result.value().record.pcr17_during_execution,
            ComputeExecutionPcr17(binary.value(), LateLaunchTech::kIntelTxt));

  SessionExpectation expectation;
  expectation.binary = &binary.value();
  expectation.inputs = Bytes();
  expectation.outputs = result.value().outputs();
  expectation.nonce = nonce;
  expectation.tech = LateLaunchTech::kIntelTxt;
  EXPECT_EQ(result.value().record.pcr17_final, ComputeExpectedPcr17(expectation));
}

TEST(TxtTest, SenterRequiresSmx) {
  MachineConfig config;
  config.tech = LateLaunchTech::kIntelTxt;
  Machine machine(config);
  machine.bsp()->smx_enabled = false;
  for (int i = 1; i < machine.num_cpus(); ++i) {
    machine.cpu(i)->state = CpuState::kIdle;
    ASSERT_TRUE(machine.apic()->SendInitIpi(i).ok());
  }
  Bytes image(kSlbRegionSize, 0);
  image[0] = 0x00;
  image[1] = 0x10;
  ASSERT_TRUE(machine.memory()->Write(0x100000, image).ok());
  Result<SkinitLaunch> launch = machine.Senter(0, 0x100000);
  ASSERT_FALSE(launch.ok());
  EXPECT_EQ(launch.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TxtTest, SvmSealedBlobNotReadableOnTxtChain) {
  // The same PAL has different execution PCRs on SVM vs TXT platforms, so
  // sealed state does not leak across technologies.
  Result<PalBinary> binary = BuildPal(std::make_shared<HelloWorldPal>());
  ASSERT_TRUE(binary.ok());
  EXPECT_NE(ComputeExecutionPcr17(binary.value(), LateLaunchTech::kAmdSvm),
            ComputeExecutionPcr17(binary.value(), LateLaunchTech::kIntelTxt));
}

// ---- PAL execution budget (§5.1.2 timing restrictions) ----

class RunawayPal : public Pal {
 public:
  std::string name() const override { return "runaway"; }
  std::vector<std::string> required_modules() const override { return {}; }
  size_t app_code_bytes() const override { return 64; }
  Status Execute(PalContext* context) override {
    // An infinite loop, as seen by the platform clock.
    for (int i = 0; i < 1000000; ++i) {
      context->ChargeRsaKeygen1024();
      Status st = context->SetOutputs(BytesOf("still running"));
      if (!st.ok()) {
        return st;  // The SLB-core timer fired.
      }
    }
    return Status::Ok();
  }
};

TEST(WatchdogTest, RunawayPalIsTerminated) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<RunawayPal>());
  ASSERT_TRUE(binary.ok());
  SlbCoreOptions options;
  options.max_pal_ms = 500;
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().ok());
  EXPECT_EQ(result.value().record.pal_status.code(), StatusCode::kResourceExhausted);
  // The OS got its machine back.
  EXPECT_FALSE(platform.machine()->in_secure_session());
  EXPECT_TRUE(platform.machine()->bsp()->interrupts_enabled);
  // And the pause was bounded near the budget, not the PAL's million rounds.
  EXPECT_LT(result.value().session_total_ms, 1000.0);
}

TEST(WatchdogTest, WellBehavedPalUnaffected) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<HelloWorldPal>());
  ASSERT_TRUE(binary.ok());
  SlbCoreOptions options;
  options.max_pal_ms = 500;
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().ok());
  EXPECT_EQ(result.value().outputs(), BytesOf("Hello, world"));
}

TEST(WatchdogTest, BudgetMustCoverTpmOperations) {
  // §5.1.2's caveat: "a PAL may need some minimal amount of time to allow
  // TPM operations to complete". A budget below the unseal latency starves
  // any sealed-storage PAL.
  FlickerPlatform platform;
  class UnsealishPal : public Pal {
   public:
    std::string name() const override { return "unsealish"; }
    std::vector<std::string> required_modules() const override {
      return {kModuleTpmDriver, kModuleTpmUtilities};
    }
    size_t app_code_bytes() const override { return 128; }
    Status Execute(PalContext* context) override {
      // Unseal-scale latency (five 1024-bit key generations, ~0.93 s),
      // then try to produce output.
      context->tpm()->GetRandom(16);
      for (int i = 0; i < 5; ++i) {
        context->ChargeRsaKeygen1024();
      }
      return context->SetOutputs(BytesOf("late result"));
    }
  };
  Result<PalBinary> binary = BuildPal(std::make_shared<UnsealishPal>());
  ASSERT_TRUE(binary.ok());

  SlbCoreOptions tight;
  tight.max_pal_ms = 100;  // Below one TPM unseal.
  Result<FlickerSessionResult> starved = platform.ExecuteSession(binary.value(), Bytes(), tight);
  ASSERT_TRUE(starved.ok());
  EXPECT_FALSE(starved.value().ok());

  SlbCoreOptions generous;
  generous.max_pal_ms = 2000;
  Result<FlickerSessionResult> fine = platform.ExecuteSession(binary.value(), Bytes(), generous);
  ASSERT_TRUE(fine.ok());
  EXPECT_TRUE(fine.value().ok());
}

// ---- Flicker-aware device quiescing (§7.5 discussion) ----

TEST(QuiesceTest, AwareDriverEliminatesMidTransferStalls) {
  BlockCopyParams params;
  params.total_bytes = 32ULL * 1024 * 1024;
  BlockCopyReport naive = SimulateBlockCopyDuringSessions(params);
  params.flicker_aware_quiesce = true;
  BlockCopyReport aware = SimulateBlockCopyDuringSessions(params);

  EXPECT_GT(naive.stall_events, 0u);
  EXPECT_EQ(aware.stall_events, 0u);
  EXPECT_EQ(aware.io_errors, 0u);
  EXPECT_EQ(aware.source_digest, aware.delivered_digest);
}

}  // namespace
}  // namespace flicker
