// End-to-end Flicker sessions on the full platform: the Fig. 2 lifecycle,
// PCR 17 extend chain, OS protection, sealed state and replay protection,
// and the secure-channel module.

#include <memory>

#include <gtest/gtest.h>

#include "src/apps/hello.h"
#include "src/attest/verifier.h"
#include "src/core/flicker_platform.h"
#include "src/core/sealed_state.h"
#include "src/core/secure_channel.h"
#include "src/crypto/sha1.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

// A PAL that echoes its inputs reversed - exercises the I/O path.
class EchoPal : public Pal {
 public:
  std::string name() const override { return "echo"; }
  std::vector<std::string> required_modules() const override { return {}; }
  size_t app_code_bytes() const override { return 128; }
  Status Execute(PalContext* context) override {
    Bytes out(context->inputs().rbegin(), context->inputs().rend());
    return context->SetOutputs(out);
  }
};

// A PAL that tries to read kernel memory - legal without OS protection,
// faults with it.
class SnoopPal : public Pal {
 public:
  explicit SnoopPal(uint64_t target) : target_(target) {}
  std::string name() const override { return "snoop"; }
  std::vector<std::string> required_modules() const override { return {}; }
  size_t app_code_bytes() const override { return 128; }
  Status Execute(PalContext* context) override {
    Result<Bytes> data = context->ReadMemory(target_, 64);
    if (!data.ok()) {
      return data.status();
    }
    return context->SetOutputs(data.value());
  }

 private:
  uint64_t target_;
};

// A PAL that fails.
class FailingPal : public Pal {
 public:
  std::string name() const override { return "failing"; }
  std::vector<std::string> required_modules() const override { return {}; }
  size_t app_code_bytes() const override { return 64; }
  Status Execute(PalContext*) override { return InternalError("PAL exploded"); }
};

// A PAL that writes a secret into SLB memory; the cleanup phase must erase
// it before the OS resumes.
class SecretWriterPal : public Pal {
 public:
  explicit SecretWriterPal(Machine* machine) : machine_(machine) {}
  std::string name() const override { return "secret-writer"; }
  std::vector<std::string> required_modules() const override { return {}; }
  size_t app_code_bytes() const override { return 64; }
  Status Execute(PalContext* context) override {
    // Scribble a secret into the SLB stack region.
    return machine_->memory()->Write(context->slb_base() + kSlbStackOffset, BytesOf("TOPSECRET"));
  }

 private:
  Machine* machine_;
};

TEST(PlatformTest, HelloWorldEndToEnd) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<HelloWorldPal>());
  ASSERT_TRUE(binary.ok());

  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok());
  EXPECT_EQ(result.value().outputs(), BytesOf("Hello, world"));

  // The OS is back: interrupts on, paging on, APs running, DEV clear.
  EXPECT_FALSE(platform.machine()->in_secure_session());
  EXPECT_TRUE(platform.machine()->bsp()->interrupts_enabled);
  EXPECT_TRUE(platform.machine()->bsp()->paging_enabled);
  EXPECT_EQ(platform.machine()->bsp()->cr3, platform.kernel()->cr3());
  EXPECT_EQ(platform.machine()->cpu(1)->state, CpuState::kRunning);
}

TEST(PlatformTest, SessionsStartedCountsEveryStartAndNamesTheLatestId) {
  // Pins the accessor's contract: sessions_started() is the count of
  // sessions ever started - successful or not - and, because ids are
  // 1-based and assigned in start order, also the id of the latest one.
  FlickerPlatform platform;
  EXPECT_EQ(platform.sessions_started(), 0u);

  Result<PalBinary> binary = BuildPal(std::make_shared<HelloWorldPal>());
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> first = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().session_id, 1u);
  EXPECT_EQ(platform.sessions_started(), 1u);

  // A session that starts but fails inside the PAL still counts.
  Result<PalBinary> failing = BuildPal(std::make_shared<FailingPal>());
  ASSERT_TRUE(failing.ok());
  Result<FlickerSessionResult> failed = platform.ExecuteSession(failing.value(), Bytes());
  ASSERT_TRUE(failed.ok());
  EXPECT_FALSE(failed.value().ok());
  EXPECT_EQ(failed.value().session_id, 2u);
  EXPECT_EQ(platform.sessions_started(), 2u);

  Result<FlickerSessionResult> third = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().session_id, platform.sessions_started());
  EXPECT_EQ(platform.sessions_started(), 3u);
}

TEST(PlatformTest, EchoRoundTrip) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<EchoPal>());
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), BytesOf("abc"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().outputs(), BytesOf("cba"));
}

TEST(PlatformTest, Pcr17MatchesVerifierChain) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<EchoPal>());
  ASSERT_TRUE(binary.ok());

  Bytes inputs = BytesOf("attested input");
  Bytes nonce = Sha1::Digest(BytesOf("nonce"));
  SlbCoreOptions options;
  options.nonce = nonce;
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), inputs, options);
  ASSERT_TRUE(result.ok());

  // During execution PCR 17 held the execution value.
  EXPECT_EQ(result.value().record.pcr17_during_execution,
            ComputeExecutionPcr17(binary.value()));

  // After the closing extends it matches the verifier's full chain.
  SessionExpectation expectation;
  expectation.binary = &binary.value();
  expectation.inputs = inputs;
  expectation.outputs = result.value().outputs();
  expectation.nonce = nonce;
  EXPECT_EQ(result.value().record.pcr17_final, ComputeExpectedPcr17(expectation));
  EXPECT_EQ(platform.tpm()->PcrRead(kSkinitPcr).value(), result.value().record.pcr17_final);
}

TEST(PlatformTest, MeasurementStubChainVerifies) {
  FlickerPlatform platform;
  PalBuildOptions build;
  build.measurement_stub = true;
  Result<PalBinary> binary = BuildPal(std::make_shared<EchoPal>(), build);
  ASSERT_TRUE(binary.ok());

  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), BytesOf("x"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().outputs(), BytesOf("x"));

  // SKINIT only streamed the stub: cheap.
  EXPECT_LT(result.value().skinit_ms, 15.0);
  EXPECT_GT(result.value().record.stub_hash_ms, 0.0);

  SessionExpectation expectation;
  expectation.binary = &binary.value();
  expectation.inputs = BytesOf("x");
  expectation.outputs = BytesOf("x");
  EXPECT_EQ(result.value().record.pcr17_final, ComputeExpectedPcr17(expectation));
}

TEST(PlatformTest, SnoopWithoutProtectionReadsKernel) {
  FlickerPlatform platform;
  uint64_t kernel_text = KernelConfig().text_base;
  Result<PalBinary> binary = BuildPal(std::make_shared<SnoopPal>(kernel_text));
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  // Without the OS Protection module a PAL can read all physical memory.
  EXPECT_TRUE(result.value().ok());
  EXPECT_EQ(result.value().outputs().size(), 64u);
}

TEST(PlatformTest, SnoopWithProtectionFaults) {
  FlickerPlatform platform;
  uint64_t kernel_text = KernelConfig().text_base;
  PalBuildOptions build;
  build.os_protection = true;
  Result<PalBinary> binary = BuildPal(std::make_shared<SnoopPal>(kernel_text), build);
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  // The session completed but the PAL's access faulted in ring 3.
  EXPECT_FALSE(result.value().ok());
  EXPECT_EQ(result.value().record.pal_status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(result.value().record.pal_fault_count, 1u);
  // The OS resumed fine regardless.
  EXPECT_FALSE(platform.machine()->in_secure_session());
}

TEST(PlatformTest, ProtectedPalCanStillUseItsOwnRegion) {
  FlickerPlatform platform;
  PalBuildOptions build;
  build.os_protection = true;
  // Snoop its own SLB base: inside the allocated segment, allowed.
  Result<PalBinary> binary = BuildPal(std::make_shared<SnoopPal>(kSlbFixedBase), build);
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().ok());
}

TEST(PlatformTest, FailingPalStillCleansUpAndResumes) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<FailingPal>());
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().ok());
  EXPECT_EQ(result.value().record.pal_status.code(), StatusCode::kInternal);
  EXPECT_FALSE(platform.machine()->in_secure_session());
  EXPECT_TRUE(platform.machine()->bsp()->interrupts_enabled);
  // The termination constant was still extended: secrets are revoked.
  EXPECT_EQ(platform.tpm()->PcrRead(kSkinitPcr).value(), result.value().record.pcr17_final);
}

TEST(PlatformTest, CleanupErasesSlbMemory) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<SecretWriterPal>(platform.machine()));
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().ok());

  // After the session, the whole 64 KB SLB region (including the scribbled
  // stack) is zero.
  Bytes region = platform.machine()->memory()->Read(kSlbFixedBase, kSlbRegionSize).value();
  for (size_t i = 0; i < region.size(); ++i) {
    ASSERT_EQ(region[i], 0) << "residue at offset " << i;
  }
  // And the inputs page is erased too.
  Bytes inputs_page =
      platform.machine()->memory()->Read(kSlbFixedBase + kSlbInputsOffset, kSlbIoPageSize).value();
  for (uint8_t b : inputs_page) {
    ASSERT_EQ(b, 0);
  }
}

TEST(PlatformTest, SessionsAreSerializable) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<EchoPal>());
  ASSERT_TRUE(binary.ok());
  // Multiple sequential sessions work; PCR 17 resets each time.
  Bytes first_pcr;
  for (int i = 0; i < 3; ++i) {
    Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), BytesOf("x"));
    ASSERT_TRUE(result.ok());
    if (i == 0) {
      first_pcr = result.value().record.pcr17_final;
    } else {
      EXPECT_EQ(result.value().record.pcr17_final, first_pcr);
    }
  }
}

TEST(PlatformTest, TimingBreakdownIsPlausible) {
  FlickerPlatform platform;
  Result<PalBinary> binary = BuildPal(std::make_shared<HelloWorldPal>());
  ASSERT_TRUE(binary.ok());
  Result<FlickerSessionResult> result = platform.ExecuteSession(binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  const FlickerSessionResult& r = result.value();
  // Hello world's SLB is small (~0.5 KB measured): SKINIT ~ 1-3 ms.
  EXPECT_GT(r.skinit_ms, 0.9);
  EXPECT_LT(r.skinit_ms, 5.0);
  // Closing extends: 3 extends at 1.2 ms (inputs, outputs, constant).
  EXPECT_NEAR(r.record.extend_ms, 3.6, 0.2);
  EXPECT_GE(r.session_total_ms, r.skinit_ms + r.record.extend_ms);
}

// ---- Sealed state & replay protection ----

class SealedStateTest : public ::testing::Test {
 protected:
  SealedStateTest() {
    owner_auth_ = Sha1::Digest(BytesOf("owner"));
    EXPECT_TRUE(platform_.tpm()->TakeOwnership(owner_auth_).ok());
  }

  FlickerPlatform platform_;
  Bytes owner_auth_;
};

TEST_F(SealedStateTest, SealForPalRoundTripViaSkinitChain) {
  TpmClient* tpm = platform_.tpm();
  Result<PalBinary> binary = BuildPal(std::make_shared<EchoPal>());
  ASSERT_TRUE(binary.ok());
  Bytes execution_pcr = ComputeExecutionPcr17(binary.value());
  Bytes auth = Sha1::Digest(BytesOf("blob"));

  // Seal from "outside" (PCR 17 currently -1) to the PAL's execution value.
  Result<SealedBlob> blob = SealForPal(tpm, BytesOf("cross-session secret"), execution_pcr, auth);
  ASSERT_TRUE(blob.ok());
  EXPECT_FALSE(UnsealInPal(tpm, blob.value(), auth).ok());  // Not in the PAL.

  // Launch the PAL: inside the session PCR 17 holds the bound value.
  class UnsealPal : public Pal {
   public:
    UnsealPal(SealedBlob blob, Bytes auth) : blob_(std::move(blob)), auth_(std::move(auth)) {}
    std::string name() const override { return "echo"; }  // Same identity as EchoPal!
    std::vector<std::string> required_modules() const override { return {}; }
    size_t app_code_bytes() const override { return 128; }
    Status Execute(PalContext* context) override {
      Result<Bytes> secret = UnsealInPal(context->tpm(), blob_, auth_);
      if (!secret.ok()) {
        return secret.status();
      }
      return context->SetOutputs(secret.value());
    }

   private:
    SealedBlob blob_;
    Bytes auth_;
  };
  Result<PalBinary> unseal_binary =
      BuildPal(std::make_shared<UnsealPal>(blob.value(), auth));
  ASSERT_TRUE(unseal_binary.ok());
  ASSERT_EQ(unseal_binary.value().skinit_measurement, binary.value().skinit_measurement);

  Result<FlickerSessionResult> result = platform_.ExecuteSession(unseal_binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().ok()) << result.value().record.pal_status.ToString();
  EXPECT_EQ(result.value().outputs(), BytesOf("cross-session secret"));

  // After the session the termination constant revoked access again.
  EXPECT_FALSE(UnsealInPal(tpm, blob.value(), auth).ok());
}

TEST_F(SealedStateTest, ReplayProtectionDetectsStaleBlob) {
  TpmClient* tpm = platform_.tpm();
  Bytes counter_auth = Sha1::Digest(BytesOf("ctr"));
  Result<ReplayProtectedStorage> storage =
      ReplayProtectedStorage::Create(tpm, counter_auth, owner_auth_);
  ASSERT_TRUE(storage.ok());

  Bytes auth = Sha1::Digest(BytesOf("blob"));
  Bytes current_pcr = tpm->PcrRead(kSkinitPcr).value();
  // Fig. 4 Unseal: TPM_Unseal, then the version check against the counter.
  auto unseal = [&](const SealedBlob& blob) -> Result<Bytes> {
    Result<ReplayProtectedStorage::Unsealed> unsealed =
        ReplayProtectedStorage::Unseal(tpm, blob, auth);
    if (!unsealed.ok()) {
      return unsealed.status();
    }
    FLICKER_RETURN_IF_ERROR(storage.value().CheckVersion(unsealed.value().version));
    return unsealed.value().data;
  };

  Result<SealedBlob> v1 = storage.value().Seal(BytesOf("password-db-v1"), current_pcr, auth);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(unseal(v1.value()).value(), BytesOf("password-db-v1"));

  Result<SealedBlob> v2 = storage.value().Seal(BytesOf("password-db-v2"), current_pcr, auth);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(unseal(v2.value()).value(), BytesOf("password-db-v2"));

  // The malicious OS replays v1: the counter has moved on.
  Result<Bytes> replay = unseal(v1.value());
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kReplayDetected);
}

TEST_F(SealedStateTest, NvSpaceGatedOnPalIdentity) {
  // §4.3.2: an NV space whose PCR requirements match a PAL's execution
  // value is only writable inside that PAL's session.
  TpmClient* tpm = platform_.tpm();
  Result<PalBinary> binary = BuildPal(std::make_shared<EchoPal>());
  ASSERT_TRUE(binary.ok());
  Bytes execution_pcr = ComputeExecutionPcr17(binary.value());

  ASSERT_TRUE(TpmDefineNvSpace(tpm, 7, 32, PcrSelection({kSkinitPcr}),
                               {{kSkinitPcr, execution_pcr}}, owner_auth_)
                  .ok());
  // Outside the PAL: denied.
  EXPECT_EQ(tpm->NvWrite(7, BytesOf("c")).code(), StatusCode::kPermissionDenied);

  class NvPal : public Pal {
   public:
    std::string name() const override { return "echo"; }
    std::vector<std::string> required_modules() const override { return {}; }
    size_t app_code_bytes() const override { return 128; }
    Status Execute(PalContext* context) override {
      FLICKER_RETURN_IF_ERROR(context->tpm()->NvWrite(7, BytesOf("counter=1")));
      return context->SetOutputs(BytesOf("written"));
    }
  };
  Result<PalBinary> nv_binary = BuildPal(std::make_shared<NvPal>());
  ASSERT_TRUE(nv_binary.ok());
  Result<FlickerSessionResult> result = platform_.ExecuteSession(nv_binary.value(), Bytes());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().ok()) << result.value().record.pal_status.ToString();
  EXPECT_EQ(result.value().outputs(), BytesOf("written"));
}

// ---- Secure channel ----

TEST(SecureChannelTest, KeyMaterialSerializationRoundTrip) {
  SecureChannelKeyMaterial material;
  material.public_key = BytesOf("pubkey bytes");
  material.sealed_private_key = BytesOf("sealed bytes");
  Result<SecureChannelKeyMaterial> back =
      SecureChannelKeyMaterial::Deserialize(material.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().public_key, material.public_key);
  EXPECT_EQ(back.value().sealed_private_key, material.sealed_private_key);
  EXPECT_FALSE(SecureChannelKeyMaterial::Deserialize(Bytes(3, 0)).ok());
  EXPECT_FALSE(SecureChannelKeyMaterial::Deserialize(BytesOf("junkjunkjunk")).ok());
}

TEST(SecureChannelTest, EndToEndAcrossSessions) {
  FlickerPlatform platform;
  Bytes blob_auth = Sha1::Digest(BytesOf("chan"));

  // Session 1: generate + seal.
  class KeygenPal : public Pal {
   public:
    explicit KeygenPal(Bytes auth) : auth_(std::move(auth)) {}
    std::string name() const override { return "channel"; }
    std::vector<std::string> required_modules() const override {
      return {kModuleTpmDriver, kModuleTpmUtilities, kModuleCrypto, kModuleSecureChannel};
    }
    size_t app_code_bytes() const override { return 256; }
    Status Execute(PalContext* context) override {
      Result<SecureChannelKeyMaterial> material =
          SecureChannelModule::GenerateAndSeal(context, auth_);
      if (!material.ok()) {
        return material.status();
      }
      return context->SetOutputs(material.value().Serialize());
    }

   private:
    Bytes auth_;
  };

  Result<PalBinary> keygen = BuildPal(std::make_shared<KeygenPal>(blob_auth));
  ASSERT_TRUE(keygen.ok());
  Result<FlickerSessionResult> session1 = platform.ExecuteSession(keygen.value(), Bytes());
  ASSERT_TRUE(session1.ok());
  ASSERT_TRUE(session1.value().ok()) << session1.value().record.pal_status.ToString();

  Result<SecureChannelKeyMaterial> material =
      SecureChannelKeyMaterial::Deserialize(session1.value().outputs());
  ASSERT_TRUE(material.ok());

  // Remote party encrypts under K_PAL.
  Drbg remote_rng(0x1e07);
  Result<Bytes> ciphertext =
      SecureChannelEncrypt(material.value().public_key, BytesOf("remote secret"), &remote_rng);
  ASSERT_TRUE(ciphertext.ok());

  // Session 2: same PAL identity decrypts.
  class DecryptPal : public Pal {
   public:
    DecryptPal(Bytes sealed, Bytes auth, Bytes ciphertext)
        : sealed_(std::move(sealed)), auth_(std::move(auth)), ct_(std::move(ciphertext)) {}
    std::string name() const override { return "channel"; }
    std::vector<std::string> required_modules() const override {
      return {kModuleTpmDriver, kModuleTpmUtilities, kModuleCrypto, kModuleSecureChannel};
    }
    size_t app_code_bytes() const override { return 256; }
    Status Execute(PalContext* context) override {
      Result<RsaPrivateKey> key =
          SecureChannelModule::UnsealPrivateKey(context, sealed_, auth_);
      if (!key.ok()) {
        return key.status();
      }
      Result<Bytes> plaintext = SecureChannelModule::Decrypt(context, key.value(), ct_);
      if (!plaintext.ok()) {
        return plaintext.status();
      }
      return context->SetOutputs(plaintext.value());
    }

   private:
    Bytes sealed_;
    Bytes auth_;
    Bytes ct_;
  };

  Result<PalBinary> decrypt = BuildPal(std::make_shared<DecryptPal>(
      material.value().sealed_private_key, blob_auth, ciphertext.value()));
  ASSERT_TRUE(decrypt.ok());
  ASSERT_EQ(decrypt.value().skinit_measurement, keygen.value().skinit_measurement);
  Result<FlickerSessionResult> session2 = platform.ExecuteSession(decrypt.value(), Bytes());
  ASSERT_TRUE(session2.ok());
  ASSERT_TRUE(session2.value().ok()) << session2.value().record.pal_status.ToString();
  EXPECT_EQ(session2.value().outputs(), BytesOf("remote secret"));

  // A *different* PAL cannot unseal the private key.
  class ThiefPal : public DecryptPal {
   public:
    using DecryptPal::DecryptPal;
    std::string name() const { return "thief"; }  // Different identity.
  };
  class ThiefPal2 : public Pal {
   public:
    ThiefPal2(Bytes sealed, Bytes auth) : sealed_(std::move(sealed)), auth_(std::move(auth)) {}
    std::string name() const override { return "thief"; }
    std::vector<std::string> required_modules() const override {
      return {kModuleTpmUtilities, kModuleSecureChannel, kModuleCrypto, kModuleTpmDriver};
    }
    size_t app_code_bytes() const override { return 256; }
    Status Execute(PalContext* context) override {
      Result<RsaPrivateKey> key =
          SecureChannelModule::UnsealPrivateKey(context, sealed_, auth_);
      return key.ok() ? Status::Ok() : key.status();
    }

   private:
    Bytes sealed_;
    Bytes auth_;
  };
  Result<PalBinary> thief =
      BuildPal(std::make_shared<ThiefPal2>(material.value().sealed_private_key, blob_auth));
  ASSERT_TRUE(thief.ok());
  Result<FlickerSessionResult> steal = platform.ExecuteSession(thief.value(), Bytes());
  ASSERT_TRUE(steal.ok());
  EXPECT_FALSE(steal.value().ok());
  EXPECT_EQ(steal.value().record.pal_status.code(), StatusCode::kIntegrityFailure);
}

}  // namespace
}  // namespace flicker
