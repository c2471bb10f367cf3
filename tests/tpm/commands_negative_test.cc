// Hostile-input battery for the wire-level TPM command codecs: every parse
// entry point must return a typed Status (never crash, never accept a
// mangled frame as well-formed) on truncated, garbled, oversized and
// zero-length input. Run under ASan+UBSan by verify.sh --net.

#include "src/tpm/commands.h"

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/serde.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

// Applies the standard battery to one parser given a known-good wire image.
void RunBattery(const char* name, const Bytes& valid,
                const std::function<Status(const Bytes&)>& parse,
                bool valid_should_parse = true) {
  if (valid_should_parse) {
    EXPECT_TRUE(parse(valid).ok()) << name << " rejects its own valid wire";
  }
  // Zero-length.
  EXPECT_FALSE(parse(Bytes()).ok()) << name << " accepted empty input";
  // Truncated at every prefix.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(cut));
    EXPECT_FALSE(parse(truncated).ok()) << name << " accepted truncation at " << cut;
  }
  // Garbled: flip every byte in turn; a changed-but-parsed value is
  // acceptable (some bytes are free payload), crashing is not.
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    Bytes garbled = valid;
    garbled[pos] ^= 0xA5;
    (void)parse(garbled);
  }
  // Oversized garbage.
  (void)parse(Bytes(1u << 21, 0xEE));
  // Trailing garbage after a valid image.
  Bytes padded = valid;
  padded.push_back(0x00);
  (void)parse(padded);
}

TEST(CommandsNegativeTest, ParseCommandFrameBattery) {
  Bytes valid = BuildGetRandom(16);
  RunBattery("ParseCommandFrame", valid,
             [](const Bytes& b) { return ParseCommandFrame(b).status(); });

  // paramSize lies about the frame length: both directions must fail.
  Bytes inflated = valid;
  inflated[5] += 4;  // Header paramSize low byte (frame is < 256 bytes).
  EXPECT_FALSE(ParseCommandFrame(inflated).ok());
  Bytes deflated = valid;
  deflated[5] -= 1;
  EXPECT_FALSE(ParseCommandFrame(deflated).ok());

  // A response tag is not a command.
  Bytes bad_tag = valid;
  bad_tag[0] = 0x00;
  bad_tag[1] = 0xC4;
  EXPECT_FALSE(ParseCommandFrame(bad_tag).ok());

  // A frame past kMaxTpmFrameBytes is refused even though its paramSize
  // matches; one of exactly kMaxTpmFrameBytes still parses.
  const size_t max_body = kMaxTpmFrameBytes - kFrameHeaderSize;
  EXPECT_TRUE(ParseCommandFrame(BuildCommandFrame(kTagRequest, kOrdGetRandom, Bytes(max_body)))
                  .ok());
  Result<CommandFrame> oversized =
      ParseCommandFrame(BuildCommandFrame(kTagRequest, kOrdGetRandom, Bytes(max_body + 1)));
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
}

TEST(CommandsNegativeTest, ParseResponseFrameBattery) {
  Bytes valid = BuildResponseFrame(false, Status::Ok(), BytesOf("payload"));
  RunBattery("ParseResponseFrame", valid,
             [](const Bytes& b) { return ParseResponseFrame(b).status(); });

  // An in-band error decodes back to its Status, not a crash.
  Bytes error_frame =
      BuildResponseFrame(false, PermissionDeniedError("locality"), Bytes());
  Result<Bytes> verdict = ParseResponseFrame(error_frame);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kPermissionDenied);

  // The same cap holds for responses.
  const size_t max_body = kMaxTpmFrameBytes - kFrameHeaderSize;
  EXPECT_TRUE(ParseResponseFrame(BuildResponseFrame(false, Status::Ok(), Bytes(max_body))).ok());
  Result<Bytes> oversized =
      ParseResponseFrame(BuildResponseFrame(false, Status::Ok(), Bytes(max_body + 1)));
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
}

TEST(CommandsNegativeTest, PeekersSurviveShortFrames) {
  Bytes valid = BuildGetRandom(4);
  EXPECT_TRUE(PeekOrdinal(valid).ok());
  for (size_t cut = 0; cut < kFrameHeaderSize; ++cut) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(cut));
    EXPECT_FALSE(PeekOrdinal(truncated).ok()) << "cut=" << cut;
    (void)PeekReturnCode(truncated);  // Must not crash on short input.
  }
}

TEST(CommandsNegativeTest, ExtendTargetPcrRejectsJunk) {
  int index = -1;
  EXPECT_FALSE(ExtendTargetPcr(Bytes(), &index));
  EXPECT_FALSE(ExtendTargetPcr(Bytes(3, 0x41), &index));
  EXPECT_FALSE(ExtendTargetPcr(BuildGetRandom(8), &index));

  Bytes valid = BuildPcrExtend(kSkinitPcr, Bytes(20, 1));
  ASSERT_TRUE(ExtendTargetPcr(valid, &index));
  EXPECT_EQ(index, kSkinitPcr);
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ExtendTargetPcr(truncated, &index)) << "cut=" << cut;
  }
}

TEST(CommandsNegativeTest, PayloadCodecsSurviveHostileBytes) {
  // The response-payload codecs have no builder counterparts here, so the
  // battery runs on raw hostile bytes only: empty, short, patterned, huge.
  const std::vector<std::pair<const char*, std::function<Status(const Bytes&)>>> codecs = {
      {"ParseSessionPayload",
       [](const Bytes& b) { return ParseSessionPayload(b).status(); }},
      {"ParseQuotePayload", [](const Bytes& b) { return ParseQuotePayload(b).status(); }},
      {"ParseHandlePayload", [](const Bytes& b) { return ParseHandlePayload(b).status(); }},
      {"ParseCounterPayload", [](const Bytes& b) { return ParseCounterPayload(b).status(); }},
      {"ParseBlobPayload", [](const Bytes& b) { return ParseBlobPayload(b).status(); }},
      {"ParseStartupPayload",
       [](const Bytes& b) { return ParseStartupPayload(b).status(); }},
  };
  std::vector<Bytes> hostile;
  hostile.push_back(Bytes());
  for (size_t n = 1; n <= 32; ++n) {
    Bytes pattern(n);
    for (size_t i = 0; i < n; ++i) {
      pattern[i] = static_cast<uint8_t>(0x41 + i * 7);
    }
    hostile.push_back(std::move(pattern));
  }
  hostile.push_back(Bytes(1u << 20, 0xFF));  // Huge all-ones (absurd lengths).
  for (const auto& codec : codecs) {
    for (const Bytes& input : hostile) {
      (void)codec.second(input);  // Typed verdict or benign parse; no crash.
    }
    // Empty specifically must never parse (every payload has fixed fields).
    EXPECT_FALSE(codec.second(Bytes()).ok()) << codec.first;
  }
}

TEST(CommandsNegativeTest, DispatchFrameAlwaysAnswersWellFormed) {
  // The device side receives frames straight off a hostile bus: whatever
  // arrives, DispatchFrame must produce a parseable response frame carrying
  // a typed error, not crash or echo garbage.
  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());
  std::vector<Bytes> hostile;
  hostile.push_back(Bytes());
  hostile.push_back(Bytes(1, 0xC1));
  hostile.push_back(Bytes(kFrameHeaderSize - 1, 0x00));
  hostile.push_back(Bytes(64, 0xA5));
  Bytes valid = BuildGetRandom(8);
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    hostile.push_back(Bytes(valid.begin(), valid.begin() + static_cast<long>(cut)));
  }
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    Bytes garbled = valid;
    garbled[pos] ^= 0xA5;
    hostile.push_back(std::move(garbled));
  }
  for (const Bytes& frame : hostile) {
    Bytes response = DispatchFrame(&tpm, frame);
    ASSERT_GE(response.size(), kFrameHeaderSize);
    Result<Bytes> payload = ParseResponseFrame(response);  // Well-formed enough to decode.
    // A garbled length field must not size the answer: GetRandom returns at
    // most the device cap, however many bytes the frame asked for.
    Result<uint32_t> ordinal = PeekOrdinal(frame);
    if (payload.ok() && ordinal.ok() && ordinal.value() == kOrdGetRandom) {
      Result<Bytes> random = ParseBlobPayload(payload.value());
      ASSERT_TRUE(random.ok());
      EXPECT_LE(random.value().size(), Tpm::kMaxRandomBytes);
    }
  }
}

TEST(CommandsNegativeTest, DeletedOrdinalsFailClosed) {
  // The device implements only what a Flicker platform sends. Well-formed
  // frames for commands it does not implement - including v1.2 ordinals a
  // real TPM accepts - get a typed kInvalidArgument, cost no simulated time
  // and leave no state behind.
  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());

  Writer osap;
  osap.U16(0);  // entityType: SRK
  osap.Blob(Bytes(kPcrSize, 0x31));
  Writer load_key;
  load_key.Blob(Bytes(256, 0x42));
  Writer flush;
  flush.U32(0x2000);
  struct Case {
    std::string name;
    uint32_t ordinal;
    Bytes body;
  };
  const std::vector<Case> cases = {
      {"TPM_ORD_OSAP", 0x0000000B, osap.Take()},
      {"TPM_ORD_LoadKey2", 0x00000041, load_key.Take()},
      {"TPM_ORD_FlushSpecific", 0x000000BA, flush.Take()},
      {"TPM_ORD_GetCapability", 0x00000065, Bytes()},
      {"vendor 0x20000001", 0x20000001, Bytes()},
  };

  const uint32_t first_handle = tpm.StartOiap().handle;
  for (const Case& c : cases) {
    const uint64_t before_ns = clock.NowNanos();
    Bytes response = DispatchFrame(&tpm, BuildCommandFrame(kTagRequest, c.ordinal, c.body));
    Result<Bytes> verdict = ParseResponseFrame(response);
    ASSERT_FALSE(verdict.ok()) << c.name;
    EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_EQ(verdict.status().message(), "unknown TPM ordinal") << c.name;
    EXPECT_EQ(clock.NowNanos(), before_ns) << c.name << " charged simulated time";
  }
  // No session was opened in between: the next OIAP handle is the next one.
  EXPECT_EQ(tpm.StartOiap().handle, first_handle + 1);

  // TPM_ORD_Quote keeps its v1.2 keyHandle field, but the resident AIK
  // (handle 0) is the only signing key: any other handle is kNotFound,
  // answered before the quote latency is charged.
  Writer quote;
  quote.U32(0x2000);
  quote.Blob(Bytes(kPcrSize, 0x07));
  quote.U32(PcrSelection({17}).mask());
  const uint64_t before_ns = clock.NowNanos();
  Result<Bytes> verdict = ParseResponseFrame(
      DispatchFrame(&tpm, BuildCommandFrame(kTagRequest, kOrdQuote, quote.Take())));
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(clock.NowNanos(), before_ns);

  // The same frame with keyHandle 0 is the quote every caller sends.
  Bytes resident = BuildQuote(Bytes(kPcrSize, 0x07), PcrSelection({17}));
  EXPECT_TRUE(ParseResponseFrame(DispatchFrame(&tpm, resident)).ok());
}

}  // namespace
}  // namespace flicker
