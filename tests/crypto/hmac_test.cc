// RFC 2202 (HMAC-SHA1) and RFC 4231 (HMAC-SHA256) vectors.

#include "src/crypto/hmac.h"

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"

namespace flicker {
namespace {

TEST(HmacSha1Test, Rfc2202Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(ToHex(HmacSha1(key, BytesOf("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1Test, Rfc2202Case2) {
  EXPECT_EQ(ToHex(HmacSha1(BytesOf("Jefe"), BytesOf("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1Test, Rfc2202Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(ToHex(HmacSha1(key, data)), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1Test, LongKeyIsHashedFirst) {
  // RFC 2202 case 6: 80-byte key (> block size).
  Bytes key(80, 0xaa);
  EXPECT_EQ(ToHex(HmacSha1(key, BytesOf("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha256Test, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(ToHex(HmacDigest<Sha256>(key, BytesOf("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  EXPECT_EQ(ToHex(HmacDigest<Sha256>(BytesOf("Jefe"), BytesOf("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, VerifyAcceptsValidTag) {
  Bytes key = BytesOf("state-mac-key");
  Bytes msg = BytesOf("distributed computing checkpoint");
  EXPECT_TRUE(HmacSha1Verify(key, msg, HmacSha1(key, msg)));
}

TEST(HmacTest, VerifyRejectsTamperedMessage) {
  Bytes key = BytesOf("state-mac-key");
  Bytes msg = BytesOf("divisor=123456789");
  Bytes tag = HmacSha1(key, msg);
  Bytes tampered = BytesOf("divisor=123456780");
  EXPECT_FALSE(HmacSha1Verify(key, tampered, tag));
}

TEST(HmacTest, VerifyRejectsTamperedTag) {
  Bytes key = BytesOf("k");
  Bytes msg = BytesOf("m");
  Bytes tag = HmacSha1(key, msg);
  tag[0] ^= 1;
  EXPECT_FALSE(HmacSha1Verify(key, msg, tag));
}

TEST(HmacTest, VerifyRejectsWrongKey) {
  Bytes msg = BytesOf("m");
  Bytes tag = HmacSha1(BytesOf("key-a"), msg);
  EXPECT_FALSE(HmacSha1Verify(BytesOf("key-b"), msg, tag));
}

TEST(HmacTest, VerifyRejectsTruncatedTag) {
  Bytes key = BytesOf("k");
  Bytes msg = BytesOf("m");
  Bytes tag = HmacSha1(key, msg);
  tag.pop_back();
  EXPECT_FALSE(HmacSha1Verify(key, msg, tag));
}

TEST(HmacTest, DifferentKeysGiveDifferentTags) {
  Bytes msg = BytesOf("same message");
  EXPECT_NE(HmacSha1(BytesOf("a"), msg), HmacSha1(BytesOf("b"), msg));
}

}  // namespace
}  // namespace flicker
