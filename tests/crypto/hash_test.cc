// FIPS / RFC test vectors plus incremental-update properties for the four
// hash functions.

#include <iterator>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/md5.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace flicker {
namespace {

// The message of `len` bytes (i * 7 + 3) mod 256 that the padding
// known-answer tests below hash.
Bytes PatternMessage(size_t len) {
  Bytes msg(len);
  for (size_t i = 0; i < len; ++i) {
    msg[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  return msg;
}

// Lengths that put the 0x80 pad byte and the 64-bit length at every edge of
// the 64-byte block: 55 and 119 leave exactly room for both in the last
// block, 56, 63 and 120 spill them into one more block, and 64 pads in a
// block of its own.
constexpr size_t kPaddingEdgeLengths[] = {0, 55, 56, 63, 64, 119, 120};

// MD5 has no one-shot helper (md5crypt streams into one instance); this is
// the test's.
Bytes Md5Of(const Bytes& data) {
  Md5 h;
  h.Update(data);
  return h.Finish();
}

// Checks Hash over PatternMessage at each padding-edge length, one-shot and
// fed a byte at a time, against digests computed offline with Python's
// hashlib.
template <typename Hash>
void ExpectPaddingEdgeDigests(const char* const (&expected)[std::size(kPaddingEdgeLengths)]) {
  for (size_t i = 0; i < std::size(kPaddingEdgeLengths); ++i) {
    const Bytes msg = PatternMessage(kPaddingEdgeLengths[i]);
    EXPECT_EQ(ToHex(Hash::Digest(msg)), expected[i]) << "len " << msg.size();
    Hash incremental;
    for (uint8_t byte : msg) {
      incremental.Update(&byte, 1);
    }
    EXPECT_EQ(ToHex(incremental.Finish()), expected[i]) << "len " << msg.size();
  }
}

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(ToHex(Sha1::Digest(BytesOf(""))), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(ToHex(Sha1::Digest(BytesOf("abc"))), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(ToHex(Sha1::Digest(BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionA) {
  Sha1 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Bytes msg = BytesOf("The quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha1 h;
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(h.Finish(), Sha1::Digest(msg)) << "split at " << split;
  }
}

TEST(Sha1Test, ResetRestoresInitialState) {
  Sha1 h;
  h.Update(BytesOf("garbage"));
  h.Reset();
  h.Update(BytesOf("abc"));
  EXPECT_EQ(ToHex(h.Finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// Boundary lengths around the 64-byte block and 56-byte padding threshold.
TEST(Sha1Test, BlockBoundaryLengths) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    Bytes msg(len, 0x5a);
    Sha1 incremental;
    for (size_t i = 0; i < len; ++i) {
      incremental.Update(msg.data() + i, 1);
    }
    EXPECT_EQ(incremental.Finish(), Sha1::Digest(msg)) << "len " << len;
  }
}

TEST(Sha1Test, PaddingEdgeKnownAnswers) {
  const char* const expected[] = {
      "da39a3ee5e6b4b0d3255bfef95601890afd80709", "ddf57317ef34bfee3b6df83d359098930eb278bc",
      "a0d492bb0fc889d0eca3bc137066ab6f4f74f369", "c55856749bef509bdfe6bfebfc7bf4e793e82132",
      "bede92be29c3874e1b54ddc77988d606fc857a8e", "504e27376a6e0f0dba8295b85cb25dc4dfa17d23",
      "82134b02fb3f702491be9bed581eeab59334acb2",
  };
  ExpectPaddingEdgeDigests<Sha1>(expected);
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(ToHex(Sha256::Digest(BytesOf(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(ToHex(Sha256::Digest(BytesOf("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      ToHex(Sha256::Digest(BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  Bytes chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(ToHex(h.Finish()), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, BlockBoundaryLengths) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    Bytes msg(len, 0x5a);
    Sha256 incremental;
    for (size_t i = 0; i < len; ++i) {
      incremental.Update(msg.data() + i, 1);
    }
    EXPECT_EQ(incremental.Finish(), Sha256::Digest(msg)) << "len " << len;
  }
}

TEST(Sha256Test, PaddingEdgeKnownAnswers) {
  const char* const expected[] = {
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
      "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
      "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
      "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
      "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
      "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
  };
  ExpectPaddingEdgeDigests<Sha256>(expected);
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes msg(200, 0);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  Sha256 h;
  h.Update(msg.data(), 13);
  h.Update(msg.data() + 13, 100);
  h.Update(msg.data() + 113, msg.size() - 113);
  EXPECT_EQ(h.Finish(), Sha256::Digest(msg));
}

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(ToHex(Md5Of(BytesOf(""))), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(ToHex(Md5Of(BytesOf("a"))), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(ToHex(Md5Of(BytesOf("abc"))), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(ToHex(Md5Of(BytesOf("message digest"))), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(ToHex(Md5Of(BytesOf("abcdefghijklmnopqrstuvwxyz"))),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(ToHex(Md5Of(
                BytesOf("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(ToHex(Md5Of(BytesOf(
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890"))),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  Bytes msg(150, 0x11);
  Md5 h;
  h.Update(msg.data(), 63);
  h.Update(msg.data() + 63, 2);
  h.Update(msg.data() + 65, msg.size() - 65);
  EXPECT_EQ(h.Finish(), Md5Of(msg));
}

// Distinct inputs must give distinct digests (a smoke test that no internal
// state is shared between instances).
TEST(HashTest, InstancesAreIndependent) {
  Sha1 a;
  Sha1 b;
  a.Update(BytesOf("first"));
  b.Update(BytesOf("second"));
  Bytes da = a.Finish();
  Bytes db = b.Finish();
  EXPECT_NE(da, db);
  EXPECT_EQ(da, Sha1::Digest(BytesOf("first")));
  EXPECT_EQ(db, Sha1::Digest(BytesOf("second")));
}

// Finish() leaves the object reset: hashing a second message on the same
// instance must equal a fresh one-shot digest, for every hash class.
TEST(HashTest, FinishAutoResetsForReuse) {
  Sha1 sha1;
  sha1.Update(BytesOf("first message"));
  EXPECT_EQ(sha1.Finish(), Sha1::Digest(BytesOf("first message")));
  sha1.Update(BytesOf("second message"));
  EXPECT_EQ(sha1.Finish(), Sha1::Digest(BytesOf("second message")));

  Sha256 sha256;
  sha256.Update(BytesOf("first"));
  EXPECT_EQ(sha256.Finish(), Sha256::Digest(BytesOf("first")));
  sha256.Update(BytesOf("second"));
  EXPECT_EQ(sha256.Finish(), Sha256::Digest(BytesOf("second")));

  Md5 md5;
  md5.Update(BytesOf("first"));
  EXPECT_EQ(md5.Finish(), Md5Of(BytesOf("first")));
  md5.Update(BytesOf("second"));
  EXPECT_EQ(md5.Finish(), Md5Of(BytesOf("second")));

  // An empty follow-up (Finish with no Update) is the empty-string digest.
  Sha1 empty;
  empty.Update(BytesOf("spent"));
  empty.Finish();
  EXPECT_EQ(ToHex(empty.Finish()), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(HashTest, DigestSizesMatchConstants) {
  EXPECT_EQ(Sha1::Digest(BytesOf("x")).size(), Sha1::kDigestSize);
  EXPECT_EQ(Sha256::Digest(BytesOf("x")).size(), Sha256::kDigestSize);
  EXPECT_EQ(Md5Of(BytesOf("x")).size(), Md5::kDigestSize);
}

}  // namespace
}  // namespace flicker
