// md5crypt vectors generated with glibc crypt(3) plus behavioural tests.

#include "src/crypto/md5crypt.h"

#include <gtest/gtest.h>

namespace flicker {
namespace {

TEST(Md5CryptTest, GlibcVectorPassword) {
  EXPECT_EQ(Md5Crypt("password", "saltsalt"), "$1$saltsalt$qjXMvbEw8oaL.CzflDtaK/");
}

TEST(Md5CryptTest, GlibcVectorEmptyPassword) {
  EXPECT_EQ(Md5Crypt("", "ab"), "$1$ab$rn6aQS/o7141mj179E/zA.");
}

TEST(Md5CryptTest, GlibcVectorLongPassphrase) {
  EXPECT_EQ(Md5Crypt("a long passphrase with spaces 12345", "12345678"),
            "$1$12345678$vt7lRN.2IdXHMEfzWJuLi0");
}

TEST(Md5CryptTest, AcceptsFullCryptStringAsSalt) {
  // Passing "$1$salt$..." in the salt position must behave like "salt".
  EXPECT_EQ(Md5Crypt("password", "$1$saltsalt$whatever"),
            "$1$saltsalt$qjXMvbEw8oaL.CzflDtaK/");
}

TEST(Md5CryptTest, SaltTruncatedToEight) {
  EXPECT_EQ(Md5Crypt("pw", "123456789abc"), Md5Crypt("pw", "12345678"));
}

TEST(Md5CryptTest, DifferentSaltsDifferentHashes) {
  EXPECT_NE(Md5Crypt("same", "salt0001"), Md5Crypt("same", "salt0002"));
}

TEST(Md5CryptTest, DifferentPasswordsDifferentHashes) {
  EXPECT_NE(Md5Crypt("alpha", "samesalt"), Md5Crypt("beta", "samesalt"));
}

TEST(Md5CryptTest, OutputFormat) {
  std::string crypt = Md5Crypt("pw", "mysalt");
  EXPECT_EQ(crypt.substr(0, 3), "$1$");
  EXPECT_EQ(crypt.substr(3, 6), "mysalt");
  EXPECT_EQ(crypt[9], '$');
  EXPECT_EQ(crypt.size(), 3 + 6 + 1 + 22u);  // 22 base64 chars encode 16 bytes.
}

}  // namespace
}  // namespace flicker
