// md5crypt: the FreeBSD/Linux "$1$" password hash.
//
// The paper's SSH application (§6.3.1, Fig. 7) has the PAL compute
// md5crypt(salt, password) and compare against /etc/passwd. This is that
// algorithm: a deliberately slow, quirky 1000-round MD5 construction.

#ifndef FLICKER_SRC_CRYPTO_MD5CRYPT_H_
#define FLICKER_SRC_CRYPTO_MD5CRYPT_H_

#include <string>
#include <string_view>

namespace flicker {

// Computes the full crypt string "$1$<salt>$<hash>". `salt` is at most 8
// characters (longer salts are truncated, matching the reference
// implementation).
std::string Md5Crypt(std::string_view password, std::string_view salt);

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_MD5CRYPT_H_
