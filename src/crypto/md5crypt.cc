#include "src/crypto/md5crypt.h"

#include "src/common/bytes.h"
#include "src/crypto/md5.h"

namespace flicker {

namespace {

constexpr char kItoa64[] = "./0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";

// The traditional crypt base64: 4 output characters per 3 bytes,
// least-significant 6 bits first.
void To64(std::string* out, uint32_t v, int n) {
  while (n-- > 0) {
    out->push_back(kItoa64[v & 0x3f]);
    v >>= 6;
  }
}

}  // namespace

std::string Md5Crypt(std::string_view password, std::string_view salt) {
  if (salt.substr(0, 3) == "$1$") {
    salt.remove_prefix(3);
  }
  size_t salt_end = salt.find('$');
  if (salt_end != std::string_view::npos) {
    salt = salt.substr(0, salt_end);
  }
  if (salt.size() > 8) {
    salt = salt.substr(0, 8);
  }

  Bytes pw = BytesOf(password);
  Bytes sl = BytesOf(salt);

  // Alternate sum: MD5(password || salt || password).
  Md5 alt;
  alt.Update(pw);
  alt.Update(sl);
  alt.Update(pw);
  Bytes alt_digest = alt.Finish();

  // Main sum: password, magic, salt, then alt-digest bytes for each byte of
  // password length, then the famous bit-twiddling tail.
  Md5 main;
  main.Update(pw);
  main.Update(BytesOf("$1$"));
  main.Update(sl);
  for (size_t i = password.size(); i > 0; i -= 16) {
    main.Update(alt_digest.data(), i > 16 ? 16 : i);
    if (i <= 16) {
      break;
    }
  }
  for (size_t i = password.size(); i != 0; i >>= 1) {
    if (i & 1) {
      uint8_t zero = 0;
      main.Update(&zero, 1);
    } else {
      main.Update(pw.data(), 1);
    }
  }
  Bytes digest = main.Finish();

  // 1000 strengthening rounds with a data-dependent mixing schedule.
  for (int round = 0; round < 1000; ++round) {
    Md5 ctx;
    if (round & 1) {
      ctx.Update(pw);
    } else {
      ctx.Update(digest);
    }
    if (round % 3 != 0) {
      ctx.Update(sl);
    }
    if (round % 7 != 0) {
      ctx.Update(pw);
    }
    if (round & 1) {
      ctx.Update(digest);
    } else {
      ctx.Update(pw);
    }
    digest = ctx.Finish();
  }

  std::string out = "$1$";
  out.append(salt.begin(), salt.end());
  out.push_back('$');
  To64(&out,
       (static_cast<uint32_t>(digest[0]) << 16) | (static_cast<uint32_t>(digest[6]) << 8) |
           digest[12],
       4);
  To64(&out,
       (static_cast<uint32_t>(digest[1]) << 16) | (static_cast<uint32_t>(digest[7]) << 8) |
           digest[13],
       4);
  To64(&out,
       (static_cast<uint32_t>(digest[2]) << 16) | (static_cast<uint32_t>(digest[8]) << 8) |
           digest[14],
       4);
  To64(&out,
       (static_cast<uint32_t>(digest[3]) << 16) | (static_cast<uint32_t>(digest[9]) << 8) |
           digest[15],
       4);
  To64(&out,
       (static_cast<uint32_t>(digest[4]) << 16) | (static_cast<uint32_t>(digest[10]) << 8) |
           digest[5],
       4);
  To64(&out, digest[11], 2);
  return out;
}

}  // namespace flicker
