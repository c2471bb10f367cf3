#include "src/common/bytes.h"

#include <cstring>

namespace flicker {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

}  // namespace

std::string ToHex(const Bytes& data) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

Bytes FromHex(std::string_view hex, bool* ok) {
  Bytes out;
  if (hex.size() % 2 != 0) {
    if (ok != nullptr) {
      *ok = false;
    }
    return out;
  }
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexDigit(hex[i]);
    int lo = HexDigit(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      if (ok != nullptr) {
        *ok = false;
      }
      return Bytes();
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  if (ok != nullptr) {
    *ok = true;
  }
  return out;
}

Bytes BytesOf(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

Bytes Concat(std::initializer_list<const Bytes*> parts) {
  size_t total = 0;
  for (const Bytes* p : parts) {
    total += p->size();
  }
  Bytes out;
  out.reserve(total);
  for (const Bytes* p : parts) {
    out.insert(out.end(), p->begin(), p->end());
  }
  return out;
}

Bytes Concat(const Bytes& a, const Bytes& b) {
  return Concat({&a, &b});
}

Bytes Concat(const Bytes& a, const Bytes& b, const Bytes& c) {
  return Concat({&a, &b, &c});
}

bool ConstantTimeEquals(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) {
    return false;
  }
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<uint8_t>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

void SecureErase(void* data, size_t len) {
  volatile uint8_t* p = static_cast<volatile uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    p[i] = 0;
  }
}

void SecureErase(Bytes* data) {
  if (!data->empty()) {
    SecureErase(data->data(), data->size());
  }
  data->clear();
}

void PutUint16(Bytes* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

void PutUint32(Bytes* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v >> 24));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

void PutUint64(Bytes* out, uint64_t v) {
  PutUint32(out, static_cast<uint32_t>(v >> 32));
  PutUint32(out, static_cast<uint32_t>(v));
}

uint16_t GetUint16(const Bytes& in, size_t offset) {
  return static_cast<uint16_t>((in[offset] << 8) | in[offset + 1]);
}

uint32_t GetUint32(const Bytes& in, size_t offset) {
  return (static_cast<uint32_t>(in[offset]) << 24) | (static_cast<uint32_t>(in[offset + 1]) << 16) |
         (static_cast<uint32_t>(in[offset + 2]) << 8) | static_cast<uint32_t>(in[offset + 3]);
}

uint64_t GetUint64(const Bytes& in, size_t offset) {
  return (static_cast<uint64_t>(GetUint32(in, offset)) << 32) | GetUint32(in, offset + 4);
}

uint32_t Fnv1a32(const uint8_t* data, size_t len) {
  uint32_t hash = 0x811C9DC5u;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 0x01000193u;
  }
  return hash;
}

}  // namespace flicker
