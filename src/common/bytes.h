// Byte-buffer utilities shared by every Flicker module.
//
// The TPM, SLB, and crypto layers all traffic in raw octet strings; this
// header provides the one vocabulary type (`Bytes`) plus the handful of
// helpers (hex codecs, concatenation, constant-time compare, secure erase)
// that the rest of the tree builds on.

#ifndef FLICKER_SRC_COMMON_BYTES_H_
#define FLICKER_SRC_COMMON_BYTES_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace flicker {

// Raw octet string. All measurements, ciphertexts, and wire messages use it.
using Bytes = std::vector<uint8_t>;

// Encodes `data` as lowercase hex ("deadbeef").
std::string ToHex(const Bytes& data);

// Decodes a hex string (case-insensitive). Returns an empty vector and sets
// `ok` to false on malformed input (odd length or non-hex digit).
Bytes FromHex(std::string_view hex, bool* ok = nullptr);

// Copies the bytes of an ASCII string.
Bytes BytesOf(std::string_view text);

// Concatenates any number of buffers in order.
Bytes Concat(std::initializer_list<const Bytes*> parts);
Bytes Concat(const Bytes& a, const Bytes& b);
Bytes Concat(const Bytes& a, const Bytes& b, const Bytes& c);

// Compares two buffers without early exit, so the comparison time does not
// leak the position of the first mismatch. Returns true iff equal.
bool ConstantTimeEquals(const Bytes& a, const Bytes& b);

// Overwrites the buffer with zeros through a volatile pointer so the store
// cannot be elided, then clears it. Used by the SLB Core cleanup phase and
// by anything holding key material.
void SecureErase(Bytes* data);
void SecureErase(void* data, size_t len);

// Big-endian integer serialization helpers (TPM structures are big-endian).
void PutUint16(Bytes* out, uint16_t v);
void PutUint32(Bytes* out, uint32_t v);
void PutUint64(Bytes* out, uint64_t v);
uint16_t GetUint16(const Bytes& in, size_t offset);
uint32_t GetUint32(const Bytes& in, size_t offset);
uint64_t GetUint64(const Bytes& in, size_t offset);

// FNV-1a, 32-bit (offset basis 0x811C9DC5, prime 0x01000193) over the first
// `len` bytes of `data`. Not cryptographic: the session layer and the vTPM
// state codec use it to turn a wire bit-flip into a rejected frame.
uint32_t Fnv1a32(const uint8_t* data, size_t len);

}  // namespace flicker

#endif  // FLICKER_SRC_COMMON_BYTES_H_
