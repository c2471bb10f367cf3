// The one writer of the BENCH_*.json reports: a report builds its document
// member by member and never places a quote, comma or newline itself.
//
// The layout rule: a block container puts one member per line, two spaces
// of indent per level; an inline container puts `{"k": v, "k2": v2}` on one
// line, and anything opened inside it is inline too. Doubles print with a
// stated count of decimals, so a same-seed report is byte-identical.

#ifndef FLICKER_SRC_COMMON_JSON_H_
#define FLICKER_SRC_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace flicker {

// Appends `in` quoted: `"`, `\`, newline, tab and carriage return get their
// two-character escapes, other control bytes `\u00XX`.
void AppendJsonString(std::string* out, std::string_view in);

// A 64-bit digest as 0x plus 16 lowercase hex digits.
std::string HexDigest(uint64_t digest);

// Every call returns the writer, so the members of one object chain. An
// empty key opens the report itself or an array element.
class JsonWriter {
 public:
  JsonWriter& Object(std::string_view key = {}) { return Open(key, '{', '}', false); }
  JsonWriter& InlineObject(std::string_view key = {}) { return Open(key, '{', '}', true); }
  JsonWriter& Array(std::string_view key) { return Open(key, '[', ']', false); }
  // Closes the innermost open object or array.
  JsonWriter& End();

  template <typename T>
  JsonWriter& Int(std::string_view key, T value) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    return Member(key, std::to_string(value));
  }
  JsonWriter& Bool(std::string_view key, bool value) {
    return Member(key, value ? "true" : "false");
  }
  JsonWriter& String(std::string_view key, std::string_view value);
  // `value` as printf's %.Nf prints it; the reports use 1 to 4 decimals.
  JsonWriter& Fixed(std::string_view key, double value, int decimals);
  JsonWriter& Digest(std::string_view key, uint64_t digest) {
    return String(key, HexDigest(digest));
  }
  // A block document another writer finished, re-indented to this depth.
  JsonWriter& Embed(std::string_view key, const std::string& document);

  // The finished document, newline-terminated.
  std::string Take();

 private:
  struct Level {
    char close;
    bool is_inline;
    bool empty;
  };

  JsonWriter& Open(std::string_view key, char open, char close, bool is_inline);
  // The separator, line break and indent before a member, then its key.
  void Next(std::string_view key);
  JsonWriter& Member(std::string_view key, std::string_view text);

  std::string out_;
  std::vector<Level> open_;
};

}  // namespace flicker

#endif  // FLICKER_SRC_COMMON_JSON_H_
