#include "src/common/json.h"

#include <cstdio>
#include <utility>

namespace flicker {

void AppendJsonString(std::string* out, std::string_view in) {
  out->push_back('"');
  for (char c : in) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string HexDigest(uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

JsonWriter& JsonWriter::End() {
  const Level level = open_.back();
  open_.pop_back();
  if (!level.is_inline && !level.empty) {
    out_ += '\n' + std::string(2 * open_.size(), ' ');
  }
  out_ += level.close;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view key, std::string_view value) {
  Next(key);
  AppendJsonString(&out_, value);
  return *this;
}

JsonWriter& JsonWriter::Fixed(std::string_view key, double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return Member(key, buf);
}

JsonWriter& JsonWriter::Embed(std::string_view key, const std::string& document) {
  Next(key);
  for (size_t i = 0; i + 1 < document.size(); ++i) {
    out_ += document[i];
    if (document[i] == '\n') {
      out_.append(2 * open_.size(), ' ');
    }
  }
  return *this;
}

std::string JsonWriter::Take() {
  out_ += '\n';
  return std::move(out_);
}

JsonWriter& JsonWriter::Open(std::string_view key, char open, char close, bool is_inline) {
  Next(key);
  out_ += open;
  open_.push_back({close, is_inline || (!open_.empty() && open_.back().is_inline), true});
  return *this;
}

void JsonWriter::Next(std::string_view key) {
  if (!open_.empty()) {
    Level& level = open_.back();
    if (!level.empty) {
      out_ += level.is_inline ? ", " : ",";
    }
    if (!level.is_inline) {
      out_ += '\n' + std::string(2 * open_.size(), ' ');
    }
    level.empty = false;
  }
  if (!key.empty()) {
    AppendJsonString(&out_, key);
    out_ += ": ";
  }
}

JsonWriter& JsonWriter::Member(std::string_view key, std::string_view text) {
  Next(key);
  out_ += text;
  return *this;
}

}  // namespace flicker
