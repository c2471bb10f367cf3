// ParseNumber: the one rule every text-to-number read follows (chaos replay
// files, the campaign benches' flags). A number must be a decimal that
// starts with a digit (no sign, blank, "inf" or "nan"), the whole token must
// parse, and the value must fit the field: no ERANGE, at most INT_MAX for an
// int, UINT32_MAX for a uint32_t, 1 for a bool. `3x`, `x` and `-1` are all
// refused rather than read as 3, 0 or a wrapped-around count.

#ifndef FLICKER_SRC_COMMON_PARSE_NUMBER_H_
#define FLICKER_SRC_COMMON_PARSE_NUMBER_H_

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace flicker {

// Parses `text` whole into `out`. False leaves `out` alone.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  static_assert(std::is_arithmetic_v<T>);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  T value{};
  if constexpr (std::is_floating_point_v<T>) {
    value = std::strtod(text.c_str(), &end);
  } else {
    const unsigned long long wide = std::strtoull(text.c_str(), &end, 10);
    if (wide > std::numeric_limits<T>::max()) {
      return false;
    }
    value = static_cast<T>(wide);
  }
  if (*end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace flicker

#endif  // FLICKER_SRC_COMMON_PARSE_NUMBER_H_
