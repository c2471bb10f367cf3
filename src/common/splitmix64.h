// SplitMix64: the one stateless 64-bit mixer every seeded simulation draw
// goes through (crash plans, backoff jitter, wire-fault verdicts, event
// tiebreaks). Cheap, full avalanche, and a pure function of its input, so a
// (seed, index) pair maps to the same draw on every run and replays are
// bit-exact.

#ifndef FLICKER_SRC_COMMON_SPLITMIX64_H_
#define FLICKER_SRC_COMMON_SPLITMIX64_H_

#include <cstdint>

namespace flicker {

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace flicker

#endif  // FLICKER_SRC_COMMON_SPLITMIX64_H_
