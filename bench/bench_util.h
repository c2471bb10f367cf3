// Shared helpers for the reproduction benches: consistent table printing
// with paper-vs-measured columns, and the one wall-clock harness of the
// host-timed micro benches.
//
// Every table bench prints simulated-time results calibrated against the
// paper's HP dc5750 (Broadcom BCM0102 TPM); benches re-run key rows under
// the Infineon profile where §7 quotes both.

#ifndef FLICKER_BENCH_BENCH_UTIL_H_
#define FLICKER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

namespace flicker {

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule() {
  std::printf("---------------------------------------------------------------------\n");
}

// A row comparing the paper's reported number with our simulated one.
inline void PrintCompareRow(const char* label, double paper, double measured, const char* unit) {
  double delta_pct = paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("%-34s %10.1f %10.1f %6s  %+6.1f%%\n", label, paper, measured, unit, delta_pct);
}

inline void PrintCompareHeader() {
  std::printf("%-34s %10s %10s %6s  %7s\n", "operation", "paper", "measured", "unit", "delta");
  PrintRule();
}

inline std::string FormatMinSec(double seconds) {
  int minutes = static_cast<int>(seconds) / 60;
  double rest = seconds - minutes * 60;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%d:%04.1f", minutes, rest);
  return std::string(buffer);
}

// ---- Host-timed micro benches ----

// Keeps the compiler from deleting a computation whose result the bench
// never reads: an empty asm statement that claims to read `value`.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

// Wall-clock seconds per call of `fn`: one untimed warm-up call, then
// kTimingWindows equal windows, each running calls until
// min_seconds / kTimingWindows pass or max_iters / kTimingWindows calls run
// (always at least one), and the median of the windows' per-call times. A
// noisy-neighbour burst on a shared host then moves one window, not the
// reported figure.
inline constexpr int kTimingWindows = 5;

template <typename Fn>
double MeasureSecondsPerOp(Fn&& fn, double min_seconds, int max_iters) {
  using Clock = std::chrono::steady_clock;
  fn();
  const double window_seconds = min_seconds / kTimingWindows;
  const int window_iters = std::max(1, max_iters / kTimingWindows);
  std::array<double, kTimingWindows> per_op;
  for (double& seconds : per_op) {
    int iters = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0;
    do {
      fn();
      ++iters;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < window_seconds && iters < window_iters);
    seconds = elapsed / iters;
  }
  std::nth_element(per_op.begin(), per_op.begin() + kTimingWindows / 2, per_op.end());
  return per_op[kTimingWindows / 2];
}

// The command line of a micro bench: no arguments, or --bench_json=PATH to
// also write the report. Returns false, after a usage line on stderr, for
// anything else.
inline bool ParseBenchJsonFlag(int argc, char** argv, std::string* json_path) {
  constexpr char kFlag[] = "--bench_json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) != 0) {
      std::fprintf(stderr, "usage: %s [--bench_json=PATH]\n", argv[0]);
      return false;
    }
    *json_path = argv[i] + sizeof(kFlag) - 1;
  }
  return true;
}

// Opens the report before anything is measured, so a bad path fails fast.
// With no path the report goes to /dev/null: the bench measures and checks
// the same either way. Returns nullptr, after a message on stderr, if the
// file cannot be opened.
inline std::FILE* OpenReport(const char* bench, const std::string& path) {
  std::FILE* out = std::fopen(path.empty() ? "/dev/null" : path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", bench, path.c_str());
  }
  return out;
}

// Writes the finished report (a JsonWriter document), closes it and names
// the file, if there is one. A bench that fails before its report is
// finished closes `out` with nothing written.
inline void CloseReport(std::FILE* out, const std::string& path, const std::string& report) {
  std::fwrite(report.data(), 1, report.size(), out);
  std::fclose(out);
  if (!path.empty()) {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace flicker

#endif  // FLICKER_BENCH_BENCH_UTIL_H_
