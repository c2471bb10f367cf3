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
#include <memory>
#include <string>
#include <utility>

#include "src/common/parse_number.h"

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

// A micro bench's report file. OpenReport opens PATH.tmp before anything
// is measured, so a bad path fails fast; CloseReport writes the finished
// report there and renames it onto PATH. A bench that fails before
// CloseReport leaves PATH as it was: destroying an unclosed ReportFile
// removes the temporary file. With no path the report goes to /dev/null:
// the bench measures and checks the same either way.
struct ReportFile {
  ReportFile(const char* bench, std::FILE* file, std::string path)
      : bench(bench), file(file), path(std::move(path)) {}
  ReportFile(const ReportFile&) = delete;
  ReportFile& operator=(const ReportFile&) = delete;
  ~ReportFile() {
    if (file != nullptr) {
      std::fclose(file);
      if (!path.empty()) {
        std::remove((path + ".tmp").c_str());
      }
    }
  }

  const char* bench;
  std::FILE* file;
  std::string path;
};

// Returns nullptr, after a message on stderr, if the file cannot be opened.
inline std::unique_ptr<ReportFile> OpenReport(const char* bench, const std::string& path) {
  const std::string open_path = path.empty() ? "/dev/null" : path + ".tmp";
  std::FILE* file = std::fopen(open_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", bench, open_path.c_str());
    return nullptr;
  }
  return std::make_unique<ReportFile>(bench, file, path);
}

// Writes the finished report (a JsonWriter document), moves it onto the
// path and names the file, if there is one. Returns false, after a message
// on stderr, if any step fails; the old report is then left in place.
inline bool CloseReport(std::unique_ptr<ReportFile> out, const std::string& report) {
  const bool written = std::fwrite(report.data(), 1, report.size(), out->file) == report.size();
  const bool closed = std::fclose(out->file) == 0;
  out->file = nullptr;
  if (out->path.empty()) {
    return true;
  }
  const std::string temp_path = out->path + ".tmp";
  if (!written || !closed || std::rename(temp_path.c_str(), out->path.c_str()) != 0) {
    std::fprintf(stderr, "%s: cannot write %s\n", out->bench, out->path.c_str());
    std::remove(temp_path.c_str());
    return false;
  }
  std::printf("wrote %s\n", out->path.c_str());
  return true;
}

// Parses the value of the numeric flag `arg`, whose first `name_len`
// characters are its `--name=`, by ParseNumber's rule. Returns false, after
// naming the flag on stderr, if the value does not parse whole into `out`.
template <typename T>
bool ParseFlagNumber(const char* arg, size_t name_len, T* out) {
  if (ParseNumber(std::string(arg + name_len), out)) {
    return true;
  }
  std::fprintf(stderr, "bad value for %.*s: '%s'\n", static_cast<int>(name_len - 1), arg,
               arg + name_len);
  return false;
}

}  // namespace flicker

#endif  // FLICKER_BENCH_BENCH_UTIL_H_
