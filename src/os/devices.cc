#include "src/os/devices.h"

#include <cmath>

#include "src/crypto/drbg.h"
#include "src/crypto/sha1.h"

namespace flicker {

namespace {

constexpr size_t kChunkBytes = 64 * 1024;  // One device transfer.
constexpr uint64_t kContentSeed = 0xc0b7;  // Seeds the copied file's bytes.

}  // namespace

BlockCopyReport SimulateBlockCopyDuringSessions(const BlockCopyParams& params) {
  BlockCopyReport report;
  Drbg content(kContentSeed);
  Sha1 source_hash;
  Sha1 delivered_hash;

  const double ms_per_chunk =
      static_cast<double>(kChunkBytes) / (params.device_mb_per_s * 1024.0 * 1024.0) * 1000.0;
  const double cycle_ms = params.session_ms + params.os_window_ms;

  double now_ms = 0;
  uint64_t ring_fill = 0;
  uint64_t produced = 0;

  // Is the OS suspended at simulated time t? Sessions start at t=0:
  // [0, session_ms) suspended, [session_ms, cycle) running, repeating.
  auto os_suspended = [&](double t) { return std::fmod(t, cycle_ms) < params.session_ms; };
  // Time until the next OS window opens.
  auto until_os_runs = [&](double t) {
    double phase = std::fmod(t, cycle_ms);
    return phase < params.session_ms ? params.session_ms - phase : 0.0;
  };

  while (produced < params.total_bytes) {
    size_t n = static_cast<size_t>(
        kChunkBytes < params.total_bytes - produced ? kChunkBytes : params.total_bytes - produced);
    Bytes chunk = content.Generate(n);
    source_hash.Update(chunk);

    // A Flicker-aware driver parks the device across suspensions: it never
    // starts a transfer that would land inside a session, so the ring never
    // backs up and the device never stalls mid-transfer (§7.5's proposed
    // fix). Time still passes while the device waits for the OS window.
    if (params.flicker_aware_quiesce && os_suspended(now_ms + ms_per_chunk)) {
      now_ms += until_os_runs(now_ms + ms_per_chunk);
    }

    // Device transfers the chunk at line rate.
    now_ms += ms_per_chunk;

    if (!params.flicker_aware_quiesce && os_suspended(now_ms)) {
      if (ring_fill + n > params.ring_capacity_bytes) {
        // Ring full: the device asserts flow control and stalls until the
        // OS window opens and drains completions.
        double wait = until_os_runs(now_ms);
        now_ms += wait;
        report.stall_ms += wait;
        ++report.stall_events;
        // OS drains the ring.
        ring_fill = 0;
      } else {
        ring_fill += n;
      }
    } else {
      // OS running: completions drain immediately.
      ring_fill = 0;
    }
    // Block-device flow control means no chunk is ever dropped; it reaches
    // the OS buffer in order once the ring drains.
    delivered_hash.Update(chunk);
    report.bytes_delivered += n;
    produced += n;
  }

  report.elapsed_ms = now_ms;
  report.sessions_run = static_cast<int>(now_ms / cycle_ms) + 1;
  report.source_digest = source_hash.Finish();
  report.delivered_digest = delivered_hash.Finish();
  return report;
}

}  // namespace flicker
