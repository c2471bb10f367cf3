#include "src/os/devices.h"

#include <cmath>
#include <deque>

#include "src/common/splitmix64.h"
#include "src/crypto/sha1.h"

namespace flicker {

namespace {

constexpr size_t kChunkBytes = 64 * 1024;  // One device transfer.
// Descriptor-ring capacity: how much the device can buffer while the OS
// cannot service completions.
constexpr uint64_t kRingCapacityBytes = 4 * 1024 * 1024;
constexpr uint64_t kContentSeed = 0xc0b7;  // Seeds the copied file's bytes.

// One finished transfer. The model moves descriptors, not payload: a chunk's
// bytes are stood in for by one SplitMix64 word of (seed, index), so a digest
// over descriptors sees a chunk lost, repeated, reordered or swapped without
// generating or hashing the file itself.
struct Descriptor {
  uint64_t index = 0;
  uint64_t length = 0;
  uint64_t content = 0;
};

void HashDescriptor(Sha1* hash, const Descriptor& d) {
  Bytes encoded;
  PutUint64(&encoded, d.index);
  PutUint64(&encoded, d.length);
  PutUint64(&encoded, d.content);
  hash->Update(encoded);
}

// The completion ring between the device and the OS, bounded by its bytes.
// The device posts one descriptor per finished transfer - while the OS is
// suspended, only if HasRoomFor allows it - and only the OS drains it,
// oldest first, into its buffer.
class DescriptorRing {
 public:
  bool HasRoomFor(uint64_t length) const { return fill_bytes_ + length <= kRingCapacityBytes; }

  void Post(const Descriptor& d) {
    slots_.push_back(d);
    fill_bytes_ += d.length;
  }

  // Frees the oldest slot for the next Post and loses its chunk: what a
  // device without flow control does when it wraps onto a full ring.
  void DropOldest() {
    fill_bytes_ -= slots_.front().length;
    slots_.pop_front();
  }

  // The OS services every completion in order. A gap in the chunk indices
  // is a lost transfer, which the OS reports as an I/O error; a chunk out of
  // order or repeated shows in the delivered digest.
  void Drain(Sha1* delivered, BlockCopyReport* report) {
    for (const Descriptor& d : slots_) {
      if (d.index >= next_index_) {
        report->io_errors += d.index - next_index_;
        next_index_ = d.index + 1;
      }
      HashDescriptor(delivered, d);
      report->bytes_delivered += d.length;
    }
    slots_.clear();
    fill_bytes_ = 0;
  }

  uint64_t next_index() const { return next_index_; }

 private:
  std::deque<Descriptor> slots_;
  uint64_t fill_bytes_ = 0;
  uint64_t next_index_ = 0;  // The chunk the OS expects next.
};

}  // namespace

BlockCopyReport SimulateBlockCopyDuringSessions(const BlockCopyParams& params) {
  BlockCopyReport report;
  Sha1 source_hash;
  Sha1 delivered_hash;
  DescriptorRing ring;

  const double ms_per_chunk =
      static_cast<double>(kChunkBytes) / (params.device_mb_per_s * 1024.0 * 1024.0) * 1000.0;
  const double cycle_ms = params.session_ms + params.os_window_ms;

  double now_ms = 0;
  uint64_t produced = 0;
  uint64_t index = 0;

  // Is the OS suspended at simulated time t? Sessions start at t=0:
  // [0, session_ms) suspended, [session_ms, cycle) running, repeating.
  auto os_suspended = [&](double t) { return std::fmod(t, cycle_ms) < params.session_ms; };
  // Time until the next OS window opens.
  auto until_os_runs = [&](double t) {
    double phase = std::fmod(t, cycle_ms);
    return phase < params.session_ms ? params.session_ms - phase : 0.0;
  };

  while (produced < params.total_bytes) {
    const uint64_t n =
        kChunkBytes < params.total_bytes - produced ? kChunkBytes : params.total_bytes - produced;
    const Descriptor chunk{index, n, SplitMix64(kContentSeed + index)};
    HashDescriptor(&source_hash, chunk);
    ++index;

    // A Flicker-aware driver parks the device across suspensions: it never
    // starts a transfer that would land inside a session, so the ring never
    // backs up and the device never stalls mid-transfer (§7.5's proposed
    // fix). Time still passes while the device waits for the OS window.
    if (params.flicker_aware_quiesce && os_suspended(now_ms + ms_per_chunk)) {
      now_ms += until_os_runs(now_ms + ms_per_chunk);
    }

    // Device transfers the chunk at line rate.
    now_ms += ms_per_chunk;

    bool os_running = params.flicker_aware_quiesce || !os_suspended(now_ms);
    if (!os_running && !ring.HasRoomFor(n)) {
      if (params.seeded_ring_overrun) {
        ring.DropOldest();
      } else {
        // Ring full: the device asserts flow control and stalls until the
        // OS window opens and drains completions.
        double wait = until_os_runs(now_ms);
        now_ms += wait;
        report.stall_ms += wait;
        ++report.stall_events;
        ring.Drain(&delivered_hash, &report);
        os_running = true;
      }
    }
    ring.Post(chunk);
    if (os_running) {
      ring.Drain(&delivered_hash, &report);
    }
    produced += n;
  }
  // The OS window after the last transfer drains what is left; chunks lost
  // at the tail are I/O errors too.
  ring.Drain(&delivered_hash, &report);
  report.io_errors += index - ring.next_index();

  report.elapsed_ms = now_ms;
  report.sessions_run = static_cast<int>(now_ms / cycle_ms) + 1;
  report.source_digest = source_hash.Finish();
  report.delivered_digest = delivered_hash.Finish();
  return report;
}

}  // namespace flicker
