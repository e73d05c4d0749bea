#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace mmd::telemetry {

/// One completed span, Chrome-trace "complete" event shaped ("ph":"X").
/// `name` must point to storage that outlives the tracer — in practice the
/// string literals passed to MMD_TRACE_SCOPE.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;  ///< begin, ns since tracer epoch
  std::uint64_t t1_ns = 0;  ///< end
  std::uint64_t dma_ops = 0;    ///< optional DMA payload (0 = omit)
  std::uint64_t dma_bytes = 0;
};

/// Identity of the track a thread records into. Lane 0 is the rank's master
/// core; lanes 1..64 are its logical slave cores (CPEs).
struct TrackId {
  int rank = -1;  ///< -1: thread not attached, spans are no-ops
  int lane = 0;
};

/// Per-rank, per-lane span recorder.
///
/// Every track owns a ring buffer of TraceEvents, reserved (not filled) when a
/// thread first attaches to the track; recording a span is a couple of stores
/// into that ring with no locks and no allocation. The ring grows into its
/// reservation as spans arrive, so resident memory follows what was recorded.
/// The single-writer discipline mirrors comm::RankTraffic: a track is only ever written by the one thread
/// currently attached to it (the rank's thread for lane 0, the OS thread
/// executing that logical CPE for lanes >= 1), so readers must wait for the
/// writers to join — exporters run after World::run() returns.
///
/// When a ring fills up it wraps and overwrites the oldest events (Chrome
/// trace format does not require chronological order); `Track::recorded`
/// keeps the true total so exporters can report how many were dropped.
class Tracer {
 public:
  static constexpr int kMasterLane = 0;

  struct Track {
    int rank = 0;
    int lane = 0;
    std::vector<TraceEvent> ring;   ///< fills up to the capacity reserved at attach
    std::size_t recorded = 0;       ///< total events; > ring.size() => wrapped

    std::size_t live() const { return std::min(recorded, ring.size()); }
    std::size_t dropped() const {
      return recorded > ring.size() ? recorded - ring.size() : 0;
    }
  };

  Tracer(int nranks, int lanes_per_rank, std::size_t events_per_track);

  int nranks() const { return nranks_; }
  int lanes_per_rank() const { return lanes_; }

  /// Bind the calling thread to (rank, lane), allocating the track's ring on
  /// first attach (the only locked path; recording itself is lock-free).
  /// Out-of-range ids detach the thread instead, so spans become no-ops
  /// rather than misattributed.
  void attach_calling_thread(int rank, int lane = kMasterLane);

  static void detach_calling_thread();
  static TrackId calling_thread_track();
  static Tracer* calling_thread_tracer();

  /// The construction instant all span timestamps are relative to. The comm
  /// flight recorder shares it so comm events line up with phase spans.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Nanoseconds since this tracer's construction.
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Append to the calling thread's track. Callers must be attached.
  void record(const TrackId& id, const TraceEvent& ev);

  // --- read side (after writers joined) ---
  int num_tracks() const { return static_cast<int>(tracks_.size()); }
  /// nullptr if no thread ever attached to this slot.
  const Track* track(int i) const { return tracks_[static_cast<std::size_t>(i)].get(); }
  std::size_t total_dropped() const;

 private:
  int nranks_;
  int lanes_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  std::mutex attach_mutex_;
  std::vector<std::unique_ptr<Track>> tracks_;
};

/// RAII scoped span: records [construction, destruction) onto the calling
/// thread's track and, given a `seconds` sink, adds the span's length to it
/// (1e-9 · (t1_ns − t0_ns), from the same two clock reads). The sink is
/// charged with or without a tracer; with neither, the span is a no-op (two
/// branch instructions), so library code can trace unconditionally.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, double* seconds = nullptr)
      : tracer_(Tracer::calling_thread_tracer()), seconds_(seconds) {
    if (tracer_ == nullptr && seconds_ == nullptr) return;
    if (tracer_ != nullptr) track_ = Tracer::calling_thread_track();
    ev_.name = name;
    ev_.t0_ns = now_ns();
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr && seconds_ == nullptr) return;
    ev_.t1_ns = now_ns();
    if (tracer_ != nullptr) tracer_->record(track_, ev_);
    if (seconds_ != nullptr) {
      *seconds_ += 1e-9 * static_cast<double>(ev_.t1_ns - ev_.t0_ns);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach DMA traffic to the span (shown as args in the trace viewer).
  void set_dma(std::uint64_t ops, std::uint64_t bytes) {
    ev_.dma_ops = ops;
    ev_.dma_bytes = bytes;
  }

 private:
  /// Tracer-relative when tracing; untraced sinks only need differences.
  std::uint64_t now_ns() const {
    if (tracer_ != nullptr) return tracer_->now_ns();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  Tracer* tracer_;
  double* seconds_;
  TrackId track_;
  TraceEvent ev_;
};

#define MMD_TRACE_CONCAT_IMPL(a, b) a##b
#define MMD_TRACE_CONCAT(a, b) MMD_TRACE_CONCAT_IMPL(a, b)

/// Scoped phase span, e.g. MMD_TRACE_SCOPE("md.force"). See
/// docs/OBSERVABILITY.md for the span naming conventions.
#define MMD_TRACE_SCOPE(name) \
  ::mmd::telemetry::ScopedSpan MMD_TRACE_CONCAT(mmd_trace_span_, __LINE__)(name)

/// Scoped phase span that also adds its length in seconds to the `double`
/// lvalue `seconds`, traced or not — how the engines charge their
/// compute/comm split, e.g. MMD_TRACE_SCOPE_CHARGE("md.force.rho", comp_s_).
#define MMD_TRACE_SCOPE_CHARGE(name, seconds)                                 \
  ::mmd::telemetry::ScopedSpan MMD_TRACE_CONCAT(mmd_trace_span_, __LINE__)( \
      name, &(seconds))

}  // namespace mmd::telemetry
