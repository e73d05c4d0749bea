#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "comm/message.h"

namespace mmd::telemetry {
class CommRecorder;
}  // namespace mmd::telemetry

namespace mmd::comm {

class Comm;
class World;

/// Per-rank traffic accounting. Only the owning rank's thread writes its own
/// entry, so no atomics are needed; aggregation happens after `run()` or at
/// collective boundaries.
struct RankTraffic {
  std::uint64_t p2p_msgs_sent = 0;
  std::uint64_t p2p_bytes_sent = 0;
  std::uint64_t onesided_puts = 0;
  std::uint64_t onesided_bytes = 0;
  std::uint64_t collectives = 0;
  /// Collective waits that outlasted the spin and yield phases and parked
  /// in the kernel (host-dependent, like wait_ns).
  std::uint64_t collectives_parked = 0;
  std::uint64_t wait_ns = 0;  ///< time blocked in wait/wait_all/wait_any

  RankTraffic& operator+=(const RankTraffic& o) {
    p2p_msgs_sent += o.p2p_msgs_sent;
    p2p_bytes_sent += o.p2p_bytes_sent;
    onesided_puts += o.onesided_puts;
    onesided_bytes += o.onesided_bytes;
    collectives += o.collectives;
    collectives_parked += o.collectives_parked;
    wait_ns += o.wait_ns;
    return *this;
  }

  std::uint64_t total_bytes() const { return p2p_bytes_sent + onesided_bytes; }
  std::uint64_t total_msgs() const { return p2p_msgs_sent + onesided_puts; }
};

/// Shared state of one outstanding nonblocking operation. All fields are
/// guarded by the owning rank's mailbox mutex; completion is broadcast on
/// that mailbox's condition variable (the single-mutex design keeps wait /
/// deliver race-free without per-request synchronization).
struct RequestState {
  int src = kAnySource;   ///< match filter (receives only)
  int tag = kAnyTag;      ///< match filter (receives only)
  bool done = false;      ///< message arrived, or send was buffered
  bool consumed = false;  ///< result already handed to the caller
  bool is_send = false;   ///< born-complete send; wait paths skip recording
  Message msg;            ///< the matched message (receives only)
};

/// Handle to a nonblocking operation, in the shape of an MPI_Request.
///
/// Semantics: `isend` is buffered (like the blocking `send`) so its request
/// is born complete; `irecv` posts a matching slot that `deliver` fills
/// before the mailbox queue is consulted, so a posted receive is invisible
/// to probe. Every posted receive MUST be completed via wait/wait_all/
/// wait_any — an abandoned request would silently swallow the next matching
/// message.
class Request {
 public:
  Request() = default;

  /// True until the operation's result has been retrieved.
  bool valid() const { return state_ != nullptr; }

  /// After Comm::wait_any reports this request complete, move the received
  /// message out and release the handle.
  Message take_message();

 private:
  friend class Comm;
  friend class World;
  explicit Request(std::shared_ptr<RequestState> s) : state_(std::move(s)) {}
  std::shared_ptr<RequestState> state_;
};

/// One-sided communication window (models an MPI-3 RMA epoch with
/// MPI_Put + MPI_Win_fence). Each rank owns an append inbox; remote ranks
/// deposit byte records into it without any matching receive. After a
/// `fence()` the owner drains its inbox. This is exactly the primitive the
/// paper proposes for on-demand KMC communication without zero-size
/// handshake messages.
class PutWindow {
 public:
  explicit PutWindow(int nranks) : inboxes_(nranks) {}

  void append(int target, std::span<const std::byte> data) {
    auto& box = inboxes_[static_cast<std::size_t>(target)];
    std::lock_guard lk(box.m);
    box.data.insert(box.data.end(), data.begin(), data.end());
  }

  std::vector<std::byte> drain(int rank) {
    auto& box = inboxes_[static_cast<std::size_t>(rank)];
    std::lock_guard lk(box.m);
    return std::exchange(box.data, {});
  }

 private:
  struct Inbox {
    std::mutex m;
    std::vector<std::byte> data;
  };
  std::vector<Inbox> inboxes_;
};

/// An N-rank message-passing world executed as N threads inside one process.
///
/// This is the substitution for MPI on TaihuLight (see DESIGN.md §2): the
/// communication *algorithms* (ghost exchange, probe-based on-demand
/// delivery, one-sided puts) run unchanged, and per-rank traffic counters
/// supply the volumes that the scaling model projects to paper scale.
class World {
 public:
  explicit World(int nranks);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return size_; }

  /// Spawn one thread per rank, run `fn(comm)` on each, join all. Any
  /// exception thrown by a rank is rethrown on the caller after join.
  void run(const std::function<void(Comm&)>& fn);

  /// Aggregate traffic over all ranks since construction or reset.
  RankTraffic total_traffic() const;
  const RankTraffic& traffic(int rank) const {
    return traffic_[static_cast<std::size_t>(rank)];
  }
  void reset_traffic();

 private:
  friend class Comm;

  struct Mailbox {
    std::mutex m;
    std::condition_variable cv;
    std::deque<Message> q;
    /// Posted receives, in post order. deliver() matches these before the
    /// queue, so a message claimed by an irecv is never seen by probe/recv.
    std::vector<std::shared_ptr<RequestState>> pending;
  };

  // --- point to point ---
  void deliver(int dst, Message msg);
  Message receive(int me, int src, int tag);
  ProbeInfo probe_blocking(int me, int src, int tag);
  std::optional<ProbeInfo> probe_nonblocking(int me, int src, int tag);

  // --- nonblocking requests (me = owning rank) ---
  Request post_irecv(int me, int src, int tag);
  Message request_wait(int me, Request& r);
  bool request_test(int me, const Request& r);
  std::size_t request_wait_any(int me, std::span<Request> rs);

  // --- collectives (me = calling rank) ---
  // Lock-free rendezvous: each rank publishes its contribution in its own
  // slot and counts itself in with one fetch_add; the last arrival reduces
  // the slots in rank order, publishes `result_` and bumps `generation_`,
  // which the other ranks spin, yield and finally park on.
  void barrier(int me);
  template <typename T, typename Op>
  T allreduce(int me, T x, Op op);
  std::shared_ptr<PutWindow> create_window(int me);

  template <typename Last>
  void rendezvous(int me, Last last);
  void await_generation(int me, std::uint32_t gen);

  static constexpr std::size_t kCacheLine = 64;
  struct alignas(kCacheLine) Slot {
    std::uint64_t bits = 0;
  };

  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<Slot> slots_;
  alignas(kCacheLine) std::atomic<int> arrived_{0};
  alignas(kCacheLine) std::atomic<std::uint32_t> generation_{0};
  std::uint64_t result_ = 0;  ///< written by the last arrival before the bump
  std::shared_ptr<PutWindow> window_;
  std::vector<RankTraffic> traffic_;
};

/// A rank's handle into the World: the MPI-communicator-shaped API used by
/// all parallel algorithms in this codebase.
class Comm {
 public:
  Comm(World& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_->size_; }

  /// Blocking untyped send (buffered: never deadlocks on unmatched sends).
  void send_bytes(int dst, int tag, std::span<const std::byte> data);

  /// Blocking typed send of trivially-copyable elements.
  template <typename T>
  void send(int dst, int tag, std::span<const T> items) {
    send_bytes(dst, tag, std::as_bytes(items));
  }
  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, std::span<const T>(&v, 1));
  }

  /// Nonblocking untyped send. Buffered like `send` — the payload is copied
  /// and delivered before return — so the request is born complete; waiting
  /// on it is a no-op kept for MPI-shaped symmetry.
  Request isend_bytes(int dst, int tag, std::span<const std::byte> data);

  /// Nonblocking typed send of trivially-copyable elements.
  template <typename T>
  Request isend(int dst, int tag, std::span<const T> items) {
    return isend_bytes(dst, tag, std::as_bytes(items));
  }

  /// Post a nonblocking receive matching (src, tag). The posted slot
  /// out-prioritizes probe/recv for matching messages; it MUST be completed
  /// with wait/wait_all/wait_any.
  Request irecv(int src = kAnySource, int tag = kAnyTag);

  /// Block until `r` completes; return its message and release the handle.
  Message wait(Request& r);

  /// Nonblocking completion check. Does not consume: once true, wait()
  /// returns instantly with the message.
  bool test(const Request& r);

  /// Complete every request, returning messages in REQUEST order (not
  /// arrival order) — deterministic regardless of sender scheduling.
  std::vector<Message> wait_all(std::span<Request> rs);

  /// Block until any not-yet-consumed request completes; returns its index.
  /// Retrieve the message with rs[i].take_message(). Skips invalidated
  /// handles, so callers can loop until every request has been taken.
  std::size_t wait_any(std::span<Request> rs);

  /// Blocking receive matching (src, tag); wildcards kAnySource/kAnyTag.
  Message recv(int src = kAnySource, int tag = kAnyTag);

  template <typename T>
  std::vector<T> recv_vector(int src = kAnySource, int tag = kAnyTag,
                             int* actual_src = nullptr) {
    Message m = recv(src, tag);
    if (actual_src) *actual_src = m.src;
    return unpack<T>(m.payload);
  }

  /// Blocking probe: wait until a matching message exists, return its info
  /// without consuming it.
  ProbeInfo probe(int src = kAnySource, int tag = kAnyTag);

  /// Non-blocking probe.
  std::optional<ProbeInfo> iprobe(int src = kAnySource, int tag = kAnyTag);

  void barrier();
  double allreduce_sum(double x);
  double allreduce_max(double x);
  std::uint64_t allreduce_sum_u64(std::uint64_t x);
  std::uint64_t allreduce_max_u64(std::uint64_t x);

  /// Collective: concatenate every rank's items on `root` (rank order).
  /// Non-root ranks receive an empty vector.
  template <typename T>
  std::vector<T> gather_to(int root, std::span<const T> items,
                           int tag = tags::kGather) {
    if (rank_ != root) {
      send(root, tag, items);
      return {};
    }
    std::vector<T> all;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) {
        all.insert(all.end(), items.begin(), items.end());
      } else {
        auto part = recv_vector<T>(r, tag);
        all.insert(all.end(), part.begin(), part.end());
      }
    }
    return all;
  }

  /// Collective: every rank receives root's items.
  template <typename T>
  std::vector<T> broadcast_from(int root, std::span<const T> items,
                                int tag = tags::kBroadcast) {
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r != root) send(r, tag, items);
      }
      return {items.begin(), items.end()};
    }
    return recv_vector<T>(root, tag);
  }

  /// Collective: create (or join) a one-sided window shared by all ranks.
  std::shared_ptr<PutWindow> create_window();

  /// One-sided put of typed records into `target`'s inbox.
  template <typename T>
  void put(PutWindow& win, int target, std::span<const T> items) {
    auto bytes = std::as_bytes(items);
    win.append(target, bytes);
    note_put(target, bytes.size());
  }

  /// Drain this rank's one-sided inbox (valid after a fence/barrier).
  template <typename T>
  std::vector<T> drain(PutWindow& win) {
    return unpack<T>(win.drain(rank_));
  }

  RankTraffic& my_traffic() {
    return world_->traffic_[static_cast<std::size_t>(rank_)];
  }

 private:
  friend class World;

  /// Traffic + flight-recorder accounting for put() (non-template so the
  /// header never needs the complete CommRecorder type).
  void note_put(int target, std::size_t bytes);

  World* world_;
  int rank_;
  /// The current session's comm flight recorder, set by World::run; nullptr
  /// (every instrumentation point a cheap branch) when recording is off.
  telemetry::CommRecorder* rec_ = nullptr;
};

}  // namespace mmd::comm
