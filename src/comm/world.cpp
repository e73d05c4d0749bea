#include "comm/world.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "telemetry/comm_recorder.h"
#include "telemetry/session.h"

namespace mmd::comm {

namespace {

bool matches(const Message& m, int src, int tag) {
  return (src == kAnySource || m.src == src) && (tag == kAnyTag || m.tag == tag);
}

/// Fold this run's traffic delta into the telemetry registry (the registry is
/// the durable home for comm accounting; RankTraffic stays the in-run,
/// zero-overhead tally).
void fold_traffic(telemetry::Session& session, int rank, const RankTraffic& before,
                  const RankTraffic& after) {
  auto& m = session.metrics();
  m.add(rank, "comm.p2p.msgs", after.p2p_msgs_sent - before.p2p_msgs_sent);
  m.add(rank, "comm.p2p.bytes", after.p2p_bytes_sent - before.p2p_bytes_sent);
  m.add(rank, "comm.onesided.puts", after.onesided_puts - before.onesided_puts);
  m.add(rank, "comm.onesided.bytes", after.onesided_bytes - before.onesided_bytes);
  m.add(rank, "comm.collectives", after.collectives - before.collectives);
  m.add(rank, "comm.collectives.parked",
        after.collectives_parked - before.collectives_parked);
  m.add(rank, "comm.wait.ns", after.wait_ns - before.wait_ns);
}

/// Collective waits spin this many `pause`s, then yield until the deadline,
/// and only then park in the kernel. Without the yield and the deadline an
/// oversubscribed world (more ranks than cores) burns the time slices the
/// late ranks need: with a 430 us pause-only spin, an 8-rank allreduce on 4
/// cores took 450 us, against 31 us when every waiter parks at once.
constexpr int kSpinPauses = 64;
constexpr std::chrono::microseconds kYieldWindow{50};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

constexpr auto kMax = [](auto a, auto b) { return std::max(a, b); };

/// Monotonic nanoseconds for wait-time accounting.
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

World::World(int nranks)
    : size_(nranks),
      slots_(static_cast<std::size_t>(nranks)),
      traffic_(static_cast<std::size_t>(nranks)) {
  if (nranks <= 0) throw std::invalid_argument("World requires at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
}

World::~World() = default;

void World::run(const std::function<void(Comm&)>& fn) {
  if (aborted_.load(std::memory_order_acquire)) {
    throw std::logic_error("comm::World::run: a previous run aborted");
  }
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  threads.reserve(static_cast<std::size_t>(size_));
  // Rank threads inherit the SUBMITTING thread's current session, not the
  // process-global one: when several campaign jobs run concurrently, each
  // job's world records into that job's thread-scoped session instead of
  // racing on the shared slots of whichever session installed first.
  telemetry::Session* session = telemetry::Session::current();
  telemetry::CommRecorder* recorder =
      session != nullptr ? session->comm_recorder() : nullptr;
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      telemetry::Session::ThreadScope telemetry_scope(session);
      const RankTraffic before = traffic_[static_cast<std::size_t>(r)];
      if (session != nullptr) session->tracer().attach_calling_thread(r);
      Comm comm(*this, r);
      comm.rec_ = recorder;
      try {
        fn(comm);
      } catch (const WorldAborted&) {
        // Woken by another rank's failure; that rank's error is rethrown.
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        abort_run();
      }
      if (session != nullptr) {
        fold_traffic(*session, r, before, traffic_[static_cast<std::size_t>(r)]);
        if (recorder != nullptr && r < recorder->nranks()) {
          session->metrics().set_gauge(
              r, "telemetry.trace.dropped",
              static_cast<double>(recorder->rank_log(r).dropped()));
        }
        telemetry::Tracer::detach_calling_thread();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

RankTraffic World::total_traffic() const {
  RankTraffic total;
  for (const auto& t : traffic_) total += t;
  return total;
}

void World::reset_traffic() {
  for (auto& t : traffic_) t = RankTraffic{};
}

void World::abort_run() {
  aborted_.store(true, std::memory_order_seq_cst);
  // The bump frees every rank spinning or parked in a collective; one that
  // reads the generation later sees the flag first (rendezvous).
  generation_.fetch_add(1, std::memory_order_seq_cst);
  generation_.notify_all();
  // Taking each lock orders the flag before any mailbox waiter's next check,
  // so none can miss it between its check and its wait.
  for (auto& box : mailboxes_) {
    { std::lock_guard lk(box->m); }
    box->cv.notify_all();
  }
}

void World::deliver(int dst, Message msg) {
  auto& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard lk(box.m);
    // Posted receives match before the queue, in post order, so a message an
    // irecv already owns is never observed by probe or a blocking recv.
    for (auto it = box.pending.begin(); it != box.pending.end(); ++it) {
      RequestState& rs = **it;
      if (!rs.done && matches(msg, rs.src, rs.tag)) {
        rs.msg = std::move(msg);
        rs.done = true;
        box.pending.erase(it);
        box.cv.notify_all();
        return;
      }
    }
    box.q.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

Message World::receive(int me, int src, int tag) {
  auto& box = *mailboxes_[static_cast<std::size_t>(me)];
  std::unique_lock lk(box.m);
  for (;;) {
    auto it = std::find_if(box.q.begin(), box.q.end(),
                           [&](const Message& m) { return matches(m, src, tag); });
    if (it != box.q.end()) {
      Message out = std::move(*it);
      box.q.erase(it);
      return out;
    }
    throw_if_aborted();
    box.cv.wait(lk);
  }
}

ProbeInfo World::probe_blocking(int me, int src, int tag) {
  auto& box = *mailboxes_[static_cast<std::size_t>(me)];
  std::unique_lock lk(box.m);
  for (;;) {
    auto it = std::find_if(box.q.begin(), box.q.end(),
                           [&](const Message& m) { return matches(m, src, tag); });
    if (it != box.q.end()) return {it->src, it->tag, it->payload.size()};
    throw_if_aborted();
    box.cv.wait(lk);
  }
}

std::optional<ProbeInfo> World::probe_nonblocking(int me, int src, int tag) {
  auto& box = *mailboxes_[static_cast<std::size_t>(me)];
  std::lock_guard lk(box.m);
  auto it = std::find_if(box.q.begin(), box.q.end(),
                         [&](const Message& m) { return matches(m, src, tag); });
  if (it == box.q.end()) return std::nullopt;
  return ProbeInfo{it->src, it->tag, it->payload.size()};
}

Request World::post_irecv(int me, int src, int tag) {
  auto& box = *mailboxes_[static_cast<std::size_t>(me)];
  auto state = std::make_shared<RequestState>();
  state->src = src;
  state->tag = tag;
  std::lock_guard lk(box.m);
  // A message already queued before the post satisfies the receive at once
  // (earliest match wins, same as blocking recv).
  auto it = std::find_if(box.q.begin(), box.q.end(),
                         [&](const Message& m) { return matches(m, src, tag); });
  if (it != box.q.end()) {
    state->msg = std::move(*it);
    box.q.erase(it);
    state->done = true;
  } else {
    box.pending.push_back(state);
  }
  return Request(std::move(state));
}

Message World::request_wait(int me, Request& r) {
  auto& box = *mailboxes_[static_cast<std::size_t>(me)];
  RequestState& rs = *r.state_;
  {
    std::unique_lock lk(box.m);
    box.cv.wait(lk, [&] {
      return rs.done || aborted_.load(std::memory_order_acquire);
    });
    if (!rs.done) throw WorldAborted();
    rs.consumed = true;
  }
  // Safe without the lock: once done && consumed, no other thread touches rs.
  Message out = std::move(rs.msg);
  r.state_.reset();
  return out;
}

bool World::request_test(int me, const Request& r) {
  auto& box = *mailboxes_[static_cast<std::size_t>(me)];
  std::lock_guard lk(box.m);
  return r.state_->done;
}

std::size_t World::request_wait_any(int me, std::span<Request> rs) {
  auto& box = *mailboxes_[static_cast<std::size_t>(me)];
  std::unique_lock lk(box.m);
  for (;;) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const auto& st = rs[i].state_;
      if (st && st->done && !st->consumed) {
        st->consumed = true;
        return i;
      }
    }
    throw_if_aborted();
    box.cv.wait(lk);
  }
}

Message Request::take_message() {
  // Valid only after wait_any marked this request consumed under the mailbox
  // lock; from then on the state is exclusively the caller's.
  Message out = std::move(state_->msg);
  state_.reset();
  return out;
}

// Lock-free rendezvous. A rank reads the generation before counting itself
// in; the generation cannot move until every rank (this one included) has
// arrived, so `gen` is the current one. The last arrival runs `last` (which
// sees every slot: each arrival's fetch_add releases its slot write), resets
// the counter, then publishes the bump that frees the waiters. A rank only
// writes its slot for the next collective after it has seen the bump, so no
// slot is overwritten while it is being reduced, and `result_` cannot be
// republished before every rank has read it.
//
// Abort is the one other writer of the generation: it sets the flag, then
// bumps. A rank whose `gen` already includes that bump sees the flag at the
// first check; any other rank sees the bump in its wait and the flag after.
// A failed rank never arrives, so no last arrival races the abort's bump.
template <typename Last>
void World::rendezvous(int me, Last last) {
  const std::uint32_t gen = generation_.load(std::memory_order_acquire);
  throw_if_aborted();
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) == size_ - 1) {
    last();
    arrived_.store(0, std::memory_order_relaxed);
    // seq_cst, not just release: notify_all skips the futex wake when it
    // sees no parked waiter, and that check must not run ahead of the bump.
    generation_.store(gen + 1, std::memory_order_seq_cst);
    generation_.notify_all();
  } else {
    await_generation(me, gen);
    throw_if_aborted();
  }
}

// Spin-then-park: a short pause spin catches the common case of ranks that
// arrive within a microsecond of each other, the yield phase hands the core
// to a late rank on an oversubscribed host, and only a wait longer than the
// deadline pays for a futex sleep and the wake-up.
void World::await_generation(int me, std::uint32_t gen) {
  for (int i = 0; i < kSpinPauses; ++i) {
    if (generation_.load(std::memory_order_acquire) != gen) return;
    cpu_relax();
  }
  const auto deadline = std::chrono::steady_clock::now() + kYieldWindow;
  while (generation_.load(std::memory_order_acquire) == gen) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ++traffic_[static_cast<std::size_t>(me)].collectives_parked;
      generation_.wait(gen, std::memory_order_seq_cst);
      return;
    }
    std::this_thread::yield();
  }
}

// Every rank's contribution is folded left in RANK order, so the result is
// the same bits on every run, whatever order the ranks arrive in.
template <typename T, typename Op>
T World::allreduce(int me, T x, Op op) {
  slots_[static_cast<std::size_t>(me)].bits = std::bit_cast<std::uint64_t>(x);
  rendezvous(me, [&] {
    T acc = std::bit_cast<T>(slots_[0].bits);
    for (std::size_t r = 1; r < slots_.size(); ++r) {
      acc = op(acc, std::bit_cast<T>(slots_[r].bits));
    }
    result_ = std::bit_cast<std::uint64_t>(acc);
  });
  return std::bit_cast<T>(result_);
}

void World::barrier(int me) {
  rendezvous(me, [] {});
}

std::shared_ptr<PutWindow> World::create_window(int me) {
  rendezvous(me, [this] { window_ = std::make_shared<PutWindow>(size_); });
  return window_;
}

void Comm::send_bytes(int dst, int tag, std::span<const std::byte> data) {
  send_bytes(dst, tag, std::vector<std::byte>(data.begin(), data.end()));
}

void Comm::send_bytes(int dst, int tag, std::vector<std::byte>&& payload) {
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.payload = std::move(payload);
  const std::size_t bytes = m.payload.size();
  auto& t = my_traffic();
  ++t.p2p_msgs_sent;
  t.p2p_bytes_sent += bytes;
  if (rec_ != nullptr) {
    telemetry::CommEvent ev;
    ev.t0_ns = rec_->now_ns();
    ev.bytes = bytes;
    ev.peer = dst;
    ev.tag = tag;
    ev.op = telemetry::CommOp::kSend;
    world_->deliver(dst, std::move(m));
    ev.t1_ns = rec_->now_ns();
    rec_->record(rank_, ev);
  } else {
    world_->deliver(dst, std::move(m));
  }
}

Request Comm::isend_bytes(int dst, int tag, std::span<const std::byte> data) {
  return isend_bytes(dst, tag, std::vector<std::byte>(data.begin(), data.end()));
}

Request Comm::isend_bytes(int dst, int tag, std::vector<std::byte>&& payload) {
  send_bytes(dst, tag, std::move(payload));
  auto state = std::make_shared<RequestState>();
  state->done = true;     // buffered: delivery already happened
  state->is_send = true;  // wait paths must not record it as a receive
  return Request(std::move(state));
}

Request Comm::irecv(int src, int tag) {
  Request r = world_->post_irecv(rank_, src, tag);
  if (rec_ != nullptr) {
    telemetry::CommEvent ev;
    ev.t0_ns = rec_->now_ns();
    ev.t1_ns = ev.t0_ns;
    ev.peer = src;
    ev.tag = tag;
    ev.op = telemetry::CommOp::kIrecvPost;
    rec_->record(rank_, ev);
  }
  return r;
}

Message Comm::wait(Request& r) {
  const bool record = rec_ != nullptr && r.state_ != nullptr && !r.state_->is_send;
  const std::uint64_t r0 = record ? rec_->now_ns() : 0;
  const std::uint64_t t0 = now_ns();
  Message m = world_->request_wait(rank_, r);
  my_traffic().wait_ns += now_ns() - t0;
  if (record) {
    telemetry::CommEvent ev;
    ev.t0_ns = r0;
    ev.t1_ns = rec_->now_ns();
    ev.bytes = m.payload.size();
    ev.peer = m.src;
    ev.tag = m.tag;
    ev.op = telemetry::CommOp::kWait;
    rec_->record(rank_, ev);
  }
  return m;
}

bool Comm::test(const Request& r) { return world_->request_test(rank_, r); }

std::vector<Message> Comm::wait_all(std::span<Request> rs) {
  const std::uint64_t t0 = now_ns();
  std::vector<Message> out;
  out.reserve(rs.size());
  for (Request& r : rs) {
    const bool record =
        rec_ != nullptr && r.state_ != nullptr && !r.state_->is_send;
    const std::uint64_t r0 = record ? rec_->now_ns() : 0;
    out.push_back(world_->request_wait(rank_, r));
    if (record) {
      const Message& m = out.back();
      telemetry::CommEvent ev;
      ev.t0_ns = r0;
      ev.t1_ns = rec_->now_ns();
      ev.bytes = m.payload.size();
      ev.peer = m.src;
      ev.tag = m.tag;
      ev.op = telemetry::CommOp::kWait;
      rec_->record(rank_, ev);
    }
  }
  my_traffic().wait_ns += now_ns() - t0;
  return out;
}

std::size_t Comm::wait_any(std::span<Request> rs) {
  const std::uint64_t r0 = rec_ != nullptr ? rec_->now_ns() : 0;
  const std::uint64_t t0 = now_ns();
  const std::size_t i = world_->request_wait_any(rank_, rs);
  my_traffic().wait_ns += now_ns() - t0;
  // Once wait_any marked the request consumed, its state is exclusively ours
  // to read until the caller's take_message().
  const RequestState& st = *rs[i].state_;
  if (rec_ != nullptr && !st.is_send) {
    telemetry::CommEvent ev;
    ev.t0_ns = r0;
    ev.t1_ns = rec_->now_ns();
    ev.bytes = st.msg.payload.size();
    ev.peer = st.msg.src;
    ev.tag = st.msg.tag;
    ev.op = telemetry::CommOp::kWait;
    rec_->record(rank_, ev);
  }
  return i;
}

Message Comm::recv(int src, int tag) {
  if (rec_ == nullptr) return world_->receive(rank_, src, tag);
  telemetry::CommEvent ev;
  ev.t0_ns = rec_->now_ns();
  Message m = world_->receive(rank_, src, tag);
  ev.t1_ns = rec_->now_ns();
  ev.bytes = m.payload.size();
  ev.peer = m.src;
  ev.tag = m.tag;
  ev.op = telemetry::CommOp::kRecv;
  rec_->record(rank_, ev);
  return m;
}

ProbeInfo Comm::probe(int src, int tag) {
  return world_->probe_blocking(rank_, src, tag);
}

std::optional<ProbeInfo> Comm::iprobe(int src, int tag) {
  return world_->probe_nonblocking(rank_, src, tag);
}

namespace {

/// Wrap one collective call with flight-recorder accounting. `bytes` is the
/// reduced payload per rank (8 for the scalar allreduces, 0 for barriers).
template <typename Fn>
auto record_collective(telemetry::CommRecorder* rec, int rank,
                       std::uint64_t bytes, Fn&& fn) {
  if (rec == nullptr) return fn();
  telemetry::CommEvent ev;
  ev.t0_ns = rec->now_ns();
  auto out = fn();
  ev.t1_ns = rec->now_ns();
  ev.bytes = bytes;
  ev.op = telemetry::CommOp::kCollective;
  rec->record(rank, ev);
  return out;
}

}  // namespace

void Comm::barrier() {
  ++my_traffic().collectives;
  record_collective(rec_, rank_, 0, [&] {
    world_->barrier(rank_);
    return 0;
  });
}

double Comm::allreduce_sum(double x) {
  ++my_traffic().collectives;
  return record_collective(rec_, rank_, sizeof(double), [&] {
    return world_->allreduce(rank_, x, std::plus<>{});
  });
}

double Comm::allreduce_max(double x) {
  ++my_traffic().collectives;
  return record_collective(rec_, rank_, sizeof(double),
                           [&] { return world_->allreduce(rank_, x, kMax); });
}

std::uint64_t Comm::allreduce_sum_u64(std::uint64_t x) {
  ++my_traffic().collectives;
  return record_collective(rec_, rank_, sizeof(std::uint64_t), [&] {
    return world_->allreduce(rank_, x, std::plus<>{});
  });
}

std::uint64_t Comm::allreduce_max_u64(std::uint64_t x) {
  ++my_traffic().collectives;
  return record_collective(rec_, rank_, sizeof(std::uint64_t),
                           [&] { return world_->allreduce(rank_, x, kMax); });
}

std::shared_ptr<PutWindow> Comm::create_window() {
  ++my_traffic().collectives;
  return record_collective(rec_, rank_, 0,
                           [&] { return world_->create_window(rank_); });
}

void Comm::note_put(int target, std::size_t bytes) {
  auto& t = my_traffic();
  ++t.onesided_puts;
  t.onesided_bytes += bytes;
  if (rec_ != nullptr) {
    telemetry::CommEvent ev;
    ev.t0_ns = rec_->now_ns();
    ev.t1_ns = ev.t0_ns;
    ev.bytes = bytes;
    ev.peer = target;
    ev.op = telemetry::CommOp::kPut;
    rec_->record(rank_, ev);
  }
}

}  // namespace mmd::comm
