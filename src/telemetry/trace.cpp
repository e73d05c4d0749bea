#include "telemetry/trace.h"

#include <algorithm>
#include <stdexcept>

namespace mmd::telemetry {

namespace {

struct ThreadBinding {
  Tracer* tracer = nullptr;
  TrackId track;
};

thread_local ThreadBinding tls_binding;

}  // namespace

Tracer::Tracer(int nranks, int lanes_per_rank, std::size_t events_per_track)
    : nranks_(nranks),
      lanes_(lanes_per_rank),
      capacity_(std::max<std::size_t>(1, events_per_track)),
      epoch_(std::chrono::steady_clock::now()),
      tracks_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(lanes_per_rank)) {
  if (nranks <= 0 || lanes_per_rank <= 0) {
    throw std::invalid_argument("Tracer requires at least one rank and one lane");
  }
}

void Tracer::attach_calling_thread(int rank, int lane) {
  if (rank < 0 || rank >= nranks_ || lane < 0 || lane >= lanes_) {
    detach_calling_thread();
    return;
  }
  const std::size_t idx = static_cast<std::size_t>(rank) * static_cast<std::size_t>(lanes_) +
                          static_cast<std::size_t>(lane);
  {
    std::lock_guard lk(attach_mutex_);
    if (tracks_[idx] == nullptr) {
      auto t = std::make_unique<Track>();
      t->rank = rank;
      t->lane = lane;
      // Reserve, do not fill: most lanes record far fewer spans than the
      // capacity, and untouched pages never become resident.
      t->ring.reserve(capacity_);
      tracks_[idx] = std::move(t);
    }
  }
  tls_binding.tracer = this;
  tls_binding.track = TrackId{rank, lane};
}

void Tracer::detach_calling_thread() {
  tls_binding.tracer = nullptr;
  tls_binding.track = TrackId{};
}

TrackId Tracer::calling_thread_track() { return tls_binding.track; }

Tracer* Tracer::calling_thread_tracer() { return tls_binding.tracer; }

void Tracer::record(const TrackId& id, const TraceEvent& ev) {
  if (id.rank < 0 || id.rank >= nranks_ || id.lane < 0 || id.lane >= lanes_) return;
  const std::size_t idx = static_cast<std::size_t>(id.rank) * static_cast<std::size_t>(lanes_) +
                          static_cast<std::size_t>(id.lane);
  Track* t = tracks_[idx].get();
  if (t == nullptr) return;  // never attached
  if (t->ring.size() < capacity_) {
    t->ring.push_back(ev);  // within the reserved capacity: no allocation
  } else {
    t->ring[t->recorded % capacity_] = ev;
  }
  ++t->recorded;
}

std::size_t Tracer::total_dropped() const {
  std::size_t n = 0;
  for (const auto& t : tracks_) {
    if (t) n += t->dropped();
  }
  return n;
}

}  // namespace mmd::telemetry
