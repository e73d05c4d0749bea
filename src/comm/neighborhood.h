#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "comm/world.h"

namespace mmd::comm {

/// One round of a static neighborhood exchange: the paper's §2.1.1 reusable
/// communication pattern, made nonblocking. The consumer
///
///   1. `expect()`s every inbound (peer, tag) channel — each posts its
///      receive immediately, so all receives are outstanding before any
///      send flows (the MPI ordering that avoids unexpected-message copies),
///   2. `send()`s one aggregated buffer per outbound channel, and
///   3. `complete()`s, which hands each inbound message to the callback in
///      ARRIVAL order — out-of-order completion, so a slow neighbor never
///      serializes the fast ones.
///
/// Consumers whose reduction order matters (emigrant adoption, overlapping
/// reverse-accumulate slabs) stage per-channel results inside the callback
/// and apply them in fixed channel order afterwards; unpacking into disjoint
/// regions may be done directly in the callback.
///
/// The object is a one-shot round: after complete() it is empty and may be
/// reused for the next round.
class NeighborhoodExchange {
 public:
  explicit NeighborhoodExchange(Comm& comm) : comm_(&comm) {}

  /// Declare an inbound channel and post its receive now. Returns the
  /// channel index passed to the complete() callback for this message.
  std::size_t expect(int peer, int tag) {
    recvs_.push_back(comm_->irecv(peer, tag));
    return recvs_.size() - 1;
  }

  /// Nonblocking aggregated send on an outbound channel.
  void send(int peer, int tag, std::span<const std::byte> payload) {
    sends_.push_back(comm_->isend_bytes(peer, tag, payload));
  }

  /// Same, handing a built payload (SectionWriter::release) over by move.
  void send(int peer, int tag, std::vector<std::byte>&& payload) {
    sends_.push_back(comm_->isend_bytes(peer, tag, std::move(payload)));
  }

  std::size_t expected() const { return recvs_.size(); }

  /// Complete the round: invoke f(channel_index, Message&&) for every
  /// expected message as it arrives, then retire the (already-buffered)
  /// sends. Every posted receive is always drained — see Request's contract.
  template <typename F>
  void complete(F&& f) {
    for (std::size_t remaining = recvs_.size(); remaining != 0; --remaining) {
      const std::size_t i = comm_->wait_any(recvs_);
      f(i, recvs_[i].take_message());
    }
    comm_->wait_all(sends_);
    recvs_.clear();
    sends_.clear();
  }

 private:
  Comm* comm_;
  std::vector<Request> recvs_;
  std::vector<Request> sends_;
};

}  // namespace mmd::comm
