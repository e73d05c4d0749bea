#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace mmd::comm {

/// Wildcard constants mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Central message-tag registry. Every subsystem draws its tags from a named
/// block below, so two layers can never collide on the same (peer, tag)
/// channel — previously the bases were magic numbers scattered over
/// `world.h`, `ghost_exchange.cpp`, and `kmc/comm_strategy.cpp`.
///
/// Blocks are sized generously; helpers derive the per-channel tag inside a
/// block (axis/side for the lattice halo, sector for KMC). Tests and benches
/// use ad-hoc small tags (< 100), which is fine as long as they do not run
/// concurrently with subsystem exchanges on the same World.
namespace tags {

// --- comm-internal collectives (world.h) ---
inline constexpr int kGather = 9990;     ///< default gather_to channel
inline constexpr int kBroadcast = 9991;  ///< default broadcast_from channel

// --- lattice ghost exchange (blocks of 8: base + axis*2 + side) ---
inline constexpr int kGhostHalo = 100;          ///< forward exchange, aggregated
inline constexpr int kGhostRho = 110;           ///< rho-only refresh, aggregated
inline constexpr int kGhostReverseRho = 120;    ///< reverse rho accumulation
inline constexpr int kGhostReverseForce = 130;  ///< reverse force accumulation

/// Channel of one (axis, side) within a lattice ghost-exchange block.
inline constexpr int axis_side(int base, int axis, int side) {
  return base + axis * 2 + side;
}

// --- KMC sector exchange (blocks of 16: base + sector; sector 8 = full halo) ---
inline constexpr int kKmcGet = 1000;       ///< traditional GET shells
inline constexpr int kKmcPut = 1016;       ///< traditional PUT-back shells
inline constexpr int kKmcOnDemand = 1032;  ///< on-demand two-sided updates

/// Channel of one KMC sector within a block (sector in [0, 8]; 8 = full halo).
inline constexpr int sector(int base, int s) { return base + s; }

// --- application drivers (kmc::engine, core::simulation gathers) ---
inline constexpr int kKmcVacancyGather = 9000;
inline constexpr int kSimVacancyGather = 9010;

}  // namespace tags

/// A point-to-point message in flight.
struct Message {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

/// Result of a probe: who sent what, and how big it is — the information an
/// on-demand receiver must discover at runtime (paper §2.2.1: "the receiver
/// has to use MPI_Probe to query the information beforehand").
struct ProbeInfo {
  int src = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

/// Serialize a trivially-copyable span into a byte vector.
template <typename T>
std::vector<std::byte> pack(std::span<const T> items) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(items.size_bytes());
  if (!items.empty()) std::memcpy(out.data(), items.data(), items.size_bytes());
  return out;
}

/// Deserialize a byte vector produced by pack<T>.
template <typename T>
std::vector<T> unpack(std::span<const std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<T> out(bytes.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
  return out;
}

/// Builder for a multi-section payload: each section is a u64 byte count
/// followed by the raw bytes of its trivially-copyable records. Aggregating
/// the logically separate arrays of one exchange step (halo records +
/// run-away chains + emigrants, or rho values + chain rho) into ONE message
/// per peer replaces several small sends with a single large one — the
/// per-message latency amortization behind the NeighborhoodExchange
/// refactor. A built payload can be handed to a by-move send (release()),
/// so its bytes are written once, here, and read once by the receiver.
class SectionWriter {
 public:
  /// Append a section copied from `items`.
  template <typename T>
  void add(std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = items.size_bytes();
    put(n);
    if (n != 0) {
      const auto* data = reinterpret_cast<const std::byte*>(items.data());
      buf_.insert(buf_.end(), data, data + n);
    }
  }

  /// Append a section of n records, record k being make(k), serialized
  /// straight into the payload: no staging array.
  template <typename T, typename Make>
  void add_each(std::size_t n, Make&& make) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(std::uint64_t{n * sizeof(T)});
    for (std::size_t k = 0; k < n; ++k) put<T>(make(k));
  }

  /// Reserve room for a payload of `bytes` (headers included), so the
  /// sections that follow are written without reallocating.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  std::span<const std::byte> bytes() const { return buf_; }
  bool empty() const { return buf_.empty(); }
  void clear() { buf_.clear(); }

  /// Hand the payload over (for Comm's by-move sends); the writer is left
  /// empty.
  std::vector<std::byte> release() { return std::exchange(buf_, {}); }

 private:
  template <typename T>
  void put(const T& item) {
    const auto* p = reinterpret_cast<const std::byte*>(&item);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  std::vector<std::byte> buf_;
};

/// Records of one payload section, read in place: operator[] copies record
/// k out of the message bytes, so nothing is staged.
template <typename T>
class SectionView {
 public:
  explicit SectionView(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::size_t size() const { return bytes_.size() / sizeof(T); }
  std::span<const std::byte> bytes() const { return bytes_; }
  T operator[](std::size_t k) const {
    T item;
    std::memcpy(&item, bytes_.data() + k * sizeof(T), sizeof(T));
    return item;
  }

 private:
  std::span<const std::byte> bytes_;
};

/// Reader for a SectionWriter payload; sender and receiver agree on the
/// section order. Throws on truncated or misaligned sections.
class SectionReader {
 public:
  explicit SectionReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  /// The next section, copied out.
  template <typename T>
  std::vector<T> take() {
    const SectionView<T> v = view<T>();
    std::vector<T> out(v.size());
    if (!out.empty()) std::memcpy(out.data(), v.bytes().data(), v.bytes().size());
    return out;
  }

  /// The next section, read in place (valid while the payload lives).
  template <typename T>
  SectionView<T> view() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = 0;
    if (pos_ + sizeof n > bytes_.size()) {
      throw std::runtime_error("SectionReader: truncated section header");
    }
    std::memcpy(&n, bytes_.data() + pos_, sizeof n);
    pos_ += sizeof n;
    if (n > bytes_.size() - pos_) {
      throw std::runtime_error("SectionReader: truncated section payload");
    }
    if (n % sizeof(T) != 0) {
      throw std::runtime_error("SectionReader: section size misaligned");
    }
    const SectionView<T> out(bytes_.subspan(pos_, n));
    pos_ += n;
    return out;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace mmd::comm
