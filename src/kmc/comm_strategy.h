#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/world.h"
#include "kmc/ghost_strategy.h"
#include "kmc/model.h"

namespace mmd::kmc {

std::string to_string(GhostStrategy s);

/// A modified-site record shipped by the on-demand strategies.
struct SiteUpdate {
  std::int64_t gid = 0;
  std::int32_t state = 0;
  std::int32_t pad = 0;
};

/// Per-rank traffic attributable to KMC ghost communication.
struct GhostTraffic {
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;  ///< including zero-size handshakes

  GhostTraffic& operator+=(const GhostTraffic& o) {
    bytes_sent += o.bytes_sent;
    messages_sent += o.messages_sent;
    return *this;
  }
};

/// Precomputed exchange plan for one rank and one sector (or the full halo
/// when sector < 0): which of my owned cells each peer reads, which of my
/// ghost images each peer owns, and the owned->image copies for self-wrapped
/// boxes. Both sides derive the lists from the same pure function of the
/// decomposition, so the pattern is static and needs no handshaking —
/// exactly the paper's description of the traditional scheme.
class SectorExchangePlan {
 public:
  /// `depth` is the shell thickness on the sector's outer sides (the full
  /// halo for GET plans; one cell for PUT-back plans — see the correctness
  /// note in comm_strategy.cpp). Ignored for sector < 0 (full halo).
  SectorExchangePlan(const lat::BccGeometry& geo,
                     const lat::DomainDecomposition& dd, int rank, int sector,
                     int depth);

  /// GET: refresh my ghost images of the sector shell from their owners.
  GhostTraffic get(comm::Comm& comm, KmcModel& model, int tag_base) const;

  /// Owner-side snapshot of the values peers currently hold for my cells in
  /// this plan (taken right after a GET, when owner and images agree). The
  /// PUT uses it to ignore stale echoes: several peers put the same cell
  /// back, and only the one whose events touched it returns a new value.
  std::vector<std::vector<std::uint8_t>> snapshot(const KmcModel& model) const;

  /// PUT: send my (possibly modified) ghost images back to their owners.
  /// The owner applies a cell only when it differs from `sent_snapshot`.
  GhostTraffic put(comm::Comm& comm, KmcModel& model, int tag_base,
                   const std::vector<std::vector<std::uint8_t>>& sent_snapshot) const;

  /// Total sites in this plan's ghost region (for reporting).
  std::size_t ghost_sites() const;

 private:
  struct PeerCells {
    int peer = 0;
    std::vector<std::size_t> cells;  ///< local entry indices, canonical order
  };

  std::vector<PeerCells> recv_from_;  ///< my ghost images, grouped by owner
  std::vector<PeerCells> send_to_;    ///< my owned cells read by each peer
  std::vector<std::pair<std::size_t, std::size_t>> self_copy_;  ///< owned->image
};

/// Dispatcher bundling the per-sector plans and the on-demand machinery.
/// The one-sided strategy puts each sector's updates into a
/// `comm::FencedWindow`: one barrier per sector, and the drained records
/// are applied while faster ranks may already run the next sector.
class GhostComm {
 public:
  GhostComm(const lat::BccGeometry& geo, const lat::DomainDecomposition& dd,
            int rank, int halo, GhostStrategy strategy);

  GhostStrategy strategy() const { return strategy_; }

  /// Collective: must be called once by every rank before the first cycle
  /// (creates the one-sided windows; refreshes the full halo).
  void initialize(comm::Comm& comm, KmcModel& model);

  /// Called before processing `sector` (traditional GET; no-op on-demand).
  void before_sector(comm::Comm& comm, KmcModel& model, int sector);

  /// Called after processing `sector` with the set of globally-identified
  /// modified sites (traditional PUT ignores them and ships the shell).
  void after_sector(comm::Comm& comm, KmcModel& model, int sector,
                    std::span<const SiteUpdate> updates);

  const GhostTraffic& traffic() const { return traffic_; }
  void reset_traffic() { traffic_ = GhostTraffic{}; }

 private:
  void push_updates_two_sided(comm::Comm& comm, KmcModel& model, int sector,
                              std::span<const SiteUpdate> updates);
  void push_updates_one_sided(comm::Comm& comm, KmcModel& model,
                              std::span<const SiteUpdate> updates);
  /// Whether rank q's storage (owned + halo) holds an image of gid.
  bool peer_has_image(std::size_t peer_pos, std::int64_t gid) const;

  const lat::BccGeometry* geo_;
  const lat::DomainDecomposition* dd_;
  int rank_;
  int halo_;
  GhostStrategy strategy_;
  std::vector<std::unique_ptr<SectorExchangePlan>> sector_get_plans_;  ///< 8, full halo
  std::vector<std::unique_ptr<SectorExchangePlan>> sector_put_plans_;  ///< 8, depth 1
  std::vector<std::vector<std::uint8_t>> put_snapshot_;  ///< active sector's GET-time values
  std::unique_ptr<SectorExchangePlan> full_plan_;
  std::vector<int> neighbors_;           ///< unique adjacent ranks
  std::vector<lat::LocalBox> neighbor_boxes_;
  std::optional<comm::FencedWindow> window_;  ///< one-sided strategy only
  GhostTraffic traffic_;
};

}  // namespace mmd::kmc
