#include "kmc/comm_strategy.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "comm/neighborhood.h"

namespace mmd::kmc {

namespace {

// Tag blocks from the central registry (comm/message.h).
constexpr int kTagGet = comm::tags::kKmcGet;
constexpr int kTagPut = comm::tags::kKmcPut;
constexpr int kTagOnDemand = comm::tags::kKmcOnDemand;

/// Canonical iteration of the ghost cells within `depth` cells of a sector's
/// octant — expanded in BOTH directions per axis, because an event partner
/// can sit one cell inside the sector along one axis while being a ghost
/// site along another. sector < 0 means the whole halo. Pure function of
/// (box, sector, depth): sender and receiver replay it identically.
///
/// Depth differs by use: the GET shell needs the full halo (a sector
/// vacancy's exchange partner is up to 1 cell away and its energy reads a
/// cutoff further), while the PUT-back shell is ONE cell deep — events
/// displace sites at most one cell from the sector, and a deeper put-back
/// would echo sites other ranks legitimately modified in the same sector.
template <typename F>
void for_each_region_cell(const lat::LocalBox& box, int sector, int depth, F&& f) {
  const int h = sector < 0 ? box.halo : depth;
  int lo[3], hi[3];
  const int len[3] = {box.lx, box.ly, box.lz};
  for (int a = 0; a < 3; ++a) {
    if (sector < 0) {
      lo[a] = -h;
      hi[a] = len[a] + h;
    } else {
      const int half = (sector >> a) & 1;
      const int mid = len[a] / 2;
      lo[a] = std::max(half == 0 ? -h : mid - h, -box.halo);
      hi[a] = std::min(half == 0 ? mid + h : len[a] + h, len[a] + box.halo);
    }
  }
  for (int z = lo[2]; z < hi[2]; ++z) {
    for (int y = lo[1]; y < hi[1]; ++y) {
      for (int x = lo[0]; x < hi[0]; ++x) {
        const bool ghost = x < 0 || x >= len[0] || y < 0 || y >= len[1] ||
                           z < 0 || z >= len[2];
        if (!ghost) continue;
        for (int sub = 0; sub <= 1; ++sub) {
          f(lat::LocalCoord{x, y, z, sub});
        }
      }
    }
  }
}

lat::SiteCoord global_of(const lat::BccGeometry& geo, const lat::LocalBox& box,
                         const lat::LocalCoord& c) {
  return geo.wrap({c.x + box.ox, c.y + box.oy, c.z + box.oz, c.sub});
}

/// Local coordinate of a global cell inside `box`'s OWNED region (assumes
/// ownership).
lat::LocalCoord owned_local_of(const lat::BccGeometry& geo,
                               const lat::LocalBox& box,
                               const lat::SiteCoord& g) {
  auto rep = [](int gc, int origin, int len, int n) {
    int c = (gc - origin) % n;
    if (c < 0) c += n;
    // Owned coords are unique representatives in [0, len).
    (void)len;
    return c;
  };
  return {rep(g.x, box.ox, box.lx, geo.nx()), rep(g.y, box.oy, box.ly, geo.ny()),
          rep(g.z, box.oz, box.lz, geo.nz()), g.sub};
}

bool box_has_image(const lat::BccGeometry& geo, const lat::LocalBox& box,
                   const lat::SiteCoord& g) {
  auto has_rep = [&](int gc, int origin, int len, int n) {
    int base = (gc - origin) % n;
    while (base - n >= -box.halo) base -= n;
    while (base < -box.halo) base += n;
    return base < len + box.halo;
  };
  return has_rep(g.x, box.ox, box.lx, geo.nx()) &&
         has_rep(g.y, box.oy, box.ly, geo.ny()) &&
         has_rep(g.z, box.oz, box.lz, geo.nz());
}

}  // namespace

std::string to_string(GhostStrategy s) {
  switch (s) {
    case GhostStrategy::Traditional: return "Traditional";
    case GhostStrategy::OnDemandTwoSided: return "OnDemand(two-sided)";
    case GhostStrategy::OnDemandOneSided: return "OnDemand(one-sided)";
  }
  return "?";
}

SectorExchangePlan::SectorExchangePlan(const lat::BccGeometry& geo,
                                       const lat::DomainDecomposition& dd,
                                       int rank, int sector, int depth) {
  const lat::LocalBox my_box = dd.local_box(rank);
  std::map<int, std::vector<std::size_t>> recv, send;
  // My reads: ghost cells of my own region, grouped by owner.
  for_each_region_cell(my_box, sector, depth, [&](const lat::LocalCoord& c) {
    const lat::SiteCoord g = global_of(geo, my_box, c);
    const int owner = dd.rank_of_cell(g.x, g.y, g.z);
    if (owner == rank) {
      const lat::LocalCoord oc = owned_local_of(geo, my_box, g);
      self_copy_.emplace_back(my_box.entry_index(oc), my_box.entry_index(c));
    } else {
      recv[owner].push_back(my_box.entry_index(c));
    }
  });
  // My sends: replay each neighbor's region, pick the cells I own.
  for (int q : dd.neighbor_ranks(rank)) {
    const lat::LocalBox q_box = dd.local_box(q);
    for_each_region_cell(q_box, sector, depth, [&](const lat::LocalCoord& c) {
      const lat::SiteCoord g = global_of(geo, q_box, c);
      if (dd.rank_of_cell(g.x, g.y, g.z) != rank) return;
      const lat::LocalCoord mine = owned_local_of(geo, my_box, g);
      send[q].push_back(my_box.entry_index(mine));
    });
  }
  for (auto& [p, cells] : recv) recv_from_.push_back({p, std::move(cells)});
  for (auto& [q, cells] : send) send_to_.push_back({q, std::move(cells)});
}

std::size_t SectorExchangePlan::ghost_sites() const {
  std::size_t n = self_copy_.size();
  for (const auto& p : recv_from_) n += p.cells.size();
  return n;
}

GhostTraffic SectorExchangePlan::get(comm::Comm& comm, KmcModel& model,
                                     int tag_base) const {
  GhostTraffic t;
  comm::NeighborhoodExchange nx(comm);
  // Every ghost cell has exactly one owner, so the per-peer cell lists are
  // disjoint and arrival-order application is deterministic.
  for (const auto& r : recv_from_) nx.expect(r.peer, tag_base);
  std::vector<std::uint8_t> buf;
  for (const auto& s : send_to_) {
    buf.clear();
    buf.reserve(s.cells.size());
    for (std::size_t idx : s.cells) {
      buf.push_back(static_cast<std::uint8_t>(model.state(idx)));
    }
    nx.send(s.peer, tag_base, std::as_bytes(std::span<const std::uint8_t>(buf)));
    t.bytes_sent += buf.size();
    ++t.messages_sent;
  }
  for (const auto& [src, dst] : self_copy_) {
    model.set_state(dst, model.state(src));
  }
  nx.complete([&](std::size_t i, comm::Message&& m) {
    const auto& r = recv_from_[i];
    auto data = comm::unpack<std::uint8_t>(m.payload);
    if (data.size() != r.cells.size()) {
      throw std::runtime_error("SectorExchangePlan::get: size mismatch");
    }
    for (std::size_t j = 0; j < data.size(); ++j) {
      model.set_state(r.cells[j], static_cast<SiteState>(data[j]));
    }
  });
  return t;
}

std::vector<std::vector<std::uint8_t>> SectorExchangePlan::snapshot(
    const KmcModel& model) const {
  std::vector<std::vector<std::uint8_t>> snap;
  snap.reserve(send_to_.size());
  for (const auto& s : send_to_) {
    std::vector<std::uint8_t> vals;
    vals.reserve(s.cells.size());
    for (std::size_t idx : s.cells) {
      vals.push_back(static_cast<std::uint8_t>(model.state(idx)));
    }
    snap.push_back(std::move(vals));
  }
  return snap;
}

GhostTraffic SectorExchangePlan::put(
    comm::Comm& comm, KmcModel& model, int tag_base,
    const std::vector<std::vector<std::uint8_t>>& sent_snapshot) const {
  GhostTraffic t;
  comm::NeighborhoodExchange nx(comm);
  for (const auto& s : send_to_) nx.expect(s.peer, tag_base);
  std::vector<std::uint8_t> buf;
  // Reverse direction: my ghost images travel back to their owners —
  // whether updated or not; that is exactly the redundancy the paper's
  // on-demand strategy removes.
  for (const auto& r : recv_from_) {
    buf.clear();
    buf.reserve(r.cells.size());
    for (std::size_t idx : r.cells) {
      buf.push_back(static_cast<std::uint8_t>(model.state(idx)));
    }
    nx.send(r.peer, tag_base, std::as_bytes(std::span<const std::uint8_t>(buf)));
    t.bytes_sent += buf.size();
    ++t.messages_sent;
  }
  for (const auto& [src, dst] : self_copy_) {
    // Ghost image -> owned representative; set_state_global keeps any other
    // self images coherent.
    model.set_state_global(model.site_rank_of(dst), model.state(dst));
    (void)src;
  }
  nx.complete([&](std::size_t si, comm::Message&& m) {
    const auto& s = send_to_[si];
    auto data = comm::unpack<std::uint8_t>(m.payload);
    if (data.size() != s.cells.size()) {
      throw std::runtime_error("SectorExchangePlan::put: size mismatch");
    }
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto incoming = static_cast<SiteState>(data[i]);
      // Several peers echo the same cell; apply only a genuine change
      // relative to what this owner served at GET time, so a peer that did
      // not touch the cell cannot overwrite one that did. Sector
      // write-disjointness means at most ONE echo per cell passes the
      // filter, so arrival-order application stays deterministic.
      if (static_cast<std::uint8_t>(incoming) == sent_snapshot[si][i]) continue;
      model.set_state_global(model.site_rank_of(s.cells[i]), incoming);
    }
  });
  return t;
}

GhostComm::GhostComm(const lat::BccGeometry& geo,
                     const lat::DomainDecomposition& dd, int rank, int halo,
                     GhostStrategy strategy)
    : geo_(&geo), dd_(&dd), rank_(rank), halo_(halo), strategy_(strategy) {
  const lat::LocalBox my_box = dd.local_box(rank);
  if (strategy == GhostStrategy::Traditional &&
      std::min({my_box.lx, my_box.ly, my_box.lz}) < 5) {
    // With fewer than 5 cells per axis, an owner's sector events can reach
    // the one-cell put-back shell of a neighbor's same-index sector, and the
    // traditional put would overwrite fresh data.
    throw std::invalid_argument(
        "GhostComm(Traditional): subdomains must be at least 5 cells per axis");
  }
  for (int s = 0; s < 8; ++s) {
    sector_get_plans_.push_back(
        std::make_unique<SectorExchangePlan>(geo, dd, rank, s, halo));
    sector_put_plans_.push_back(
        std::make_unique<SectorExchangePlan>(geo, dd, rank, s, /*depth=*/1));
  }
  full_plan_ = std::make_unique<SectorExchangePlan>(geo, dd, rank, -1, halo);
  neighbors_ = dd.neighbor_ranks(rank);
  neighbor_boxes_.reserve(neighbors_.size());
  for (int q : neighbors_) neighbor_boxes_.push_back(dd.local_box(q));
}

void GhostComm::initialize(comm::Comm& comm, KmcModel& model) {
  traffic_ += full_plan_->get(comm, model, comm::tags::sector(kTagGet, 8));
  if (strategy_ == GhostStrategy::OnDemandOneSided) {
    window_.emplace(comm);
  }
  comm.barrier();
}

void GhostComm::before_sector(comm::Comm& comm, KmcModel& model, int sector) {
  if (strategy_ == GhostStrategy::Traditional) {
    traffic_ += sector_get_plans_[static_cast<std::size_t>(sector)]->get(
        comm, model, comm::tags::sector(kTagGet, sector));
    // Owner-side record of what peers now hold, for stale-echo filtering at
    // the put-back.
    put_snapshot_ =
        sector_put_plans_[static_cast<std::size_t>(sector)]->snapshot(model);
  }
}

void GhostComm::after_sector(comm::Comm& comm, KmcModel& model, int sector,
                             std::span<const SiteUpdate> updates) {
  switch (strategy_) {
    case GhostStrategy::Traditional:
      traffic_ += sector_put_plans_[static_cast<std::size_t>(sector)]->put(
          comm, model, comm::tags::sector(kTagPut, sector), put_snapshot_);
      break;
    case GhostStrategy::OnDemandTwoSided:
      push_updates_two_sided(comm, model, sector, updates);
      break;
    case GhostStrategy::OnDemandOneSided:
      push_updates_one_sided(comm, model, updates);
      break;
  }
}

bool GhostComm::peer_has_image(std::size_t peer_pos, std::int64_t gid) const {
  return box_has_image(*geo_, neighbor_boxes_[peer_pos], geo_->site_coord(gid));
}

void GhostComm::push_updates_two_sided(comm::Comm& comm, KmcModel& model,
                                       int sector,
                                       std::span<const SiteUpdate> updates) {
  const int tag = comm::tags::sector(kTagOnDemand, sector);
  comm::NeighborhoodExchange nx(comm);
  // The neighbor SET is static even though the payloads are dynamic, so the
  // receives can be posted up front; the paper's runtime-discovery cost
  // survives as the variable message size. Each site is modified by exactly
  // one rank per sector, so updates from different neighbors touch disjoint
  // gids and arrival-order application is deterministic.
  for (int q : neighbors_) nx.expect(q, tag);
  std::vector<SiteUpdate> out;
  for (std::size_t qi = 0; qi < neighbors_.size(); ++qi) {
    out.clear();
    for (const SiteUpdate& u : updates) {
      if (peer_has_image(qi, u.gid)) out.push_back(u);
    }
    // The paper's point about two-sided on-demand: the message must be sent
    // even when empty, or the receiver cannot know the epoch is over.
    nx.send(neighbors_[qi], tag, std::as_bytes(std::span<const SiteUpdate>(out)));
    traffic_.bytes_sent += out.size() * sizeof(SiteUpdate);
    ++traffic_.messages_sent;
  }
  nx.complete([&](std::size_t, comm::Message&& m) {
    for (const SiteUpdate& u : comm::unpack<SiteUpdate>(m.payload)) {
      model.set_state_global(u.gid, static_cast<SiteState>(u.state));
    }
  });
}

void GhostComm::push_updates_one_sided(comm::Comm& comm, KmcModel& model,
                                       std::span<const SiteUpdate> updates) {
  std::vector<SiteUpdate> out;
  for (std::size_t qi = 0; qi < neighbors_.size(); ++qi) {
    out.clear();
    for (const SiteUpdate& u : updates) {
      if (peer_has_image(qi, u.gid)) out.push_back(u);
    }
    if (!out.empty()) {
      window_->put(comm, neighbors_[qi], std::span<const SiteUpdate>(out));
      traffic_.bytes_sent += out.size() * sizeof(SiteUpdate);
      ++traffic_.messages_sent;
    }
  }
  // One fence completes the epoch (paper §2.2.1). The next sector's puts go
  // to the other window, so a rank may start it while peers still drain.
  window_->fence(comm);
  for (const SiteUpdate& u : window_->drain<SiteUpdate>(comm)) {
    model.set_state_global(u.gid, static_cast<SiteState>(u.state));
  }
}

}  // namespace mmd::kmc
