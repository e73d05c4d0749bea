#include "lattice/lattice_neighbor_list.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace mmd::lat {

LatticeNeighborList::LatticeNeighborList(const BccGeometry& geo,
                                         const LocalBox& box, double cutoff)
    : geo_(&geo), box_(box), cutoff_(cutoff) {
  const int halo_needed = required_halo_cells(geo.lattice_constant(), cutoff);
  if (box.halo < halo_needed) {
    throw std::invalid_argument(
        "LatticeNeighborList: halo too small for the cutoff radius");
  }
  for (int sub = 0; sub <= 1; ++sub) {
    offsets_[sub] = bcc_neighbor_offsets(geo.lattice_constant(), cutoff, sub);
    deltas_[sub].reserve(offsets_[sub].size());
    for (const auto& o : offsets_[sub]) {
      deltas_[sub].push_back(box.flat_delta(o.dx, o.dy, o.dz, o.to_sub - sub));
    }
  }
  entries_.resize(box.num_entries());
  owned_.reserve(box.num_owned_sites());
  ghosts_.reserve(entries_.size() - box.num_owned_sites());
  const CellRegion interior = interior_region(box_, box_.halo);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const LocalCoord c = box_.coord_of(i);
    if (!box_.owns(c)) {
      ghosts_.push_back(i);
      continue;
    }
    owned_.push_back(i);
    (interior.contains(c) ? interior_ : boundary_).push_back(i);
  }
}

std::int64_t LatticeNeighborList::site_rank(std::size_t idx) const {
  const LocalCoord c = box_.coord_of(idx);
  const SiteCoord g =
      geo_->wrap({c.x + box_.ox, c.y + box_.oy, c.z + box_.oz, c.sub});
  return geo_->site_id(g);
}

util::Vec3 LatticeNeighborList::ideal_position(std::size_t idx) const {
  const LocalCoord c = box_.coord_of(idx);
  const double a = geo_->lattice_constant();
  const double half = 0.5 * c.sub;
  return {(c.x + box_.ox + half) * a, (c.y + box_.oy + half) * a,
          (c.z + box_.oz + half) * a};
}

std::size_t LatticeNeighborList::nearest_entry(const util::Vec3& r) const {
  const double a = geo_->lattice_constant();
  const double sx = r.x / a - box_.ox;
  const double sy = r.y / a - box_.oy;
  const double sz = r.z / a - box_.oz;
  // Candidate on each sublattice in local cell coordinates.
  LocalCoord corner{static_cast<int>(std::lround(sx)),
                    static_cast<int>(std::lround(sy)),
                    static_cast<int>(std::lround(sz)), 0};
  LocalCoord center{static_cast<int>(std::lround(sx - 0.5)),
                    static_cast<int>(std::lround(sy - 0.5)),
                    static_cast<int>(std::lround(sz - 0.5)), 1};
  auto dist2 = [&](const LocalCoord& c) {
    const double half = 0.5 * c.sub;
    const util::Vec3 p{(c.x + box_.ox + half) * a, (c.y + box_.oy + half) * a,
                       (c.z + box_.oz + half) * a};
    return (p - r).norm2();
  };
  const LocalCoord best = dist2(corner) <= dist2(center) ? corner : center;
  if (!box_.in_storage(best)) return std::numeric_limits<std::size_t>::max();
  return box_.entry_index(best);
}

std::size_t LatticeNeighborList::nearest_owned_entry(const util::Vec3& r) const {
  const double a = geo_->lattice_constant();
  const double sx = r.x / a - box_.ox;
  const double sy = r.y / a - box_.oy;
  const double sz = r.z / a - box_.oz;
  auto clamp_owned = [](int v, int len) { return std::clamp(v, 0, len - 1); };
  LocalCoord corner{clamp_owned(static_cast<int>(std::lround(sx)), box_.lx),
                    clamp_owned(static_cast<int>(std::lround(sy)), box_.ly),
                    clamp_owned(static_cast<int>(std::lround(sz)), box_.lz), 0};
  LocalCoord center{clamp_owned(static_cast<int>(std::lround(sx - 0.5)), box_.lx),
                    clamp_owned(static_cast<int>(std::lround(sy - 0.5)), box_.ly),
                    clamp_owned(static_cast<int>(std::lround(sz - 0.5)), box_.lz), 1};
  auto dist2 = [&](const LocalCoord& c) {
    const double half = 0.5 * c.sub;
    const util::Vec3 p{(c.x + box_.ox + half) * a, (c.y + box_.oy + half) * a,
                       (c.z + box_.oz + half) * a};
    return (p - r).norm2();
  };
  return box_.entry_index(dist2(corner) <= dist2(center) ? corner : center);
}

void LatticeNeighborList::fill_perfect(Species s) {
  runaways_.clear();
  free_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    AtomEntry& e = entries_[i];
    e = AtomEntry{};
    e.id = site_rank(i);
    e.type = s;
    e.r = ideal_position(i);
  }
}

void LatticeNeighborList::clear_ghosts() {
  release_ghost_chains();
  for (std::size_t i : ghosts_) entries_[i] = AtomEntry{};
}

void LatticeNeighborList::release_ghost_chains() {
  for (std::size_t i : ghosts_) {
    std::int32_t& head = entries_[i].runaway_head;
    for (std::int32_t ri = head; ri != AtomEntry::kNoRunaway;) {
      const std::int32_t next = runaways_[static_cast<std::size_t>(ri)].next;
      free_.push_back(ri);
      ri = next;
    }
    head = AtomEntry::kNoRunaway;
  }
}

std::int32_t LatticeNeighborList::add_runaway(const RunawayAtom& a,
                                              std::size_t host_idx) {
  std::int32_t ri;
  if (!free_.empty()) {
    ri = free_.back();
    free_.pop_back();
    runaways_[static_cast<std::size_t>(ri)] = a;
  } else {
    ri = static_cast<std::int32_t>(runaways_.size());
    runaways_.push_back(a);
  }
  runaways_[static_cast<std::size_t>(ri)].next = entries_[host_idx].runaway_head;
  entries_[host_idx].runaway_head = ri;
  return ri;
}

void LatticeNeighborList::remove_runaway(std::int32_t ri, std::size_t host_idx) {
  std::int32_t* link = &entries_[host_idx].runaway_head;
  while (*link != AtomEntry::kNoRunaway) {
    if (*link == ri) {
      *link = runaways_[static_cast<std::size_t>(ri)].next;
      free_.push_back(ri);
      return;
    }
    link = &runaways_[static_cast<std::size_t>(*link)].next;
  }
  throw std::logic_error("remove_runaway: node not found in host chain");
}

std::int32_t LatticeNeighborList::detach(std::size_t idx,
                                         std::vector<RunawayAtom>* emigrants) {
  AtomEntry& e = entries_[idx];
  if (!e.is_atom()) {
    throw std::logic_error("detach: entry does not hold an atom");
  }
  RunawayAtom a;
  a.r = e.r;
  a.v = e.v;
  a.f = e.f;
  a.rho = e.rho;
  a.id = e.id;
  a.type = e.type;
  // The vacated entry becomes the vacancy record: negative id, position reset
  // to the lattice point (the "coordinates of the vacancy", paper Fig. 3).
  e.id = AtomEntry::vacancy_id(site_rank(idx));
  e.r = ideal_position(idx);
  e.v = {};
  e.f = {};
  e.rho = 0.0;
  const std::size_t host = nearest_entry(a.r);
  if (host == std::numeric_limits<std::size_t>::max() ||
      !box_.owns(box_.coord_of(host))) {
    if (emigrants != nullptr) {
      emigrants->push_back(a);
      return AtomEntry::kNoRunaway;
    }
    return add_runaway(a, nearest_owned_entry(a.r));
  }
  return add_runaway(a, host);
}

int LatticeNeighborList::rehome_runaways(std::vector<RunawayAtom>* emigrants) {
  int reoccupied = 0;
  const double thr2 = reattach_threshold_ * reattach_threshold_;
  for (std::size_t idx : owned_) {
    std::int32_t* link = &entries_[idx].runaway_head;
    while (*link != AtomEntry::kNoRunaway) {
      const std::int32_t ri = *link;
      RunawayAtom& a = runaways_[static_cast<std::size_t>(ri)];
      const std::size_t host = nearest_entry(a.r);
      if (host == std::numeric_limits<std::size_t>::max() ||
          !box_.owns(box_.coord_of(host))) {
        // Nearest point left this rank's subdomain: the atom now belongs to
        // a neighbor rank (even if that point is a vacancy — the owner
        // handles the re-occupation).
        *link = a.next;
        if (emigrants) emigrants->push_back(a);
        free_.push_back(ri);
        continue;
      }
      AtomEntry& h = entries_[host];
      // Re-occupation: the vacancy record is overlapped by the atom — but
      // only when the atom has genuinely settled back onto the lattice point
      // (hysteresis below the MD detach threshold).
      const bool occupy = h.is_vacancy() &&
                          (a.r - ideal_position(host)).norm2() <= thr2;
      if (host == idx && !occupy) {
        link = &a.next;
        continue;
      }
      *link = a.next;
      if (occupy) {
        h.id = a.id;
        h.type = a.type;
        h.r = a.r;
        h.v = a.v;
        h.f = a.f;
        h.rho = a.rho;
        free_.push_back(ri);
        ++reoccupied;
      } else {
        a.next = h.runaway_head;
        h.runaway_head = ri;
      }
    }
  }
  return reoccupied;
}

std::size_t LatticeNeighborList::count_owned_atoms() const {
  std::size_t n = 0;
  for (std::size_t idx : owned_) {
    if (entries_[idx].is_atom()) ++n;
  }
  return n + count_owned_runaways();
}

std::size_t LatticeNeighborList::count_owned_runaways() const {
  std::size_t n = 0;
  for_each_owned_runaway([&](std::int32_t, std::size_t) { ++n; });
  return n;
}

std::size_t LatticeNeighborList::count_owned_vacancies() const {
  std::size_t n = 0;
  for (std::size_t idx : owned_) {
    if (entries_[idx].is_vacancy()) ++n;
  }
  return n;
}

std::size_t LatticeNeighborList::memory_bytes() const {
  std::size_t b = entries_.capacity() * sizeof(AtomEntry);
  b += runaways_.capacity() * sizeof(RunawayAtom);
  b += free_.capacity() * sizeof(std::int32_t);
  b += owned_.capacity() * sizeof(std::size_t);
  for (int sub = 0; sub <= 1; ++sub) {
    b += offsets_[sub].capacity() * sizeof(SiteOffset);
    b += deltas_[sub].capacity() * sizeof(std::int64_t);
  }
  return b;
}

}  // namespace mmd::lat
