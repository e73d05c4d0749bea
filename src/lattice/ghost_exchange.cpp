#include "lattice/ghost_exchange.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mmd::lat {

namespace {

using comm::tags::axis_side;

struct Range {
  int lo, hi;
};

// Canonical slab index list: iterate z, y, x ascending, two subs per cell.
std::vector<std::size_t> slab_indices(const LocalBox& b, Range xr, Range yr,
                                      Range zr) {
  std::vector<std::size_t> out;
  out.reserve(2ull * static_cast<std::size_t>(xr.hi - xr.lo) *
              static_cast<std::size_t>(yr.hi - yr.lo) *
              static_cast<std::size_t>(zr.hi - zr.lo));
  for (int z = zr.lo; z < zr.hi; ++z) {
    for (int y = yr.lo; y < yr.hi; ++y) {
      for (int x = xr.lo; x < xr.hi; ++x) {
        for (int sub = 0; sub <= 1; ++sub) {
          out.push_back(b.entry_index({x, y, z, sub}));
        }
      }
    }
  }
  return out;
}

}  // namespace

GhostExchange::GhostExchange(LatticeNeighborList& lnl,
                             const DomainDecomposition& dd, int rank)
    : lnl_(&lnl), rank_(rank) {
  const LocalBox& b = lnl.box();
  const BccGeometry& geo = lnl.geometry();
  const int h = b.halo;
  const auto grid = dd.grid();
  const auto coords = dd.coords_of(rank);
  const util::Vec3 L = geo.box_length();
  const int owned[3] = {b.lx, b.ly, b.lz};

  for (int axis = 0; axis < 3; ++axis) {
    // Extents on the other two axes grow as earlier phases fill the halo.
    auto cross_range = [&](int other_axis) -> Range {
      const int len = owned[other_axis];
      return other_axis < axis ? Range{-h, len + h} : Range{0, len};
    };
    Range xr{0, b.lx}, yr{0, b.ly}, zr{0, b.lz};
    Range* ranges[3] = {&xr, &yr, &zr};
    for (int o = 0; o < 3; ++o) {
      if (o != axis) *ranges[o] = cross_range(o);
    }
    for (int side = 0; side < 2; ++side) {
      Side& s = sides_[axis][side];
      const int dir = side == 0 ? -1 : +1;
      s.peer = dd.neighbor(rank, axis, dir);
      // Send slab: my border of width h on this side. Receive slab: my halo
      // on this side (filled by the peer's border from the opposite side).
      Range send_r = side == 0 ? Range{0, h} : Range{owned[axis] - h, owned[axis]};
      Range recv_r = side == 0 ? Range{-h, 0} : Range{owned[axis], owned[axis] + h};
      *ranges[axis] = send_r;
      s.send_idx = slab_indices(b, xr, yr, zr);
      *ranges[axis] = recv_r;
      s.recv_idx = slab_indices(b, xr, yr, zr);
      // Crossing the periodic boundary shifts positions by the box length.
      s.shift = {};
      const bool crossing = (side == 0 && coords[static_cast<std::size_t>(axis)] == 0) ||
                            (side == 1 && coords[static_cast<std::size_t>(axis)] ==
                                              grid[static_cast<std::size_t>(axis)] - 1);
      if (crossing) {
        const double l = axis == 0 ? L.x : (axis == 1 ? L.y : L.z);
        (axis == 0 ? s.shift.x : axis == 1 ? s.shift.y : s.shift.z) =
            side == 0 ? +l : -l;
      }
    }
  }
}

// Each phase is one nonblocking neighborhood round: both halo receives are
// posted before either aggregated send, and the two sides complete out of
// order. Entries and chains land in disjoint slabs so they unpack on
// arrival; emigrants are staged and merged in fixed side order, so the
// downstream adopt() sequence — and with it the trajectory — is independent
// of which neighbor answered first.
void GhostExchange::exchange(comm::Comm& comm, std::vector<RunawayAtom> emigrants) {
  // The receive slabs tile the halo, so every ghost entry is overwritten
  // below; only its chain must be emptied first.
  lnl_->release_ghost_chains();
  adopted_.clear();
  for (int axis = 0; axis < 3; ++axis) {
    std::array<std::vector<RunawayAtom>, 2> outbound;
    route_emigrants(axis, emigrants, outbound[0], outbound[1]);

    comm::NeighborhoodExchange nx(comm);
    for (int side = 0; side < 2; ++side) {
      // Channel index == side; my `side` halo is filled by that peer's
      // opposite-side send.
      nx.expect(sides_[axis][side].peer,
                axis_side(comm::tags::kGhostHalo, axis, 1 - side));
    }
    for (int side = 0; side < 2; ++side) {
      std::vector<std::byte> payload =
          pack_side(axis, side, std::move(outbound[static_cast<std::size_t>(side)]));
      bytes_sent_ += payload.size();
      nx.send(sides_[axis][side].peer,
              axis_side(comm::tags::kGhostHalo, axis, side), std::move(payload));
    }
    std::array<std::vector<RunawayAtom>, 2> arrived;
    nx.complete([&](std::size_t side, comm::Message&& m) {
      arrived[side] = unpack_side(axis, static_cast<int>(side), m);
    });
    for (const auto& a : arrived) {
      emigrants.insert(emigrants.end(), a.begin(), a.end());
    }
  }
  adopt(emigrants);
}

std::vector<std::byte> GhostExchange::pack_side(
    int axis, int side, std::vector<RunawayAtom> migrants) const {
  const Side& s = sides_[axis][side];
  comm::SectionWriter w;
  // Exact room for the records and emigrants, and an upper bound for the
  // chains (every live pool node), so no section reallocates the payload.
  w.reserve(3 * sizeof(std::uint64_t) + s.send_idx.size() * sizeof(GhostRecord) +
            lnl_->count_live_runaways() * sizeof(PackedRunaway) +
            migrants.size() * sizeof(RunawayAtom));
  std::vector<PackedRunaway> chains;  // staged: the section follows the records
  w.add_each<GhostRecord>(s.send_idx.size(), [&](std::size_t pos) {
    const AtomEntry& e = lnl_->entry(s.send_idx[pos]);
    for (std::int32_t ri = e.runaway_head; ri != AtomEntry::kNoRunaway;
         ri = lnl_->runaway(ri).next) {
      PackedRunaway p{static_cast<std::int32_t>(pos), 0, lnl_->runaway(ri)};
      p.atom.r += s.shift;
      p.atom.next = AtomEntry::kNoRunaway;
      chains.push_back(p);
    }
    return GhostRecord{e.r + s.shift, e.rho, e.id, e.type};
  });
  for (RunawayAtom& a : migrants) a.r += s.shift;
  w.add(std::span<const PackedRunaway>(chains));
  w.add(std::span<const RunawayAtom>(migrants));
  return w.release();
}

std::vector<RunawayAtom> GhostExchange::unpack_side(int axis, int side,
                                                    const comm::Message& m) {
  const Side& s = sides_[axis][side];
  comm::SectionReader r(m.payload);
  const auto ghosts = r.view<GhostRecord>();
  if (ghosts.size() != s.recv_idx.size()) {
    throw std::runtime_error("GhostExchange: slab size mismatch between peers");
  }
  for (std::size_t pos = 0; pos < ghosts.size(); ++pos) {
    const GhostRecord g = ghosts[pos];
    AtomEntry& e = lnl_->entry(s.recv_idx[pos]);
    e.r = g.r;
    e.rho = g.rho;
    e.id = g.id;
    e.type = g.type;
  }
  const auto chains = r.view<PackedRunaway>();
  // add_runaway pushes at the head, so insert each host's nodes in reverse to
  // preserve the sender's chain order (exchange_rho depends on it).
  for (std::size_t k = chains.size(); k-- > 0;) {
    const PackedRunaway p = chains[k];
    lnl_->add_runaway(p.atom, s.recv_idx[static_cast<std::size_t>(p.slab_pos)]);
  }
  std::vector<RunawayAtom> emigrants = r.take<RunawayAtom>();
  if (!r.exhausted()) {
    throw std::runtime_error("GhostExchange: trailing bytes in a halo message");
  }
  return emigrants;
}

void GhostExchange::route_emigrants(int axis, std::vector<RunawayAtom>& pending,
                                    std::vector<RunawayAtom>& low,
                                    std::vector<RunawayAtom>& high) const {
  const LocalBox& b = lnl_->box();
  const double a = lnl_->geometry().lattice_constant();
  const int origin[3] = {b.ox, b.oy, b.oz};
  const int owned[3] = {b.lx, b.ly, b.lz};
  std::vector<RunawayAtom> still;
  for (const RunawayAtom& r : pending) {
    const double coord = axis == 0 ? r.r.x : (axis == 1 ? r.r.y : r.r.z);
    const double cell = coord / a - origin[axis];
    if (cell < 0.0) {
      low.push_back(r);
    } else if (cell >= static_cast<double>(owned[axis])) {
      high.push_back(r);
    } else {
      still.push_back(r);
    }
  }
  pending.swap(still);
}

void GhostExchange::adopt(std::vector<RunawayAtom>& settled) {
  const double thr = lnl_->reattach_threshold();
  for (RunawayAtom& a : settled) {
    // Owned host always: a ghost-hosted chain node would vanish at the next
    // clear_ghosts(). Routing guarantees the position lies in an owned cell.
    const std::size_t host = lnl_->nearest_owned_entry(a.r);
    AtomEntry& h = lnl_->entry(host);
    if (h.is_vacancy() &&
        (a.r - lnl_->ideal_position(host)).norm2() <= thr * thr) {
      h.id = a.id;
      h.type = a.type;
      h.r = a.r;
      h.v = a.v;
      h.f = a.f;
      h.rho = a.rho;
    } else {
      a.next = AtomEntry::kNoRunaway;
      adopted_.push_back(lnl_->add_runaway(a, host));
    }
  }
  settled.clear();
}

bool GhostExchange::has_ghost_images(std::int32_t ri) const {
  return adopted_.empty() ||
         std::find(adopted_.begin(), adopted_.end(), ri) == adopted_.end();
}

// Reverse accumulation ships each side's halo values (recv_idx lists) back
// to the peer, which ADDS them onto its border entries (send_idx lists).
// Axis order is reversed relative to the forward exchange so that corner
// halo contributions hop through the intermediate slabs. Both sides of an
// axis fly concurrently; the additions are applied in fixed side order
// because the two border slabs OVERLAP when the subdomain is thinner than
// two halo widths, and floating-point addition order must not depend on
// message arrival.
template <typename T, typename Get, typename Add>
void GhostExchange::reverse_accumulate_field(comm::Comm& comm, int base_tag,
                                             Get get, Add add) {
  for (int axis = 2; axis >= 0; --axis) {
    comm::NeighborhoodExchange nx(comm);
    for (int side = 0; side < 2; ++side) {
      nx.expect(sides_[axis][side].peer, axis_side(base_tag, axis, 1 - side));
    }
    for (int side = 0; side < 2; ++side) {
      const Side& s = sides_[axis][side];
      std::vector<T> vals;
      vals.reserve(s.recv_idx.size());
      for (std::size_t idx : s.recv_idx) vals.push_back(get(lnl_->entry(idx)));
      bytes_sent_ += vals.size() * sizeof(T);
      nx.send(s.peer, axis_side(base_tag, axis, side),
              std::as_bytes(std::span<const T>(vals)));
    }
    std::array<std::vector<T>, 2> in;
    nx.complete([&](std::size_t side, comm::Message&& m) {
      in[side] = comm::unpack<T>(m.payload);
    });
    for (int side = 0; side < 2; ++side) {
      const Side& s = sides_[axis][side];
      const auto& vals = in[static_cast<std::size_t>(side)];
      if (vals.size() != s.send_idx.size()) {
        throw std::runtime_error("GhostExchange: reverse slab size mismatch");
      }
      for (std::size_t pos = 0; pos < vals.size(); ++pos) {
        add(lnl_->entry(s.send_idx[pos]), vals[pos]);
      }
    }
  }
}

void GhostExchange::reverse_accumulate_rho(comm::Comm& comm) {
  reverse_accumulate_field<double>(
      comm, comm::tags::kGhostReverseRho,
      [](const AtomEntry& e) { return e.rho; },
      [](AtomEntry& e, double v) { e.rho += v; });
}

void GhostExchange::reverse_accumulate_force(comm::Comm& comm) {
  reverse_accumulate_field<util::Vec3>(
      comm, comm::tags::kGhostReverseForce,
      [](const AtomEntry& e) { return e.f; },
      [](AtomEntry& e, const util::Vec3& v) { e.f += v; });
}

void GhostExchange::post_rho_axis(int axis, comm::NeighborhoodExchange& nx) {
  for (int side = 0; side < 2; ++side) {
    nx.expect(sides_[axis][side].peer,
              axis_side(comm::tags::kGhostRho, axis, 1 - side));
  }
  for (int side = 0; side < 2; ++side) {
    const Side& s = sides_[axis][side];
    comm::SectionWriter w;
    w.reserve(2 * sizeof(std::uint64_t) +
              (s.send_idx.size() + lnl_->count_live_runaways()) * sizeof(double));
    std::vector<double> chain_rho;
    w.add_each<double>(s.send_idx.size(), [&](std::size_t pos) {
      const AtomEntry& e = lnl_->entry(s.send_idx[pos]);
      for (std::int32_t ri = e.runaway_head; ri != AtomEntry::kNoRunaway;
           ri = lnl_->runaway(ri).next) {
        if (!has_ghost_images(ri)) continue;
        chain_rho.push_back(lnl_->runaway(ri).rho);
      }
      return e.rho;
    });
    w.add(std::span<const double>(chain_rho));
    bytes_sent_ += w.bytes().size();
    nx.send(s.peer, axis_side(comm::tags::kGhostRho, axis, side), w.release());
  }
}

void GhostExchange::complete_rho_axis(int axis, comm::NeighborhoodExchange& nx) {
  nx.complete([&](std::size_t side, comm::Message&& m) {
    // The two sides' slabs are disjoint: unpack on arrival.
    const Side& s = sides_[axis][side];
    comm::SectionReader r(m.payload);
    const auto rho = r.view<double>();
    const auto chain_rho = r.view<double>();
    if (rho.size() != s.recv_idx.size() || !r.exhausted()) {
      throw std::runtime_error("GhostExchange: rho slab size mismatch");
    }
    // Chain values are matched to nodes by position, so a chain that lost or
    // gained a node since exchange() would shift every later value.
    std::size_t ci = 0;
    for (std::size_t pos = 0; pos < rho.size(); ++pos) {
      AtomEntry& e = lnl_->entry(s.recv_idx[pos]);
      e.rho = rho[pos];
      for (std::int32_t ri = e.runaway_head; ri != AtomEntry::kNoRunaway;
           ri = lnl_->runaway(ri).next) {
        if (ci == chain_rho.size()) {
          throw std::runtime_error(
              "GhostExchange: ghost chains hold more nodes than the sender's");
        }
        lnl_->runaway(ri).rho = chain_rho[ci++];
      }
    }
    if (ci != chain_rho.size()) {
      throw std::runtime_error(
          "GhostExchange: ghost chains hold fewer nodes than the sender's");
    }
  });
}

GhostExchange::RhoFlight GhostExchange::begin_exchange_rho(comm::Comm& comm) {
  RhoFlight flight(comm);
  post_rho_axis(0, flight.nx);
  return flight;
}

void GhostExchange::finish_exchange_rho(comm::Comm&, RhoFlight& flight) {
  complete_rho_axis(0, flight.nx);
  // The y and z phases relay what x deposited in the halo, so they cannot be
  // posted before x completes; each is still a concurrent two-sided round.
  for (int axis = 1; axis < 3; ++axis) {
    post_rho_axis(axis, flight.nx);
    complete_rho_axis(axis, flight.nx);
  }
}

void GhostExchange::exchange_rho(comm::Comm& comm) {
  RhoFlight flight = begin_exchange_rho(comm);
  finish_exchange_rho(comm, flight);
}

}  // namespace mmd::lat
