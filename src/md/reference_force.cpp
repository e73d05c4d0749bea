#include "md/reference_force.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "telemetry/session.h"

namespace mmd::md {

namespace {

int sp(lat::Species s) { return static_cast<int>(s); }

/// F'(rho) of a lattice entry or run-away atom.
template <typename Particle>
double fprime_of(const pot::EamTableSet& tables, const Particle& p) {
  return tables.embed_of(sp(p.type)).derivative(p.rho);
}

detail::EamTableView view_of(const pot::CompactTable& t) {
  return {t.samples(), t.node_derivatives(), t.x_min(),
          t.dx(),      t.xmin_over_dx(),     t.segments() - 1};
}

}  // namespace

ReferenceForce::ReferenceForce(const pot::EamTableSet& tables)
    : tables_(&tables), simd_(simd_supported()) {
  views_.reserve(tables.pairs.size());
  for (const auto& p : tables.pairs) {
    views_.push_back({view_of(p.phi), view_of(p.f)});
  }
}

bool ReferenceForce::simd_supported() { return detail::eam_avx2_available(); }

void ReferenceForce::rho_terms(EamPairRecords& rec) const {
  const double r_min = tables_->r_min;
  const std::span<const double> r2 = rec.r2();
  const std::span<const std::int32_t> pair = rec.pair();
  const std::span<double> term = rec.term();
  const std::size_t n = rec.size();
  std::size_t k = 0;
  if (simd_) {
    k = n - n % 4;
    detail::eam_rho_terms_avx2(views_.data(), pair.data(), r2.data(), k, r_min,
                               term.data());
  }
  for (; k < n; ++k) {
    const double r = std::max(std::sqrt(r2[k]), r_min);
    term[k] = tables_->pairs[static_cast<std::size_t>(pair[k])].f.value(r);
  }
}

void ReferenceForce::force_terms(EamPairRecords& rec, double fp0) const {
  const double r_min = tables_->r_min;
  const std::span<const double> r2 = rec.r2();
  const std::span<const std::int32_t> pair = rec.pair();
  const std::span<const double> fprime = rec.fprime();
  const std::span<double> term = rec.term();
  const std::size_t n = rec.size();
  std::size_t k = 0;
  if (simd_) {
    k = n - n % 4;
    detail::eam_force_terms_avx2(views_.data(), pair.data(), r2.data(),
                                 fprime.data(), fp0, k, r_min, term.data());
  }
  for (; k < n; ++k) {
    const double r = std::max(std::sqrt(r2[k]), r_min);
    double dphi, df;
    tables_->pairs[static_cast<std::size_t>(pair[k])].derivatives(r, &dphi, &df);
    term[k] = (dphi + (fp0 + fprime[k]) * df) / r;
  }
}

template <typename Visit>
double ReferenceForce::rho_of(const util::Vec3& r0, int t0, Visit&& visit) {
  const double cut2 = tables_->cutoff * tables_->cutoff;
  rec_.clear();
  visit([&](const lat::ParticleView& p) {
    const double r2 = (p.r - r0).norm2();
    if (r2 > cut2) return;
    rec_.add(r2, static_cast<std::int32_t>(tables_->pair_index(t0, sp(p.type))));
  });
  rho_terms(rec_);
  double rho = 0.0;
  for (const double v : rec_.term()) rho += v;
  return rho;
}

template <typename Visit>
util::Vec3 ReferenceForce::force_on(const util::Vec3& r0, int t0, double fp0,
                                    Visit&& visit) {
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double* fprime = planes_.fprime();
  rec_.clear();
  visit([&](const lat::ParticleView& p) {
    const util::Vec3 d = p.r - r0;
    const double r2 = d.norm2();
    if (r2 > cut2 || r2 == 0.0) return;
    rec_.add(r2, static_cast<std::int32_t>(tables_->pair_index(t0, sp(p.type))),
             d, fprime[p.slot]);
  });
  force_terms(rec_, fp0);
  const std::span<const util::Vec3> d = rec_.d();
  const std::span<const double> term = std::as_const(rec_).term();
  util::Vec3 force;
  for (std::size_t k = 0; k < d.size(); ++k) force += d[k] * term[k];
  return force;
}

void ReferenceForce::pack_planes(const lat::LatticeNeighborList& lnl) {
  const lat::LocalBox& box = lnl.box();
  planes_.reset(box, lnl.runaway_slots());
  if (box != box_) {
    box_ = box;
    const auto cells = static_cast<std::int64_t>(box.num_cells());
    for (int sub = 0; sub < 2; ++sub) {
      lane_deltas_[sub].clear();
      for (const lat::SiteOffset& o : lnl.offsets(sub)) {
        lane_deltas_[sub].push_back(box.flat_delta(o.dx, o.dy, o.dz, 0) / 2 +
                                    (o.to_sub - sub) * cells);
      }
    }
    shell_.clear();
    lat::boundary_shell(box, box.halo, shell_);
  }
  planes_.pack_positions(lnl);
  // Lanes walk the stencil's lattice sites only. A chain on an entry is
  // visited right after it, so every owned entry whose stencil (or itself)
  // holds a chain host takes the records path; the stencil is symmetric, so
  // those are the hosts' own stencil sites. Ghost hosts count too: their
  // stencils reach owned cells near the faces.
  chained_.assign(lnl.size(), 0);
  for (std::size_t h = 0; h < lnl.size(); ++h) {
    if (lnl.entry(h).runaway_head == lat::AtomEntry::kNoRunaway) continue;
    const lat::LocalCoord c = box.coord_of(h);
    if (box.owns(c)) chained_[h] = 1;
    for (const lat::SiteOffset& o : lnl.offsets(c.sub)) {
      const lat::LocalCoord n{c.x + o.dx, c.y + o.dy, c.z + o.dz, o.to_sub};
      if (box.owns(n)) chained_[box.entry_index(n)] = 1;
    }
  }
}

template <typename Group>
void ReferenceForce::for_each_lane_group(const lat::LatticeNeighborList& lnl,
                                         const lat::CellRegion& region,
                                         Group&& group) const {
  const lat::LocalBox& box = lnl.box();
  for (int z = region.z0; z < region.z1; ++z) {
    for (int y = region.y0; y < region.y1; ++y) {
      for (int sub = 0; sub < 2; ++sub) {
        for (int x0 = region.x0; x0 < region.x1; x0 += 4) {
          const std::size_t first = box.entry_index({x0, y, z, sub});
          const int width = std::min(4, region.x1 - x0);
          unsigned lanes = 0;
          for (int l = 0; l < width; ++l) {
            const std::size_t idx = first + 2 * static_cast<std::size_t>(l);
            if (lnl.entry(idx).is_atom() && in_lanes(idx)) lanes |= 1u << l;
          }
          if (lanes != 0) group(sub, first, lanes);
        }
      }
    }
  }
}

detail::EamLaneArgs ReferenceForce::lane_args(int sub) const {
  detail::EamLaneArgs a;
  a.x = planes_.x();
  a.y = planes_.y();
  a.z = planes_.z();
  a.id = planes_.id();
  a.fprime = planes_.fprime();
  a.deltas = lane_deltas_[sub].data();
  a.num_deltas = lane_deltas_[sub].size();
  a.pair = &views_[0];
  a.cut2 = tables_->cutoff * tables_->cutoff;
  a.r_min = tables_->r_min;
  return a;
}

std::uint64_t ReferenceForce::lane_rho(lat::LatticeNeighborList& lnl) {
  const detail::EamLaneArgs args[2] = {lane_args(0), lane_args(1)};
  std::uint64_t atoms = 0;
  for_each_lane_group(
      lnl, lat::CellRegion::full(lnl.box()),
      [&](int sub, std::size_t first, unsigned lanes) {
        double rho[4];
        detail::eam_lane_rho_avx2(args[sub], planes_.slot(first), rho);
        for (int l = 0; l < 4; ++l) {
          if ((lanes >> l & 1u) == 0) continue;
          lnl.entry(first + 2 * static_cast<std::size_t>(l)).rho = rho[l];
          ++atoms;
        }
      });
  return atoms;
}

void ReferenceForce::lane_forces(lat::LatticeNeighborList& lnl,
                                 const lat::CellRegion& region) {
  const detail::EamLaneArgs args[2] = {lane_args(0), lane_args(1)};
  for_each_lane_group(lnl, region, [&](int sub, std::size_t first, unsigned lanes) {
    double fx[4], fy[4], fz[4];
    detail::eam_lane_force_avx2(args[sub], planes_.slot(first), fx, fy, fz);
    for (int l = 0; l < 4; ++l) {
      if ((lanes >> l & 1u) == 0) continue;
      lnl.entry(first + 2 * static_cast<std::size_t>(l)).f = {fx[l], fy[l], fz[l]};
    }
  });
}

void ReferenceForce::compute_rho(lat::LatticeNeighborList& lnl) {
  const bool lanes = simd_ && tables_->num_species == 1;
  if (lanes) pack_planes(lnl);
  packed_for_ = lanes ? &lnl : nullptr;
  const std::uint64_t lane_atoms = lanes ? lane_rho(lnl) : 0;
  std::uint64_t record_atoms = 0;
  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom() || (lanes && in_lanes(idx))) continue;
    e.rho = rho_of(e.r, sp(e.type), [&](auto&& f) {
      lnl.for_each_neighbor_of_entry(idx, f);
    });
    ++record_atoms;
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    a.rho = rho_of(a.r, sp(a.type), [&](auto&& f) {
      lnl.for_each_neighbor_of_runaway(ri, host, f);
    });
    ++record_atoms;
  });
  telemetry::count("md.force.lane_atoms", lane_atoms);
  telemetry::count("md.force.record_atoms", record_atoms);
}

void ReferenceForce::refresh_fprime_owned(const lat::LatticeNeighborList& lnl) {
  planes_.reset(lnl.box(), lnl.runaway_slots());
  double* fprime = planes_.fprime();
  for (std::size_t idx : lnl.owned_indices()) {
    const lat::AtomEntry& e = lnl.entry(idx);
    if (e.is_atom()) fprime[planes_.slot(idx)] = fprime_of(*tables_, e);
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
    fprime[lnl.runaway_slot(ri)] = fprime_of(*tables_, lnl.runaway(ri));
  });
}

void ReferenceForce::refresh_fprime_ghosts(const lat::LatticeNeighborList& lnl) {
  double* fprime = planes_.fprime();
  for (std::size_t idx : lnl.ghost_indices()) {
    const lat::AtomEntry& e = lnl.entry(idx);
    if (e.is_atom()) fprime[planes_.slot(idx)] = fprime_of(*tables_, e);
    for (std::int32_t ri = e.runaway_head; ri != lat::AtomEntry::kNoRunaway;
         ri = lnl.runaway(ri).next) {
      fprime[lnl.runaway_slot(ri)] = fprime_of(*tables_, lnl.runaway(ri));
    }
  }
}

void ReferenceForce::entry_forces(lat::LatticeNeighborList& lnl,
                                  std::span<const lat::CellRegion> regions,
                                  std::span<const std::size_t> indices) {
  const bool lanes = force_lanes(lnl);
  if (lanes) {
    for (const lat::CellRegion& region : regions) lane_forces(lnl, region);
  }
  const double* fprime = planes_.fprime();
  for (std::size_t idx : indices) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom() || (lanes && in_lanes(idx))) continue;
    e.f = force_on(e.r, sp(e.type), fprime[planes_.slot(idx)],
                   [&](auto&& f) { lnl.for_each_neighbor_of_entry(idx, f); });
  }
}

void ReferenceForce::runaway_forces(lat::LatticeNeighborList& lnl) {
  const double* fprime = planes_.fprime();
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    a.f = force_on(a.r, sp(a.type), fprime[lnl.runaway_slot(ri)],
                   [&](auto&& f) { lnl.for_each_neighbor_of_runaway(ri, host, f); });
  });
}

void ReferenceForce::compute_forces(lat::LatticeNeighborList& lnl) {
  refresh_fprime_owned(lnl);
  refresh_fprime_ghosts(lnl);
  const lat::CellRegion all = lat::CellRegion::full(lnl.box());
  entry_forces(lnl, {&all, 1}, lnl.owned_indices());
  runaway_forces(lnl);
  packed_for_ = nullptr;
}

void ReferenceForce::compute_forces_interior(lat::LatticeNeighborList& lnl) {
  refresh_fprime_owned(lnl);
  const lat::CellRegion interior = lat::interior_region(lnl.box(), lnl.box().halo);
  entry_forces(lnl, {&interior, 1}, lnl.owned_interior_indices());
}

void ReferenceForce::compute_forces_boundary(lat::LatticeNeighborList& lnl) {
  refresh_fprime_ghosts(lnl);
  entry_forces(lnl, shell_, lnl.owned_boundary_indices());
  runaway_forces(lnl);
  packed_for_ = nullptr;
}

double ReferenceForce::potential_energy(const lat::LatticeNeighborList& lnl) const {
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double r_min = tables_->r_min;
  auto energy_of = [&](const util::Vec3& r0, int t0, double rho0, auto&& visit) {
    double e = tables_->embed_of(t0).value(rho0);
    visit([&](const lat::ParticleView& p) {
      const double r2 = (p.r - r0).norm2();
      if (r2 > cut2 || r2 == 0.0) return;
      const double r = std::max(std::sqrt(r2), r_min);
      e += 0.5 * tables_->phi(t0, sp(p.type)).value(r);
    });
    return e;
  };
  double total = 0.0;
  for (std::size_t idx : lnl.owned_indices()) {
    const lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    total += energy_of(e.r, sp(e.type), e.rho, [&](auto&& f) {
      lnl.for_each_neighbor_of_entry(idx, f);
    });
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    const lat::RunawayAtom& a = lnl.runaway(ri);
    total += energy_of(a.r, sp(a.type), a.rho, [&](auto&& f) {
      lnl.for_each_neighbor_of_runaway(ri, host, f);
    });
  });
  return total;
}

}  // namespace mmd::md
