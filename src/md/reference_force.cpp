#include "md/reference_force.h"

#include <algorithm>
#include <cmath>

namespace mmd::md {

namespace {

int sp(lat::Species s) { return static_cast<int>(s); }

/// F'(rho) of a lattice entry or run-away atom.
template <typename Particle>
double fprime_of(const pot::EamTableSet& tables, const Particle& p) {
  return tables.embed_of(sp(p.type)).derivative(p.rho);
}

}  // namespace

void ReferenceForce::compute_rho(lat::LatticeNeighborList& lnl) const {
  const double cut2 = tables_->cutoff * tables_->cutoff;
  const double r_min = tables_->r_min;
  auto accumulate = [&](const util::Vec3& r0, int t0, auto&& visit) {
    double rho = 0.0;
    visit([&](const lat::ParticleView& p) {
      const double r2 = (p.r - r0).norm2();
      if (r2 > cut2) return;
      const double r = std::max(std::sqrt(r2), r_min);
      rho += tables_->f(t0, sp(p.type)).value(r);
    });
    return rho;
  };
  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    e.rho = accumulate(e.r, sp(e.type), [&](auto&& f) {
      lnl.for_each_neighbor_of_entry(idx, f);
    });
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    a.rho = accumulate(a.r, sp(a.type), [&](auto&& f) {
      lnl.for_each_neighbor_of_runaway(ri, host, f);
    });
  });
}

void ReferenceForce::refresh_fprime_owned(const lat::LatticeNeighborList& lnl) {
  fprime_.resize(lnl.particle_slots());
  for (std::size_t idx : lnl.owned_indices()) {
    const lat::AtomEntry& e = lnl.entry(idx);
    if (e.is_atom()) fprime_[idx] = fprime_of(*tables_, e);
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
    fprime_[lnl.runaway_slot(ri)] = fprime_of(*tables_, lnl.runaway(ri));
  });
}

void ReferenceForce::refresh_fprime_ghosts(const lat::LatticeNeighborList& lnl) {
  fprime_.resize(lnl.particle_slots());
  for (std::size_t idx = 0; idx < lnl.size(); ++idx) {
    if (lnl.is_owned(idx)) continue;
    const lat::AtomEntry& e = lnl.entry(idx);
    if (e.is_atom()) fprime_[idx] = fprime_of(*tables_, e);
    for (std::int32_t ri = e.runaway_head; ri != lat::AtomEntry::kNoRunaway;
         ri = lnl.runaway(ri).next) {
      fprime_[lnl.runaway_slot(ri)] = fprime_of(*tables_, lnl.runaway(ri));
    }
  }
}

namespace {

/// The pass-2 per-particle kernel, shared by the entry and run-away drivers.
/// `fprime` is the F'(rho) plane; `fp0` is the central particle's entry.
template <typename Visit>
util::Vec3 eam_force_on(const pot::EamTableSet& tables, const double* fprime,
                        const util::Vec3& r0, int t0, double fp0, Visit&& visit) {
  const double cut2 = tables.cutoff * tables.cutoff;
  const double r_min = tables.r_min;
  util::Vec3 force;
  visit([&](const lat::ParticleView& p) {
    const util::Vec3 d = p.r - r0;
    const double r2 = d.norm2();
    if (r2 > cut2 || r2 == 0.0) return;
    const double r = std::max(std::sqrt(r2), r_min);
    double dphi, df;
    tables.pair(t0, sp(p.type)).derivatives(r, &dphi, &df);
    const double scale = (dphi + (fp0 + fprime[p.slot]) * df) / r;
    force += d * scale;
  });
  return force;
}

}  // namespace

void ReferenceForce::entry_forces(lat::LatticeNeighborList& lnl,
                                  std::span<const std::size_t> indices) const {
  for (std::size_t idx : indices) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    e.f = eam_force_on(*tables_, fprime_.data(), e.r, sp(e.type), fprime_[idx],
                       [&](auto&& f) { lnl.for_each_neighbor_of_entry(idx, f); });
  }
}

void ReferenceForce::runaway_forces(lat::LatticeNeighborList& lnl) const {
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    a.f = eam_force_on(*tables_, fprime_.data(), a.r, sp(a.type),
                       fprime_[lnl.runaway_slot(ri)], [&](auto&& f) {
                         lnl.for_each_neighbor_of_runaway(ri, host, f);
                       });
  });
}

void ReferenceForce::compute_forces(lat::LatticeNeighborList& lnl) {
  refresh_fprime_owned(lnl);
  refresh_fprime_ghosts(lnl);
  entry_forces(lnl, lnl.owned_indices());
  runaway_forces(lnl);
}

void ReferenceForce::compute_forces_interior(lat::LatticeNeighborList& lnl) {
  refresh_fprime_owned(lnl);
  entry_forces(lnl, lnl.owned_interior_indices());
}

void ReferenceForce::compute_forces_boundary(lat::LatticeNeighborList& lnl) {
  refresh_fprime_ghosts(lnl);
  entry_forces(lnl, lnl.owned_boundary_indices());
  runaway_forces(lnl);
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
