#include "md/reference_force.h"

#include <algorithm>
#include <cmath>
#include <utility>

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
  rec_.clear();
  visit([&](const lat::ParticleView& p) {
    const util::Vec3 d = p.r - r0;
    const double r2 = d.norm2();
    if (r2 > cut2 || r2 == 0.0) return;
    rec_.add(r2, static_cast<std::int32_t>(tables_->pair_index(t0, sp(p.type))),
             d, fprime_[p.slot]);
  });
  force_terms(rec_, fp0);
  const std::span<const util::Vec3> d = rec_.d();
  const std::span<const double> term = std::as_const(rec_).term();
  util::Vec3 force;
  for (std::size_t k = 0; k < d.size(); ++k) force += d[k] * term[k];
  return force;
}

void ReferenceForce::compute_rho(lat::LatticeNeighborList& lnl) {
  for (std::size_t idx : lnl.owned_indices()) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    e.rho = rho_of(e.r, sp(e.type), [&](auto&& f) {
      lnl.for_each_neighbor_of_entry(idx, f);
    });
  }
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    a.rho = rho_of(a.r, sp(a.type), [&](auto&& f) {
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
  for (std::size_t idx : lnl.ghost_indices()) {
    const lat::AtomEntry& e = lnl.entry(idx);
    if (e.is_atom()) fprime_[idx] = fprime_of(*tables_, e);
    for (std::int32_t ri = e.runaway_head; ri != lat::AtomEntry::kNoRunaway;
         ri = lnl.runaway(ri).next) {
      fprime_[lnl.runaway_slot(ri)] = fprime_of(*tables_, lnl.runaway(ri));
    }
  }
}

void ReferenceForce::entry_forces(lat::LatticeNeighborList& lnl,
                                  std::span<const std::size_t> indices) {
  for (std::size_t idx : indices) {
    lat::AtomEntry& e = lnl.entry(idx);
    if (!e.is_atom()) continue;
    e.f = force_on(e.r, sp(e.type), fprime_[idx],
                   [&](auto&& f) { lnl.for_each_neighbor_of_entry(idx, f); });
  }
}

void ReferenceForce::runaway_forces(lat::LatticeNeighborList& lnl) {
  lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
    lat::RunawayAtom& a = lnl.runaway(ri);
    a.f = force_on(a.r, sp(a.type), fprime_[lnl.runaway_slot(ri)],
                   [&](auto&& f) { lnl.for_each_neighbor_of_runaway(ri, host, f); });
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
