#include "md/engine.h"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "lattice/neighbor_offsets.h"
#include "md/slave_force.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"

namespace mmd::md {

namespace {

lat::LocalBox make_box(const lat::DomainDecomposition& dd, int rank) {
  return dd.local_box(rank);
}

}  // namespace

MdSetup::MdSetup(const MdConfig& cfg, int nranks)
    : geo(cfg.nx, cfg.ny, cfg.nz, cfg.lattice_constant),
      dd(geo, nranks,
         lat::required_halo_cells(cfg.lattice_constant, cfg.cutoff + kNeighborSkin)) {}

MdEngine::MdEngine(const MdConfig& cfg, const lat::BccGeometry& geo,
                   const lat::DomainDecomposition& dd,
                   const pot::EamTableSet& tables, int rank)
    : cfg_(cfg),
      geo_(&geo),
      rank_(rank),
      lnl_(geo, make_box(dd, rank), cfg.cutoff + kNeighborSkin),
      ghosts_(lnl_, dd, rank),
      tables_(&tables),
      ref_force_(tables) {}

void MdEngine::initialize(comm::Comm& comm) {
  comp_s_ = 0.0;
  comm_s_ = 0.0;
  time_ = 0.0;
  lnl_.fill_perfect(lat::Species::Fe);
  // Maxwell-Boltzmann velocities; each atom draws from a stream derived from
  // its global site id, so any decomposition yields the same initial state.
  const util::Rng base(cfg_.seed);
  for (std::size_t idx : lnl_.owned_indices()) {
    lat::AtomEntry& e = lnl_.entry(idx);
    const double v_scale =
        std::sqrt(util::units::kBoltzmann * cfg_.temperature *
                  util::units::kForceToAccel / cfg_.mass_of(e.type));
    util::Rng rng = base.split(static_cast<std::uint64_t>(e.id));
    e.v = {v_scale * rng.normal(), v_scale * rng.normal(), v_scale * rng.normal()};
  }
  {
    MMD_TRACE_SCOPE_CHARGE("md.ghost.refresh", comm_s_);
    ghosts_.exchange(comm);
  }
  // Observability: how wide the force kernels run (4 = AVX2 doubles, 1 =
  // scalar), on whichever path computes forces: md.simd switches the slave
  // kernel, the CPU alone decides the reference path. Per-sweep table
  // residency can still drop a vectorized slave sweep to scalar; that shows
  // up in sw.table.fallback instead.
  const bool simd = slave_ != nullptr ? slave_->simd() : ref_force_.simd();
  telemetry::set_gauge("md.force.simd_lanes", simd ? 4.0 : 1.0);
  compute_all_forces(comm);
}

void MdEngine::inject_pka(comm::Comm& comm, std::int64_t site_rank,
                          const util::Vec3& direction, double energy_ev) {
  const util::Vec3 dir = direction.normalized();
  for (std::size_t idx : lnl_.owned_indices()) {
    lat::AtomEntry& e = lnl_.entry(idx);
    if (e.is_atom() && e.id == site_rank) {
      const double v_mag = std::sqrt(2.0 * energy_ev *
                                     util::units::kForceToAccel /
                                     cfg_.mass_of(e.type));
      e.v = dir * v_mag;
    }
  }
  // Refresh ghost copies so neighbor ranks see the new velocity immediately.
  MMD_TRACE_SCOPE_CHARGE("md.ghost.refresh", comm_s_);
  ghosts_.exchange(comm);
}

void MdEngine::seed_solutes(comm::Comm& comm, double fraction,
                            lat::Species solute) {
  if (tables_->num_species < 2) {
    throw std::invalid_argument(
        "seed_solutes: the engine was built with single-species tables");
  }
  const util::Rng base(cfg_.seed ^ 0xa110c8edull);
  for (std::size_t idx : lnl_.owned_indices()) {
    lat::AtomEntry& e = lnl_.entry(idx);
    if (!e.is_atom()) continue;
    util::Rng rng = base.split(static_cast<std::uint64_t>(e.id));
    if (rng.uniform() < fraction) e.type = solute;
  }
  {
    MMD_TRACE_SCOPE_CHARGE("md.ghost.refresh", comm_s_);
    ghosts_.exchange(comm);
  }
  compute_all_forces(comm);
}

void MdEngine::step(comm::Comm& comm) {
  MMD_TRACE_SCOPE("md.step");
  // Adaptive step length: cap the fastest atom's displacement (collective so
  // every rank integrates with the same dt).
  double dt = cfg_.dt;
  if (cfg_.max_displacement > 0.0) {
    double v2_max = 0.0;
    {
      MMD_TRACE_SCOPE_CHARGE("md.dt_scan", comp_s_);
      for (std::size_t idx : lnl_.owned_indices()) {
        const lat::AtomEntry& e = lnl_.entry(idx);
        if (e.is_atom()) v2_max = std::max(v2_max, e.v.norm2());
      }
      lnl_.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
        v2_max = std::max(v2_max, lnl_.runaway(ri).v.norm2());
      });
    }
    double v_max = 0.0;
    {
      MMD_TRACE_SCOPE_CHARGE("md.dt_sync", comm_s_);
      v_max = std::sqrt(comm.allreduce_max(v2_max));
    }
    if (v_max * dt > cfg_.max_displacement) dt = cfg_.max_displacement / v_max;
  }
  const double kick0 = 0.5 * dt * util::units::kForceToAccel;
  {
    MMD_TRACE_SCOPE_CHARGE("md.integrate", comp_s_);
    for (std::size_t idx : lnl_.owned_indices()) {
      lat::AtomEntry& e = lnl_.entry(idx);
      if (!e.is_atom()) continue;
      e.v += e.f * (kick0 / cfg_.mass_of(e.type));
      e.r += e.v * dt;
    }
    lnl_.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
      lat::RunawayAtom& a = lnl_.runaway(ri);
      a.v += a.f * (kick0 / cfg_.mass_of(a.type));
      a.r += a.v * dt;
    });
    time_ += dt;
  }

  detach_and_rehome(comm);
  compute_all_forces(comm);

  // Berendsen velocity rescale toward the target temperature. Its
  // temperature() allreduce is charged to neither side of the split.
  double scale = 1.0;
  if (cfg_.thermostat_rate > 0.0) {
    const double t_now = temperature(comm);
    if (t_now > 0.0) {
      const double lambda2 =
          1.0 + cfg_.thermostat_rate * (cfg_.temperature / t_now - 1.0);
      scale = std::sqrt(std::max(0.1, lambda2));
    }
  }
  {
    MMD_TRACE_SCOPE_CHARGE("md.kick", comp_s_);
    for (std::size_t idx : lnl_.owned_indices()) {
      lat::AtomEntry& e = lnl_.entry(idx);
      if (!e.is_atom()) continue;
      e.v += e.f * (kick0 / cfg_.mass_of(e.type));
      e.v *= scale;
    }
    lnl_.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
      lat::RunawayAtom& a = lnl_.runaway(ri);
      a.v += a.f * (kick0 / cfg_.mass_of(a.type));
      a.v *= scale;
    });
  }
  telemetry::count("md.steps");
}

void MdEngine::run(comm::Comm& comm, int steps) {
  for (int s = 0; s < steps; ++s) step(comm);
}

void MdEngine::run_for(comm::Comm& comm, double duration_ps) {
  const double until = time_ + duration_ps;
  while (time_ < until) step(comm);
}

void MdEngine::detach_and_rehome(comm::Comm& comm) {
  const double thr2 = cfg_.detach_threshold * cfg_.detach_threshold;
  std::vector<lat::RunawayAtom> emigrants;
  {
    MMD_TRACE_SCOPE_CHARGE("md.rehome", comp_s_);
    for (std::size_t idx : lnl_.owned_indices()) {
      lat::AtomEntry& e = lnl_.entry(idx);
      if (!e.is_atom()) continue;
      if ((e.r - lnl_.ideal_position(idx)).norm2() > thr2) {
        lnl_.detach(idx, &emigrants);
      }
    }
    lnl_.rehome_runaways(&emigrants);
  }
  MMD_TRACE_SCOPE_CHARGE("md.ghost.exchange", comm_s_);
  ghosts_.exchange(comm, std::move(emigrants));
}

void MdEngine::compute_all_forces(comm::Comm& comm) {
  // Ghost positions were refreshed by detach_and_rehome (or by initialize /
  // inject_pka); here: rho pass, rho exchange, force pass. Both force kernels
  // take the same calls, and each refreshes its own F'(rho) inside them.
  auto kernel = [&](auto&& call) {
    if (slave_ != nullptr) {
      call(*slave_);
    } else {
      call(ref_force_);
    }
  };
  {
    MMD_TRACE_SCOPE_CHARGE("md.force.rho", comp_s_);
    kernel([&](auto& k) { k.compute_rho(lnl_); });
  }

  if (comm.size() == 1) {
    // Single rank: the rho "exchange" is a local periodic copy with nothing
    // in flight to hide, so keep the plain sequential shape.
    {
      MMD_TRACE_SCOPE_CHARGE("md.ghost.rho", comm_s_);
      ghosts_.exchange_rho(comm);
    }
    MMD_TRACE_SCOPE_CHARGE("md.force.eam", comp_s_);
    kernel([&](auto& k) { k.compute_forces(lnl_); });
    return;
  }

  // Compute/communication overlap: post the x phase of the rho exchange,
  // sweep the interior cells (whose stencils never read ghosts) while the
  // messages travel, then complete the exchange and sweep the boundary
  // shell + run-aways, which do read ghost rho.
  std::optional<lat::GhostExchange::RhoFlight> flight;
  {
    MMD_TRACE_SCOPE_CHARGE("md.ghost.rho", comm_s_);
    flight = ghosts_.begin_exchange_rho(comm);
  }
  {
    MMD_TRACE_SCOPE_CHARGE("md.force.eam.interior", comp_s_);
    kernel([&](auto& k) { k.compute_forces_interior(lnl_); });
  }
  {
    MMD_TRACE_SCOPE_CHARGE("comm.wait", comm_s_);
    ghosts_.finish_exchange_rho(comm, *flight);
  }
  MMD_TRACE_SCOPE_CHARGE("md.force.eam", comp_s_);
  kernel([&](auto& k) { k.compute_forces_boundary(lnl_); });
}

double MdEngine::local_kinetic() const {
  double ke = 0.0;
  const double half = 0.5 * util::units::kVel2ToEnergy;
  for (std::size_t idx : lnl_.owned_indices()) {
    const lat::AtomEntry& e = lnl_.entry(idx);
    if (e.is_atom()) ke += half * cfg_.mass_of(e.type) * e.v.norm2();
  }
  lnl_.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
    const lat::RunawayAtom& a = lnl_.runaway(ri);
    ke += half * cfg_.mass_of(a.type) * a.v.norm2();
  });
  return ke;
}

double MdEngine::kinetic_energy(comm::Comm& comm) const {
  return comm.allreduce_sum(local_kinetic());
}

double MdEngine::potential_energy(comm::Comm& comm) const {
  return comm.allreduce_sum(ref_force_.potential_energy(lnl_));
}

double MdEngine::temperature(comm::Comm& comm) const {
  const double ke = kinetic_energy(comm);
  const auto n = comm.allreduce_sum_u64(
      static_cast<std::uint64_t>(lnl_.count_owned_atoms()));
  if (n == 0) return 0.0;
  return 2.0 * ke / (3.0 * static_cast<double>(n) * util::units::kBoltzmann);
}

DefectSummary MdEngine::defects(comm::Comm& comm) const {
  DefectSummary d;
  d.atoms = comm.allreduce_sum_u64(
      static_cast<std::uint64_t>(lnl_.count_owned_atoms()));
  d.vacancies = comm.allreduce_sum_u64(
      static_cast<std::uint64_t>(lnl_.count_owned_vacancies()));
  d.interstitials = comm.allreduce_sum_u64(
      static_cast<std::uint64_t>(lnl_.count_owned_runaways()));
  return d;
}

std::vector<VacancyRecord> MdEngine::vacancies() const {
  std::vector<VacancyRecord> out;
  for (std::size_t idx : lnl_.owned_indices()) {
    const lat::AtomEntry& e = lnl_.entry(idx);
    if (e.is_vacancy()) {
      out.push_back({lnl_.site_rank(idx), e.r});
    }
  }
  return out;
}

}  // namespace mmd::md
