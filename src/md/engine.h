#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/world.h"
#include "lattice/decomposition.h"
#include "lattice/ghost_exchange.h"
#include "lattice/lattice_neighbor_list.h"
#include "md/config.h"
#include "md/defects.h"
#include "md/reference_force.h"
#include "potential/eam.h"
#include "util/rng.h"

namespace mmd::md {

class SlaveForceCompute;  // slave-core accelerated kernels (slave_force.h)

/// Extra margin added to the EAM cutoff when building the neighbor-offset
/// tables, so thermally displaced atoms are still found by the static
/// offsets; kernels filter by the true cutoff.
inline constexpr double kNeighborSkin = 0.6;

/// Per-rank molecular dynamics engine over the lattice neighbor list.
///
/// Velocity-Verlet NVE integration (optionally Berendsen-rescaled) with EAM
/// forces from the interpolation tables. Each time step:
///   1. half kick + drift,
///   2. detach atoms that left their lattice point, re-home run-aways,
///   3. three-phase ghost exchange (positions + run-away routing),
///   4. EAM pass 1 (rho), ghost-rho exchange, EAM pass 2 (forces),
///   5. half kick.
/// Forces can be computed by the reference master-core path or by the
/// slave-core block pipeline (see SlaveForceCompute) — both produce
/// identical physics.
class MdEngine {
 public:
  MdEngine(const MdConfig& cfg, const lat::BccGeometry& geo,
           const lat::DomainDecomposition& dd, const pot::EamTableSet& tables,
           int rank);

  /// Fill the perfect crystal, draw Maxwell-Boltzmann velocities (seeded per
  /// global site id, so results do not depend on the rank layout), exchange
  /// ghosts, and compute initial forces.
  void initialize(comm::Comm& comm);

  /// Give the atom at a global site a primary-knock-on kick of `energy_ev`
  /// along `direction` (collective: every rank must call; only the owner
  /// applies it). Models the incident irradiation particle of a cascade.
  void inject_pka(comm::Comm& comm, std::int64_t site_rank,
                  const util::Vec3& direction, double energy_ev);

  /// Convert a random fraction of atoms to the solute species (Fe-Cu alloy
  /// support, paper §2.1.2). Seeded per global site id, so the arrangement is
  /// independent of the decomposition. Collective (refreshes ghosts).
  /// Requires alloy tables; the slave-core kernel path does not support
  /// alloys (use the reference path).
  void seed_solutes(comm::Comm& comm, double fraction,
                    lat::Species solute = lat::Species::Cu);

  /// Advance one velocity-Verlet step (collective). The step length is
  /// cfg.dt, shortened when the fastest atom would move more than
  /// cfg.max_displacement (adaptive cascade stepping).
  void step(comm::Comm& comm);

  void run(comm::Comm& comm, int steps);

  /// Advance until at least `duration_ps` of simulated time has elapsed
  /// since initialize() (collective).
  void run_for(comm::Comm& comm, double duration_ps);

  /// Simulated physical time since initialize() [ps].
  double simulated_time() const { return time_; }

  /// Attach the slave-core force backend (nullptr restores the reference
  /// path). The pointer must outlive the engine's use of it.
  void use_slave_kernel(SlaveForceCompute* kernel) { slave_ = kernel; }

  // --- diagnostics (collective where a Comm is taken) ---

  double kinetic_energy(comm::Comm& comm) const;
  double potential_energy(comm::Comm& comm) const;
  double temperature(comm::Comm& comm) const;
  DefectSummary defects(comm::Comm& comm) const;

  /// Owned vacancies (local, no communication).
  std::vector<VacancyRecord> vacancies() const;

  lat::LatticeNeighborList& lattice() { return lnl_; }
  const lat::LatticeNeighborList& lattice() const { return lnl_; }
  const MdConfig& config() const { return cfg_; }
  int rank() const { return rank_; }

  /// Wall-clock split between computation and communication since
  /// initialize(), for the scaling benches: the summed lengths of the
  /// engine's compute- and comm-charged spans (docs/OBSERVABILITY.md),
  /// charged whether or not a tracer is attached.
  double computation_seconds() const { return comp_s_; }
  double communication_seconds() const { return comm_s_; }

 private:
  void compute_all_forces(comm::Comm& comm);
  void detach_and_rehome(comm::Comm& comm);
  double local_kinetic() const;

  MdConfig cfg_;
  const lat::BccGeometry* geo_;
  int rank_;
  lat::LatticeNeighborList lnl_;
  lat::GhostExchange ghosts_;
  const pot::EamTableSet* tables_;
  ReferenceForce ref_force_;
  SlaveForceCompute* slave_ = nullptr;
  double time_ = 0.0;
  double comp_s_ = 0.0;
  double comm_s_ = 0.0;
};

/// Build the geometry/decomposition pair implied by a config. Throws if the
/// box cannot host `nranks` subdomains with the needed halo.
struct MdSetup {
  lat::BccGeometry geo;
  lat::DomainDecomposition dd;

  MdSetup(const MdConfig& cfg, int nranks);
};

}  // namespace mmd::md
