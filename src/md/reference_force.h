#pragma once

#include <span>
#include <vector>

#include "lattice/lattice_neighbor_list.h"
#include "potential/eam.h"

namespace mmd::md {

/// Master-core (reference) EAM evaluation over the lattice neighbor list.
///
/// All arithmetic goes through the compacted interpolation tables — the same
/// tables and the same Hermite evaluation the slave-core kernels use — so the
/// accelerated strategies can be tested for exact agreement against this
/// path. Two-pass EAM:
///   pass 1: rho_i = sum_j f_{t_i t_j}(r_ij)           (+ ghost rho exchange)
///   pass 2: F_i  += [phi'(r) + (F'(rho_i) + F'(rho_j)) f'(r)] * d_hat
/// Forces are written for owned lattice atoms and owned run-away atoms; ghost
/// entries are read-only.
///
/// Pass 2 reads F'(rho) from a per-particle plane indexed by
/// lat::ParticleView::slot, filled once per particle before the pair loop
/// (not once per pair), and takes phi' and f' of a pair from one shared
/// segment lookup (pot::EamTableSet::PairTables::derivatives). Host lookups
/// read each table's node-derivative plane instead of rebuilding the stencil
/// from a 6-sample window as the slave-core copies do; the bits are the same.
class ReferenceForce {
 public:
  explicit ReferenceForce(const pot::EamTableSet& tables) : tables_(&tables) {}

  /// Pass 1: electron density at every owned atom (lattice + run-away).
  void compute_rho(lat::LatticeNeighborList& lnl) const;

  /// Pass 2: forces on every owned atom. Requires rho valid on owned AND
  /// ghost entries (run exchange_rho between passes in parallel runs).
  void compute_forces(lat::LatticeNeighborList& lnl);

  /// Overlap split of compute_forces, bit-identical to the unsplit call.
  /// compute_forces_interior refreshes only OWNED F'(rho) and computes the
  /// interior entries (lnl.owned_interior_indices()), whose stencils never
  /// read ghost storage, so it may run while the rho ghost exchange is still
  /// in flight. compute_forces_boundary must run after the exchange
  /// completes: it refreshes ghost F'(rho) (entries and their run-away
  /// chains), then computes the boundary entries and the owned run-aways.
  /// Always call interior first, then boundary; per-particle force is a
  /// plain assignment, so the split reproduces compute_forces exactly.
  void compute_forces_interior(lat::LatticeNeighborList& lnl);
  void compute_forces_boundary(lat::LatticeNeighborList& lnl);

  /// Potential energy attributed to this rank's owned atoms:
  /// sum_i [ F(rho_i) + 1/2 sum_j phi(r_ij) ].
  double potential_energy(const lat::LatticeNeighborList& lnl) const;

  const pot::EamTableSet& tables() const { return *tables_; }

 private:
  /// F'(rho) of owned entries and owned run-aways (final after compute_rho).
  void refresh_fprime_owned(const lat::LatticeNeighborList& lnl);
  /// F'(rho) of ghost entries and the run-aways chained to them (valid only
  /// after the rho exchange).
  void refresh_fprime_ghosts(const lat::LatticeNeighborList& lnl);

  void entry_forces(lat::LatticeNeighborList& lnl,
                    std::span<const std::size_t> indices) const;
  void runaway_forces(lat::LatticeNeighborList& lnl) const;

  const pot::EamTableSet* tables_;
  std::vector<double> fprime_;  ///< F'(rho) per particle slot
};

}  // namespace mmd::md
