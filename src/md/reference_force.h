#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lattice/lattice_neighbor_list.h"
#include "lattice/soa_pack.h"
#include "md/reference_force_kernels.h"
#include "potential/eam.h"

namespace mmd::md {

/// Visit-ordered neighbour records of one central particle: what the
/// collect step of an EAM pass writes and its evaluate step reads. Each
/// field is a plane indexed by record. The planes keep their capacity
/// across particles and steps, so collect writes record k by index (no
/// per-neighbour push_back, no per-particle resize) and they grow only when
/// a neighbourhood outnumbers every earlier one. The rho pass fills r2 and
/// pair; the force pass also fills d and fprime.
class EamPairRecords {
 public:
  /// Starting capacity of every plane: the 58 BCC stencil sites of the
  /// lattice neighbour list plus room for a few run-aways.
  static constexpr std::size_t kInitialCapacity = 64;

  EamPairRecords() { resize_planes(kInitialCapacity); }

  std::size_t size() const { return n_; }
  void clear() { n_ = 0; }

  /// Write the next rho-pass record.
  void add(double r2, std::int32_t pair) {
    if (n_ == r2_.size()) resize_planes(2 * n_);
    r2_[n_] = r2;
    pair_[n_] = pair;
    ++n_;
  }

  /// Write the next force-pass record.
  void add(double r2, std::int32_t pair, const util::Vec3& d, double fprime) {
    if (n_ == r2_.size()) resize_planes(2 * n_);
    r2_[n_] = r2;
    pair_[n_] = pair;
    d_[n_] = d;
    fprime_[n_] = fprime;
    ++n_;
  }

  std::span<const double> r2() const { return {r2_.data(), n_}; }
  std::span<const std::int32_t> pair() const { return {pair_.data(), n_}; }
  std::span<const util::Vec3> d() const { return {d_.data(), n_}; }
  std::span<const double> fprime() const { return {fprime_.data(), n_}; }
  /// Evaluate output, one term per record.
  std::span<double> term() { return {term_.data(), n_}; }
  std::span<const double> term() const { return {term_.data(), n_}; }

 private:
  void resize_planes(std::size_t cap) {
    r2_.resize(cap);
    pair_.resize(cap);
    d_.resize(cap);
    fprime_.resize(cap);
    term_.resize(cap);
  }

  std::size_t n_ = 0;
  std::vector<double> r2_;
  std::vector<std::int32_t> pair_;  ///< pot::EamTableSet pair index
  std::vector<util::Vec3> d_;       ///< r_j - r_i (force pass)
  std::vector<double> fprime_;      ///< F'(rho_j) (force pass)
  std::vector<double> term_;
};

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
/// Lane path. On a CPU with AVX2 and single-species tables, each pass
/// computes four central atoms per vector (reference_force_simd.cpp): a
/// group is four consecutive x cells of one owned row on one sublattice, and
/// each stencil offset is one unaligned load per plane of this rank's
/// lat::SoaPlanes (x, y, z, id, F'), which compute_rho packs once per step.
/// Each lane adds its own in-cutoff terms in stencil order and leaves its
/// sum untouched where a site is out of range, so its rho and F equal the
/// records path's visit-order sums bit for bit. Lanes past a region's x end
/// are computed but never stored; so are interior-pass lanes in boundary
/// cells, whose ghost F' is still in flight.
///
/// Records path: collect -> evaluate -> sum per central particle. Collect
/// writes the in-cutoff neighbours' records by index, in visit order, into
/// this rank's record planes (EamPairRecords), which keep their capacity
/// from particle to particle and step to step; evaluate computes their pair
/// terms (four records at a time through the AVX2 unit where the CPU has
/// it, the 1-3 record tail and other CPUs through the scalar expressions);
/// sum adds the terms in visit order. It runs where lanes cannot reproduce
/// the visit: for run-away atoms; for lattice entries with a run-away chain
/// on themselves or on a stencil site (the visit puts chain nodes right
/// after their host), marked once per step from the chain hosts through the
/// symmetric stencil; for Fe-Cu tables (tables.num_species > 1), each lane
/// of the evaluator reading its own pair's tables; on CPUs without AVX2;
/// after set_simd(false); and in a force pass that no compute_rho of this
/// object on the same lattice preceded. The bits equal the scalar
/// evaluator's in every build that does not contract a*b+c into FMA (a
/// whole-tree -march=x86-64-v3 build fuses the scalar expressions but not
/// the vector unit).
///
/// Both paths read F'(rho) from the one F' plane of the particle planes,
/// indexed by lat::ParticleView::slot (entries sublattice-major, run-away
/// nodes after them), filled once per particle before the pair loop, and
/// take phi' and f' of a pair from one shared segment lookup
/// (pot::EamTableSet::PairTables::derivatives). Host lookups read each
/// table's node-derivative plane instead of rebuilding the stencil from a
/// 6-sample window as the slave-core copies do; the bits are the same. The
/// planes are allocated by the first pass, so an object that only computes
/// potential_energy (the slave-core path's) holds none.
class ReferenceForce {
 public:
  explicit ReferenceForce(const pot::EamTableSet& tables);

  /// Run the lane path and the records path's AVX2 evaluator (the default
  /// where this CPU supports it) or, when off, the records path with the
  /// scalar evaluator for every particle. Read at every pass. No scenario
  /// key reaches this switch: the tests use it to run the scalar path on an
  /// AVX2 host.
  void set_simd(bool on) { simd_ = on && simd_supported(); }
  bool simd() const { return simd_; }
  static bool simd_supported();

  /// Pass 1: electron density at every owned atom (lattice + run-away).
  /// Packs the particle planes for this step's passes and adds the atoms
  /// each path computed to the md.force.lane_atoms and
  /// md.force.record_atoms counters.
  void compute_rho(lat::LatticeNeighborList& lnl);

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

  /// The evaluate step over collected records (public for its unit test).
  /// rho_terms: term[k] = f(r) of record k; force_terms: term[k] =
  /// (phi'(r) + (fp0 + fprime[k]) f'(r)) / r, with r = max(sqrt(r2), r_min)
  /// and the tables of pair[k].
  void rho_terms(EamPairRecords& rec) const;
  void force_terms(EamPairRecords& rec, double fp0) const;

  const pot::EamTableSet& tables() const { return *tables_; }

 private:
  /// Size the particle planes for `lnl` and pack its positions, rebuild the
  /// lane stencils and boundary shell when its box differs from the last
  /// one, and mark the entries next to a run-away chain.
  void pack_planes(const lat::LatticeNeighborList& lnl);
  /// F'(rho) of owned entries and owned run-aways (final after compute_rho).
  void refresh_fprime_owned(const lat::LatticeNeighborList& lnl);
  /// F'(rho) of ghost entries and the run-aways chained to them (valid only
  /// after the rho exchange).
  void refresh_fprime_ghosts(const lat::LatticeNeighborList& lnl);

  /// True when a force pass on `lnl` may run lanes: simd() is on and this
  /// object's compute_rho packed the planes from `lnl` for this step.
  bool force_lanes(const lat::LatticeNeighborList& lnl) const {
    return simd_ && packed_for_ == &lnl;
  }
  /// Whether the owned atom at `idx` takes the lane path in a pass that
  /// runs lanes.
  bool in_lanes(std::size_t idx) const { return chained_[idx] == 0; }
  /// Call group(sub, first entry index, lane bits) for each group of
  /// `region` that has a lane to store: bit l is set when the group's l-th
  /// cell lies in the region and holds an atom that takes the lane path.
  template <typename Group>
  void for_each_lane_group(const lat::LatticeNeighborList& lnl,
                           const lat::CellRegion& region, Group&& group) const;
  detail::EamLaneArgs lane_args(int sub) const;
  /// Lane rho of the atoms in lanes; returns how many it stored.
  std::uint64_t lane_rho(lat::LatticeNeighborList& lnl);
  void lane_forces(lat::LatticeNeighborList& lnl, const lat::CellRegion& region);

  /// Collect -> evaluate -> sum for one central particle of type t0 at r0;
  /// `visit` walks its neighbours (for_each_neighbor_of_entry/_runaway).
  template <typename Visit>
  double rho_of(const util::Vec3& r0, int t0, Visit&& visit);
  template <typename Visit>
  util::Vec3 force_on(const util::Vec3& r0, int t0, double fp0, Visit&& visit);

  /// Force pass over the owned cells of `regions` (lanes) and the records
  /// path's atoms among `indices`.
  void entry_forces(lat::LatticeNeighborList& lnl,
                    std::span<const lat::CellRegion> regions,
                    std::span<const std::size_t> indices);
  void runaway_forces(lat::LatticeNeighborList& lnl);

  const pot::EamTableSet* tables_;
  std::vector<detail::EamPairView> views_;  ///< raw tables, per pair index
  lat::SoaPlanes planes_;       ///< this rank's particle planes (x, y, z, id, F')
  EamPairRecords rec_;          ///< record planes, reused for every particle
  bool simd_;

  // Lane path state, rebuilt when the lattice's box changes.
  lat::LocalBox box_;
  std::vector<std::int64_t> lane_deltas_[2];  ///< plane-slot stencil, per sub
  std::vector<lat::CellRegion> shell_;        ///< boundary shell of box_
  /// Per entry: nonzero when a run-away chain hangs on it or on one of its
  /// stencil sites (this step; only owned entries are marked).
  std::vector<std::uint8_t> chained_;
  /// The lattice whose positions the planes hold for this step's force
  /// passes; null when the last compute_rho packed none.
  const lat::LatticeNeighborList* packed_for_ = nullptr;
};

}  // namespace mmd::md
