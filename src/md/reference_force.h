#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lattice/lattice_neighbor_list.h"
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
/// Each pass runs collect -> evaluate -> sum per central particle. Collect
/// writes the in-cutoff neighbours' records by index, in visit order, into
/// this rank's record planes (EamPairRecords), which keep their capacity
/// from particle to particle and step to step; evaluate computes their pair
/// terms; sum adds the terms in visit order, so rho and F do not depend on
/// how the terms were evaluated. On a CPU with AVX2, evaluate runs four
/// records at a time through the vector unit (reference_force_simd.cpp),
/// which repeats the scalar order of operations without fusing a*b+c, and
/// the 1-3 record tail through the scalar expressions; other CPUs run the
/// scalar evaluator over the same records. The bits equal the scalar evaluator's in every build that does
/// not contract a*b+c into FMA (a whole-tree -march=x86-64-v3 build fuses
/// the scalar expressions but not the vector unit). Fe-Cu neighbourhoods
/// take the same path, each lane reading its own pair's tables.
///
/// Pass 2 reads F'(rho) from a per-particle plane indexed by
/// lat::ParticleView::slot, filled once per particle before the pair loop
/// (not once per pair), and takes phi' and f' of a pair from one shared
/// segment lookup (pot::EamTableSet::PairTables::derivatives). Host lookups
/// read each table's node-derivative plane instead of rebuilding the stencil
/// from a 6-sample window as the slave-core copies do; the bits are the same.
class ReferenceForce {
 public:
  explicit ReferenceForce(const pot::EamTableSet& tables);

  /// Evaluate pair terms with the AVX2 unit (the default where this CPU
  /// supports it) or, when off, with the scalar evaluator over the same
  /// records. No scenario key reaches this switch: the tests use it to run
  /// the scalar evaluator on an AVX2 host.
  void set_simd(bool on) { simd_ = on && simd_supported(); }
  bool simd() const { return simd_; }
  static bool simd_supported();

  /// Pass 1: electron density at every owned atom (lattice + run-away).
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
  /// F'(rho) of owned entries and owned run-aways (final after compute_rho).
  void refresh_fprime_owned(const lat::LatticeNeighborList& lnl);
  /// F'(rho) of ghost entries and the run-aways chained to them (valid only
  /// after the rho exchange).
  void refresh_fprime_ghosts(const lat::LatticeNeighborList& lnl);

  /// Collect -> evaluate -> sum for one central particle of type t0 at r0;
  /// `visit` walks its neighbours (for_each_neighbor_of_entry/_runaway).
  template <typename Visit>
  double rho_of(const util::Vec3& r0, int t0, Visit&& visit);
  template <typename Visit>
  util::Vec3 force_on(const util::Vec3& r0, int t0, double fp0, Visit&& visit);

  void entry_forces(lat::LatticeNeighborList& lnl,
                    std::span<const std::size_t> indices);
  void runaway_forces(lat::LatticeNeighborList& lnl);

  const pot::EamTableSet* tables_;
  std::vector<detail::EamPairView> views_;  ///< raw tables, per pair index
  std::vector<double> fprime_;  ///< F'(rho) per particle slot
  EamPairRecords rec_;          ///< record planes, reused for every particle
  bool simd_;
};

}  // namespace mmd::md
