#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "lattice/lattice_neighbor_list.h"
#include "lattice/soa_pack.h"
#include "potential/eam.h"
#include "sunway/slave_pool.h"

namespace mmd::md {

/// The cumulative optimization ladder of the paper's Fig. 9.
enum class AccelStrategy {
  TraditionalTable,      ///< 5000x7 coefficient tables, one DMA per lookup
  CompactedTable,        ///< resident 5000-sample tables, window DMA per block
  CompactedReuse,        ///< + keep the overlapping window slices between blocks
  CompactedReuseDouble,  ///< + double-buffer window transfer against compute
};

std::string to_string(AccelStrategy s);

/// EAM force computation on the simulated Sunway slave cores (paper §2.1.2).
///
/// The subdomain is split into slabs (one per slave core: a contiguous chunk
/// of owned (y,z) cell rows, dispatched through
/// SlaveCorePool::parallel_for_chunks); each slab is processed in blocks of
/// `bx` cells along x. Per block the core DMAs a window of (bx+2h)(2h+1)^2
/// cells into its local store, evaluates the stage's table(s), and DMAs the
/// results back. A core stages its resident tables once per sweep, and only
/// when it owns rows: a core whose slab is empty is not invoked and moves
/// no bytes, which matters for the thin boundary-shell slabs of a
/// multi-rank step. Nothing in the local store is assumed to survive from
/// one sweep to the next.
///
/// Staging is structure-of-arrays end to end: main memory keeps one
/// sublattice-deinterleaved plane per field (lat::SoaPlanes), and the local
/// store window mirrors that as per-field, per-sublattice row blocks, each
/// 64-byte aligned. A pass moves only the planes it reads (x/y/z/id always;
/// F'(rho) only for the density-force and fused stages), so the rho and
/// pair sweeps ship 32 B per entry where the packed-record layout shipped
/// 40 B. Within a window, one sublattice's row is a contiguous run of
/// doubles, which makes every stencil offset of a 4-cell central group a
/// unit-stride vector load — the layout the AVX2 kernels
/// (slave_force_simd.cpp) are built on. On hardware without AVX2, or
/// whenever a needed compact table is not store-resident, the sweep runs a
/// scalar loop over the same planes with the original arithmetic.
///
/// Stage -> table(s) -> output mapping (each sweep writes exactly ONE output
/// array; see run_scalar_stage / run_vector_stage):
///   sweep RHO         : density table f          -> rho_i           (scalar)
///   (MPE)             : embedding table          -> F'(rho_i), packed
///   sweep FUSED-FORCE : pair phi AND density f   -> full EAM force  (vector)
/// and, for the unfused two-pass shape kept for comparison benches:
///   sweep PAIR-FORCE  : pair table phi           -> sum phi'(r) d_hat
///   sweep DENS-FORCE  : density table f          -> sum (F'_i + F'_j) f'(r) d_hat
///
/// The fused sweep (default) walks the block window ONCE per force
/// evaluation, evaluating both compact tables per pair — roughly half the
/// window DMA get traffic of the two-pass shape. Both tables are staged
/// resident in the local store when they fit next to a minimal window;
/// otherwise the non-resident table falls back to per-segment DMA lookups
/// (counted in table_fallbacks() and the sw.table.fallback telemetry counter
/// — at the authentic 2x39 KB table sizes the 64 KB store cannot hold both).
///
/// One set of planes serves a whole step: compute_rho packs positions once
/// and compute_forces refreshes only the F'(rho) plane after the rho ghost
/// exchange (positions cannot have changed in between).
///
/// Run-away atoms (a few millionths of all atoms) are handled on the master
/// core as a complement pass; physics is identical to ReferenceForce up to
/// floating-point summation order.
class SlaveForceCompute {
 public:
  SlaveForceCompute(const pot::EamTableSet& tables, sw::SlaveCorePool& pool,
                    AccelStrategy strategy);

  void compute_rho(lat::LatticeNeighborList& lnl);
  void compute_forces(lat::LatticeNeighborList& lnl);

  /// Overlap split of compute_forces, bit-identical to the unsplit call.
  /// compute_forces_interior sweeps only the interior cells — whose windows
  /// never read ghost storage — and may run while the rho ghost exchange is
  /// still in flight (only OWNED F'(rho) is refreshed; ghost slots stay
  /// stale and unread). compute_forces_boundary must run after the exchange
  /// completes: it refreshes ghost F'(rho), sweeps the boundary shell, and
  /// runs the run-away complement. Always call interior first, then
  /// boundary; per-entry output is an assignment from the same fixed-order
  /// window walk (and the SIMD kernels are lane-position independent), so
  /// the region decomposition reproduces compute_forces exactly.
  void compute_forces_interior(lat::LatticeNeighborList& lnl);
  void compute_forces_boundary(lat::LatticeNeighborList& lnl);

  AccelStrategy strategy() const { return strategy_; }

  /// Toggle the fused single-sweep force kernel (default on). Off restores
  /// the two-pass pair/density shape — kept so benches and tests can measure
  /// the fusion win on identical inputs.
  void set_fused(bool on) { fused_ = on; }
  bool fused() const { return fused_; }

  /// Toggle the AVX2 block kernels (default on when the build and CPU
  /// support them). The SIMD path engages per sweep only for the compacted
  /// strategies with every needed table store-resident; everything else
  /// always runs the scalar loop. Off pins the scalar loop everywhere —
  /// benches and the scalar-vs-SIMD equivalence tests flip this.
  void set_simd(bool on) { simd_ = on && simd_supported(); }
  bool simd() const { return simd_; }
  /// True when the AVX2 kernels were compiled in and this CPU runs them.
  static bool simd_supported();

  /// Number of core-sweeps that could not keep every wanted compact table
  /// resident and fell back to per-segment DMA lookups. Only cores that
  /// owned rows in a sweep are counted; idle cores stage nothing.
  std::uint64_t table_fallbacks() const {
    return table_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Aggregated DMA statistics from the pool since the last reset.
  sw::DmaStats dma_stats() const { return pool_->aggregate_dma_stats(); }
  void reset_stats();

  /// Modeled Sunway time of everything executed since the last reset: the
  /// critical-path core's DMA cost (alpha-beta model) combined with its
  /// measured compute time — summed for the serial strategies, overlapped
  /// (max) for the double-buffered one. The DMA ledger already reflects the
  /// executed sweep shape (one window pass when fused, two when not), so the
  /// overlap model needs no fused-specific term.
  double modeled_time() const;

  /// Measured compute seconds on the critical-path core.
  double compute_seconds() const;

 private:
  enum class Stage { Rho, PairForce, DensForce, FusedForce };

  void pack(const lat::LatticeNeighborList& lnl, bool with_fprime);
  /// Rewrite only the F'(rho) plane of already packed planes (the rho
  /// exchange between the two phases of a step changes nothing else).
  void refresh_fprime(const lat::LatticeNeighborList& lnl);
  /// Partial refreshes for the overlap split: owned slots can be refreshed
  /// before the rho exchange completes; ghost slots only after.
  void refresh_fprime_owned(const lat::LatticeNeighborList& lnl);
  void refresh_fprime_ghosts(const lat::LatticeNeighborList& lnl);

  /// One slave-core window sweep over the owned cells of `region`.
  /// Stage::Rho writes per-entry densities into `out_rho`; the force stages
  /// write per-entry force (partial for Pair/DensForce, total for
  /// FusedForce) into `out_force`. Each overload accepts only the stages
  /// that produce its output type.
  void run_scalar_stage(lat::LatticeNeighborList& lnl,
                        const lat::CellRegion& region,
                        std::vector<double>& out_rho);
  void run_vector_stage(lat::LatticeNeighborList& lnl, Stage stage,
                        const lat::CellRegion& region,
                        std::vector<util::Vec3>& out_force);

  /// Run the configured force stage shape (fused or two-pass) over one
  /// region, leaving the results in the staging vectors.
  void force_stages(lat::LatticeNeighborList& lnl,
                    const lat::CellRegion& region);
  /// Copy staged forces onto the given owned entries.
  void scatter_forces(lat::LatticeNeighborList& lnl,
                      std::span<const std::size_t> indices) const;

  /// Fold table-residency fallbacks recorded since `before` into telemetry
  /// (rank thread only) and log the first occurrence.
  void fold_fallbacks(std::uint64_t before);

  /// The stage kernel, with the per-pair stage/table-format branches hoisted
  /// into template parameters so they resolve at compile time.
  template <Stage S, bool Traditional>
  void sweep(lat::LatticeNeighborList& lnl, const lat::CellRegion& region,
             std::vector<std::conditional_t<S == Stage::Rho, double,
                                            util::Vec3>>& out);

  void complement_runaways_rho(lat::LatticeNeighborList& lnl) const;
  void complement_runaways_force(lat::LatticeNeighborList& lnl) const;

  const pot::EamTableSet* tables_;
  sw::SlaveCorePool* pool_;
  AccelStrategy strategy_;
  bool fused_ = true;
  bool simd_;                        ///< set in the constructor
  lat::SoaPlanes planes_;            ///< main-memory SoA staging, slot-indexed
  bool packed_fresh_ = false;        ///< planes_ hold this step's positions
  std::vector<double> rho_stage_;
  std::vector<util::Vec3> fpair_stage_;
  std::vector<util::Vec3> fdens_stage_;
  std::vector<double> compute_s_;    ///< per-core measured compute seconds
  std::atomic<std::uint64_t> table_fallbacks_{0};
  bool fallback_logged_ = false;
};

}  // namespace mmd::md
