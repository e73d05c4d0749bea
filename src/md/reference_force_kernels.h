#pragma once

#include <cstddef>
#include <cstdint>

// Internal interface between the reference EAM passes (reference_force.cpp)
// and their vector unit (reference_force_simd.cpp): the lane passes and the
// records path's pair-term evaluator. The two TUs are compiled with different
// target flags (-mavx2 only on the vector one), so everything crossing the
// boundary is a POD and every function is out of line: no inline
// floating-point code may be defined here.

namespace mmd::md::detail {

/// One pot::CompactTable as raw arrays: its samples, its host node-derivative
/// plane, and the grid that CompactTable::segment_of and param read.
struct EamTableView {
  const double* samples = nullptr;
  const double* node_derivs = nullptr;
  double x_min = 0.0;
  double dx = 1.0;
  double xmin_over_dx = 0.0;
  std::int32_t last_segment = 0;  ///< segments - 1 (clamp bound of i)
};

/// The phi and f tables of one species pair (pot::EamTableSet::PairTables),
/// indexed like EamTableSet::pairs.
struct EamPairView {
  EamTableView phi;
  EamTableView f;
};

/// True when the AVX2 evaluator was compiled in AND this CPU executes it.
bool eam_avx2_available();

/// Density terms of the first n records (n a multiple of 4), in the scalar
/// order of operations of CompactTable::value:
///   out[k] = pairs[pair[k]].f.value(max(sqrt(r2[k]), r_min))
void eam_rho_terms_avx2(const EamPairView* pairs, const std::int32_t* pair,
                        const double* r2, std::size_t n, double r_min,
                        double* out);

/// Force scales of the first n records (n a multiple of 4), in the scalar
/// order of operations of PairTables::derivatives and the pass-2 kernel:
///   out[k] = (phi'(r) + (fp0 + fprime[k]) * f'(r)) / r,
///   r = max(sqrt(r2[k]), r_min), phi and f of pairs[pair[k]]
void eam_force_terms_avx2(const EamPairView* pairs, const std::int32_t* pair,
                          const double* r2, const double* fprime, double fp0,
                          std::size_t n, double r_min, double* out);

/// What a lane pass reads for one sublattice's groups: the particle planes
/// of lat::SoaPlanes (every pointer indexed by plane slot), the plane-slot
/// offset of each stencil site in visit order, and the one species pair's
/// tables.
struct EamLaneArgs {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* id = nullptr;      ///< atom id, negative for non-atoms
  const double* fprime = nullptr;  ///< F'(rho) (force pass)
  const std::int64_t* deltas = nullptr;
  std::size_t num_deltas = 0;
  const EamPairView* pair = nullptr;
  double cut2 = 0.0;
  double r_min = 0.0;
};

/// rho of the four central atoms at plane slots c .. c+3. Each lane adds
/// f(max(sqrt(r2), r_min)) of every stencil site that holds an atom other
/// than its own, with !(r2 > cut2), in stencil order: the visit-order sum of
/// ReferenceForce's records path for an entry with no run-away chain on
/// itself or its stencil. Lanes whose central is no such atom compute
/// garbage; the caller stores only the others.
void eam_lane_rho_avx2(const EamLaneArgs& a, std::size_t c, double rho[4]);

/// Force on the four central atoms at plane slots c .. c+3, likewise: each
/// lane adds d * (phi'(r) + (F'_c + F'_n) f'(r)) / r of every stencil atom
/// other than its own with !(r2 > cut2) and r2 != 0, in stencil order.
void eam_lane_force_avx2(const EamLaneArgs& a, std::size_t c, double fx[4],
                         double fy[4], double fz[4]);

}  // namespace mmd::md::detail
