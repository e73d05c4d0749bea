#pragma once

#include <cstddef>
#include <cstdint>

// Internal interface between the reference EAM passes (reference_force.cpp)
// and their vector pair-term evaluator (reference_force_simd.cpp). The two TUs
// are compiled with different target flags (-mavx2 only on the vector one),
// so everything crossing the boundary is a POD and every function is out of
// line: no inline floating-point code may be defined here.

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

}  // namespace mmd::md::detail
