// AVX2 unit of the reference EAM passes: the lane passes, which compute four
// central atoms of one sublattice row per vector from the sublattice-major
// particle planes, and the records path's pair-term evaluator. This TU is
// compiled with -mavx2 -mno-fma -ffp-contract=off (see src/md/CMakeLists.txt);
// when the toolchain cannot target AVX2 the stubs at the bottom compile
// instead and eam_avx2_available() reports false, so ReferenceForce keeps its
// scalar records path. It must not include potential/spline.h (checked at
// the end).
//
// Numerical contract: every lane computes exactly the scalar expression of
// its pair, one IEEE operation for one, in the same order —
// d = r_j - r_i, Vec3::norm2, CompactTable::segment_of and param,
// hermite::value / hermite::deriv_t, the division by dx, and
// (phi' + (F'_i + F'_j) f') / r — and a lane pass adds each lane's terms in
// the records path's visit order, leaving a lane's sum untouched where its
// mask is clear. Vector sqrt, add, sub, mul and div round like their scalar
// forms, so rho and F equal the scalar records path's bit for bit. That
// holds only while nothing fuses a*b+c on either side: this unit is built
// without FMA (CI disassembles its object file to prove it), and a build
// that lets the compiler contract the scalar expressions (a whole-tree
// -march=x86-64-v3) gives up the match there. Neighbours come from
// unit-stride plane loads and table nodes from two 128-bit loads per lane,
// never from a hardware gather (CI checks that too): a lane rho pass that
// gathered its neighbours' AtomEntry fields ran 2.2x slower (EXPERIMENTS.md).

#include "md/reference_force_kernels.h"

#if defined(__FMA__)
#error "reference_force_simd.cpp must be built with -mno-fma: fused a*b+c would change its bits"
#endif

#if defined(__AVX2__)

#include <immintrin.h>

namespace mmd::md::detail {

namespace {

/// One member of the four lanes' tables as a vector (lane l = record k + l).
template <typename Get>
inline __m256d per_lane(const EamTableView* const tv[4], Get&& get) {
  return _mm256_set_pd(get(*tv[3]), get(*tv[2]), get(*tv[1]), get(*tv[0]));
}

/// The grid of each lane's table, as CompactTable::segment_of reads it.
struct Grid {
  __m256d x_min, dx, xmin_over_dx;
  __m128i last_segment;  ///< segments - 1
};

inline Grid grid_of(const EamTableView* const tv[4]) {
  return {per_lane(tv, [](const EamTableView& v) { return v.x_min; }),
          per_lane(tv, [](const EamTableView& v) { return v.dx; }),
          per_lane(tv, [](const EamTableView& v) { return v.xmin_over_dx; }),
          _mm_set_epi32(tv[3]->last_segment, tv[2]->last_segment,
                        tv[1]->last_segment, tv[0]->last_segment)};
}

/// Segment index and parameter t of each lane's r on its table's grid:
/// i = clamp(int((r - x_min) / dx), 0, segments - 1),
/// t = r / dx - x_min / dx - i.
struct Segment {
  std::int32_t i[4];
  __m256d t;
};

inline Segment segment_of(const Grid& g, __m256d r) {
  __m128i i = _mm256_cvttpd_epi32(_mm256_div_pd(_mm256_sub_pd(r, g.x_min), g.dx));
  i = _mm_max_epi32(i, _mm_setzero_si128());
  i = _mm_min_epi32(i, g.last_segment);
  Segment s;
  s.t = _mm256_sub_pd(_mm256_sub_pd(_mm256_div_pd(r, g.dx), g.xmin_over_dx),
                      _mm256_cvtepi32_pd(i));
  s.i[0] = _mm_cvtsi128_si32(i);
  s.i[1] = _mm_extract_epi32(i, 1);
  s.i[2] = _mm_extract_epi32(i, 2);
  s.i[3] = _mm_extract_epi32(i, 3);
  return s;
}

/// The two samples and two node derivatives that bound each lane's segment.
struct Nodes {
  __m256d s0, s1, d0, d1;
};

/// Transpose four adjacent pairs (a_l[0], a_l[1]) into lo = a_*[0] and
/// hi = a_*[1].
inline void transpose_pairs(__m128d a0, __m128d a1, __m128d a2, __m128d a3,
                            __m256d* lo, __m256d* hi) {
  const __m256d even = _mm256_set_m128d(a2, a0);
  const __m256d odd = _mm256_set_m128d(a3, a1);
  *lo = _mm256_unpacklo_pd(even, odd);
  *hi = _mm256_unpackhi_pd(even, odd);
}

inline Nodes nodes_of(const EamTableView* const tv[4], const std::int32_t i[4]) {
  Nodes n;
  transpose_pairs(_mm_loadu_pd(tv[0]->samples + i[0]),
                  _mm_loadu_pd(tv[1]->samples + i[1]),
                  _mm_loadu_pd(tv[2]->samples + i[2]),
                  _mm_loadu_pd(tv[3]->samples + i[3]), &n.s0, &n.s1);
  transpose_pairs(_mm_loadu_pd(tv[0]->node_derivs + i[0]),
                  _mm_loadu_pd(tv[1]->node_derivs + i[1]),
                  _mm_loadu_pd(tv[2]->node_derivs + i[2]),
                  _mm_loadu_pd(tv[3]->node_derivs + i[3]), &n.d0, &n.d1);
  return n;
}

/// Weights of s0, d0, s1, d1 in a Hermite cubic (or its d/dt) at t.
struct Basis {
  __m256d s0, d0, s1, d1;
};

inline __m256d mul(double c, __m256d x) { return _mm256_mul_pd(_mm256_set1_pd(c), x); }

/// hermite::value: (2t^3 - 3t^2 + 1), (t^3 - 2t^2 + t), (-2t^3 + 3t^2), (t^3 - t^2).
inline Basis value_basis(__m256d t) {
  const __m256d t2 = _mm256_mul_pd(t, t);
  const __m256d t3 = _mm256_mul_pd(t2, t);
  return {_mm256_add_pd(_mm256_sub_pd(mul(2.0, t3), mul(3.0, t2)), _mm256_set1_pd(1.0)),
          _mm256_add_pd(_mm256_sub_pd(t3, mul(2.0, t2)), t),
          _mm256_add_pd(mul(-2.0, t3), mul(3.0, t2)),
          _mm256_sub_pd(t3, t2)};
}

/// hermite::deriv_t: (6t^2 - 6t), (3t^2 - 4t + 1), (-6t^2 + 6t), (3t^2 - 2t).
inline Basis deriv_basis(__m256d t) {
  const __m256d t2 = _mm256_mul_pd(t, t);
  return {_mm256_sub_pd(mul(6.0, t2), mul(6.0, t)),
          _mm256_add_pd(_mm256_sub_pd(mul(3.0, t2), mul(4.0, t)), _mm256_set1_pd(1.0)),
          _mm256_add_pd(mul(-6.0, t2), mul(6.0, t)),
          _mm256_sub_pd(mul(3.0, t2), mul(2.0, t))};
}

/// ((w.s0 s0 + w.d0 d0) + w.s1 s1) + w.d1 d1, the scalar summation order.
inline __m256d combine(const Basis& w, const Nodes& n) {
  __m256d acc = _mm256_add_pd(_mm256_mul_pd(w.s0, n.s0), _mm256_mul_pd(w.d0, n.d0));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(w.s1, n.s1));
  return _mm256_add_pd(acc, _mm256_mul_pd(w.d1, n.d1));
}

/// f(r) of each lane: CompactTable::value on its table's grid.
inline __m256d rho_term(const EamTableView* const f[4], const Grid& fg, __m256d r) {
  const Segment seg = segment_of(fg, r);
  return combine(value_basis(seg.t), nodes_of(f, seg.i));
}

/// (phi'(r) + fp f'(r)) / r of each lane: PairTables::derivatives, whose
/// one segment lookup on phi's grid serves both tables, then the pass-2
/// scale.
inline __m256d force_scale(const EamTableView* const phi[4],
                           const EamTableView* const f[4], const Grid& phig,
                           __m256d f_dx, __m256d r, __m256d fp) {
  const Segment seg = segment_of(phig, r);
  const Basis w = deriv_basis(seg.t);
  const __m256d dphi = _mm256_div_pd(combine(w, nodes_of(phi, seg.i)), phig.dx);
  const __m256d df = _mm256_div_pd(combine(w, nodes_of(f, seg.i)), f_dx);
  return _mm256_div_pd(_mm256_add_pd(dphi, _mm256_mul_pd(fp, df)), r);
}

/// max(sqrt(r2), r_min), as std::max(std::sqrt(r2), r_min).
inline __m256d r_of(__m256d r2, __m256d r_min) {
  return _mm256_max_pd(_mm256_sqrt_pd(r2), r_min);
}

/// acc + x in the lanes of `mask`; the other lanes keep acc's bits.
inline __m256d masked_add(__m256d acc, __m256d x, __m256d mask) {
  return _mm256_blendv_pd(acc, _mm256_add_pd(acc, x), mask);
}

/// Walk the stencil of the four central atoms at plane slot c: for each
/// site, in visit order, pass the lanes that take its term (`mask`), r, the
/// separation d and the site's plane slot to `term`. The mask is the scalar
/// collect's tests, negated: the site holds an atom (id >= 0) other than the
/// lane's own (id !=), !(r2 > cut2), and in the force pass r2 != 0. Sites
/// that no lane takes are skipped.
template <bool kForce, typename Term>
inline void walk_stencil(const EamLaneArgs& a, std::size_t c, Term&& term) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d cut2 = _mm256_set1_pd(a.cut2);
  const __m256d rmin = _mm256_set1_pd(a.r_min);
  const __m256d cx = _mm256_loadu_pd(a.x + c);
  const __m256d cy = _mm256_loadu_pd(a.y + c);
  const __m256d cz = _mm256_loadu_pd(a.z + c);
  const __m256d cid = _mm256_loadu_pd(a.id + c);
  for (std::size_t k = 0; k < a.num_deltas; ++k) {
    const std::size_t n = c + static_cast<std::size_t>(a.deltas[k]);
    const __m256d nid = _mm256_loadu_pd(a.id + n);
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(a.x + n), cx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(a.y + n), cy);
    const __m256d dz = _mm256_sub_pd(_mm256_loadu_pd(a.z + n), cz);
    // Vec3::norm2: (x*x + y*y) + z*z.
    const __m256d r2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
        _mm256_mul_pd(dz, dz));
    __m256d mask = _mm256_and_pd(_mm256_cmp_pd(nid, zero, _CMP_GE_OQ),
                                 _mm256_cmp_pd(nid, cid, _CMP_NEQ_UQ));
    mask = _mm256_and_pd(mask, _mm256_cmp_pd(r2, cut2, _CMP_NGT_UQ));
    if constexpr (kForce) {
      mask = _mm256_and_pd(mask, _mm256_cmp_pd(r2, zero, _CMP_NEQ_UQ));
    }
    if (_mm256_movemask_pd(mask) == 0) continue;
    term(mask, r_of(r2, rmin), dx, dy, dz, n);
  }
}

}  // namespace

bool eam_avx2_available() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

void eam_rho_terms_avx2(const EamPairView* pairs, const std::int32_t* pair,
                        const double* r2, std::size_t n, double r_min,
                        double* out) {
  const __m256d rmin = _mm256_set1_pd(r_min);
  for (std::size_t k = 0; k < n; k += 4) {
    const EamTableView* f[4];
    for (int l = 0; l < 4; ++l) f[l] = &pairs[pair[k + l]].f;
    const __m256d r = r_of(_mm256_loadu_pd(r2 + k), rmin);
    _mm256_storeu_pd(out + k, rho_term(f, grid_of(f), r));
  }
}

void eam_force_terms_avx2(const EamPairView* pairs, const std::int32_t* pair,
                          const double* r2, const double* fprime, double fp0,
                          std::size_t n, double r_min, double* out) {
  const __m256d rmin = _mm256_set1_pd(r_min);
  const __m256d fp0v = _mm256_set1_pd(fp0);
  for (std::size_t k = 0; k < n; k += 4) {
    const EamTableView* phi[4];
    const EamTableView* f[4];
    for (int l = 0; l < 4; ++l) {
      phi[l] = &pairs[pair[k + l]].phi;
      f[l] = &pairs[pair[k + l]].f;
    }
    const __m256d r = r_of(_mm256_loadu_pd(r2 + k), rmin);
    const __m256d f_dx = per_lane(f, [](const EamTableView& v) { return v.dx; });
    const __m256d fp = _mm256_add_pd(fp0v, _mm256_loadu_pd(fprime + k));
    _mm256_storeu_pd(out + k, force_scale(phi, f, grid_of(phi), f_dx, r, fp));
  }
}

void eam_lane_rho_avx2(const EamLaneArgs& a, std::size_t c, double rho[4]) {
  const EamTableView* const f[4] = {&a.pair->f, &a.pair->f, &a.pair->f, &a.pair->f};
  const Grid fg = grid_of(f);
  __m256d acc = _mm256_setzero_pd();
  walk_stencil<false>(a, c, [&](__m256d mask, __m256d r, __m256d, __m256d,
                                __m256d, std::size_t) {
    acc = masked_add(acc, rho_term(f, fg, r), mask);
  });
  _mm256_storeu_pd(rho, acc);
}

void eam_lane_force_avx2(const EamLaneArgs& a, std::size_t c, double fx[4],
                         double fy[4], double fz[4]) {
  const EamTableView* const phi[4] = {&a.pair->phi, &a.pair->phi, &a.pair->phi,
                                      &a.pair->phi};
  const EamTableView* const f[4] = {&a.pair->f, &a.pair->f, &a.pair->f, &a.pair->f};
  const Grid phig = grid_of(phi);
  const __m256d f_dx = _mm256_set1_pd(a.pair->f.dx);
  const __m256d cfp = _mm256_loadu_pd(a.fprime + c);
  __m256d ax = _mm256_setzero_pd();
  __m256d ay = ax;
  __m256d az = ax;
  walk_stencil<true>(a, c, [&](__m256d mask, __m256d r, __m256d dx, __m256d dy,
                               __m256d dz, std::size_t n) {
    const __m256d fp = _mm256_add_pd(cfp, _mm256_loadu_pd(a.fprime + n));
    const __m256d s = force_scale(phi, f, phig, f_dx, r, fp);
    ax = masked_add(ax, _mm256_mul_pd(dx, s), mask);
    ay = masked_add(ay, _mm256_mul_pd(dy, s), mask);
    az = masked_add(az, _mm256_mul_pd(dz, s), mask);
  });
  _mm256_storeu_pd(fx, ax);
  _mm256_storeu_pd(fy, ay);
  _mm256_storeu_pd(fz, az);
}

}  // namespace mmd::md::detail

#else  // !__AVX2__: toolchain could not target AVX2 — stub everything out.

#include <cstdlib>

namespace mmd::md::detail {

bool eam_avx2_available() { return false; }

// ReferenceForce never calls the evaluator when eam_avx2_available() is false.
void eam_rho_terms_avx2(const EamPairView*, const std::int32_t*, const double*,
                        std::size_t, double, double*) {
  std::abort();
}
void eam_force_terms_avx2(const EamPairView*, const std::int32_t*,
                          const double*, const double*, double, std::size_t,
                          double, double*) {
  std::abort();
}
void eam_lane_rho_avx2(const EamLaneArgs&, std::size_t, double*) { std::abort(); }
void eam_lane_force_avx2(const EamLaneArgs&, std::size_t, double*, double*,
                         double*) {
  std::abort();
}

}  // namespace mmd::md::detail

#endif

// potential/spline.h defines the compact-table evaluators inline. Included
// here, they would be compiled as AVX2 code that the linker may keep for
// every caller, which would then fault on a CPU without AVX2. Checked after
// every #include above.
#ifdef MMD_POTENTIAL_SPLINE_H
#error "reference_force_simd.cpp is built with -mavx2 and must not include potential/spline.h"
#endif
