// AVX2+FMA block kernels for the slave-core force sweeps. This TU is the
// only one compiled with -mavx2 -mfma (see src/md/CMakeLists.txt); when the
// toolchain cannot target AVX2 the stubs at the bottom compile instead and
// simd_available() reports false, so the sweep driver keeps its scalar path.
// It must not include potential/spline.h (checked at the end of the file).
//
// Numerical contract (what the tests pin down):
//  - Per-atom results are lane-position independent: every lane runs the
//    identical straight-line op sequence on its own data, remainder groups
//    use the same full-width ops with only the STORE masked, and skipped
//    pairs contribute an exact +0.0. Hence interior/boundary splits and any
//    block width reproduce the unsplit sweep bit for bit.
//  - Against the scalar kernel the results agree to ~1 ulp (FMA contraction
//    and vector sqrt are the only differences); the suite checks 1e-12.
//  - Garbage in masked lanes is harmless by construction: plane tail pads
//    keep over-reads in-bounds, gather indices are clamped into the table,
//    and max(sqrt, r_min) maps NaN lanes to r_min before indexing.

#include "md/slave_force_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace mmd::md::detail {

namespace {

/// The 6-sample window of each lane's segment plus the Hermite parameter t,
/// gathered from an edge-padded resident table. Mirrors CompactTable:
/// i = clamp(int((x - x_min)/dx), 0, segments-1), t = x/dx - x_min/dx - i,
/// window k = padded[i + k] (== samples[clamp(i-2+k, 0, n-1)]).
struct Window {
  __m256d w0, w1, w2, w3, w4, w5, t;
};

inline Window gather_window(const SimdTable& tab, __m256d r) {
  const __m256d dx = _mm256_set1_pd(tab.dx);
  const __m256d iv = _mm256_div_pd(_mm256_sub_pd(r, _mm256_set1_pd(tab.x_min)), dx);
  __m128i i = _mm256_cvttpd_epi32(iv);  // NaN lanes -> INT_MIN, clamped next
  i = _mm_max_epi32(i, _mm_setzero_si128());
  i = _mm_min_epi32(i, _mm_set1_epi32(tab.last_segment));
  Window w;
  w.t = _mm256_sub_pd(
      _mm256_sub_pd(_mm256_div_pd(r, dx), _mm256_set1_pd(tab.xmin_over_dx)),
      _mm256_cvtepi32_pd(i));
  w.w0 = _mm256_i32gather_pd(tab.padded + 0, i, 8);
  w.w1 = _mm256_i32gather_pd(tab.padded + 1, i, 8);
  w.w2 = _mm256_i32gather_pd(tab.padded + 2, i, 8);
  w.w3 = _mm256_i32gather_pd(tab.padded + 3, i, 8);
  w.w4 = _mm256_i32gather_pd(tab.padded + 4, i, 8);
  w.w5 = _mm256_i32gather_pd(tab.padded + 5, i, 8);
  return w;
}

inline __m256d node_d0(const Window& w) {
  // (w0 - w4 + 8*(w3 - w1)) / 12
  return _mm256_div_pd(
      _mm256_add_pd(_mm256_sub_pd(w.w0, w.w4),
                    _mm256_mul_pd(_mm256_set1_pd(8.0), _mm256_sub_pd(w.w3, w.w1))),
      _mm256_set1_pd(12.0));
}

inline __m256d node_d1(const Window& w) {
  return _mm256_div_pd(
      _mm256_add_pd(_mm256_sub_pd(w.w1, w.w5),
                    _mm256_mul_pd(_mm256_set1_pd(8.0), _mm256_sub_pd(w.w4, w.w2))),
      _mm256_set1_pd(12.0));
}

/// Hermite value: (2t^3-3t^2+1)s0 + (t^3-2t^2+t)d0 + (-2t^3+3t^2)s1 + (t^3-t^2)d1.
inline __m256d hermite_value(const Window& w) {
  const __m256d d0 = node_d0(w), d1 = node_d1(w);
  const __m256d t = w.t;
  const __m256d t2 = _mm256_mul_pd(t, t);
  const __m256d t3 = _mm256_mul_pd(t2, t);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d c_s0 = _mm256_add_pd(
      _mm256_fmsub_pd(_mm256_set1_pd(2.0), t3, _mm256_mul_pd(_mm256_set1_pd(3.0), t2)),
      one);
  const __m256d c_d0 = _mm256_add_pd(
      _mm256_fnmadd_pd(_mm256_set1_pd(2.0), t2, t3), t);
  const __m256d c_s1 = _mm256_fmsub_pd(_mm256_set1_pd(3.0), t2,
                                       _mm256_mul_pd(_mm256_set1_pd(2.0), t3));
  const __m256d c_d1 = _mm256_sub_pd(t3, t2);
  __m256d acc = _mm256_mul_pd(c_s0, w.w2);
  acc = _mm256_fmadd_pd(c_d0, d0, acc);
  acc = _mm256_fmadd_pd(c_s1, w.w3, acc);
  return _mm256_fmadd_pd(c_d1, d1, acc);
}

/// Hermite d/dx: ((6t^2-6t)s0 + (3t^2-4t+1)d0 + (-6t^2+6t)s1 + (3t^2-2t)d1) / dx.
inline __m256d hermite_deriv(const Window& w, double dx) {
  const __m256d d0 = node_d0(w), d1 = node_d1(w);
  const __m256d t = w.t;
  const __m256d t2 = _mm256_mul_pd(t, t);
  const __m256d six = _mm256_set1_pd(6.0);
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d c_s0 = _mm256_fmsub_pd(six, t2, _mm256_mul_pd(six, t));
  const __m256d c_d0 = _mm256_add_pd(
      _mm256_fnmadd_pd(_mm256_set1_pd(4.0), t, _mm256_mul_pd(three, t2)),
      _mm256_set1_pd(1.0));
  const __m256d c_s1 = _mm256_fnmadd_pd(six, t2, _mm256_mul_pd(six, t));
  const __m256d c_d1 = _mm256_fnmadd_pd(_mm256_set1_pd(2.0), t, _mm256_mul_pd(three, t2));
  __m256d acc = _mm256_mul_pd(c_s0, w.w2);
  acc = _mm256_fmadd_pd(c_d0, d0, acc);
  acc = _mm256_fmadd_pd(c_s1, w.w3, acc);
  acc = _mm256_fmadd_pd(c_d1, d1, acc);
  return _mm256_div_pd(acc, _mm256_set1_pd(dx));
}

/// The pair-loop skeleton shared by every stage. For each 4-cell central
/// group of each sublattice it walks the stencil, builds the validity mask
/// (central is atom AND neighbor is atom AND 0 < r2 <= cut2), hands
/// (mask, r, dx, dy, dz, cfp, nfp) to the stage functor which accumulates,
/// then the functor's store callback writes the <= 4 valid lanes.
template <class InitFn, class PairFn, class StoreFn>
inline void block_loop(const BlockArgs& a, InitFn&& init, PairFn&& pair,
                       StoreFn&& store) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d cut2 = _mm256_set1_pd(a.cut2);
  const __m256d rmin = _mm256_set1_pd(a.r_min);
  const bool has_fp = a.w.fprime != nullptr;
  for (int sub = 0; sub <= 1; ++sub) {
    const std::int32_t cbase = a.central_base[sub];
    const std::int32_t* deltas = a.deltas[sub];
    const std::int32_t nd = a.num_deltas[sub];
    for (std::int32_t xi = 0; xi < a.bw; xi += 4) {
      const int valid = std::min<std::int32_t>(4, a.bw - xi);
      const std::int32_t c = cbase + xi;
      const __m256d cx = _mm256_loadu_pd(a.w.x + c);
      const __m256d cy = _mm256_loadu_pd(a.w.y + c);
      const __m256d cz = _mm256_loadu_pd(a.w.z + c);
      const __m256d cid = _mm256_loadu_pd(a.w.id + c);
      const __m256d cfp = has_fp ? _mm256_loadu_pd(a.w.fprime + c) : zero;
      const __m256d cmask = _mm256_cmp_pd(cid, zero, _CMP_GE_OQ);
      init();
      for (std::int32_t j = 0; j < nd; ++j) {
        const std::int32_t n = deltas[j] + xi;
        const __m256d nid = _mm256_loadu_pd(a.w.id + n);
        const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(a.w.x + n), cx);
        const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(a.w.y + n), cy);
        const __m256d dz = _mm256_sub_pd(_mm256_loadu_pd(a.w.z + n), cz);
        const __m256d r2 = _mm256_fmadd_pd(
            dz, dz, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dx, dx)));
        __m256d mask = _mm256_and_pd(_mm256_cmp_pd(nid, zero, _CMP_GE_OQ),
                                     _mm256_cmp_pd(r2, cut2, _CMP_LE_OQ));
        mask = _mm256_and_pd(mask, _mm256_cmp_pd(r2, zero, _CMP_NEQ_OQ));
        mask = _mm256_and_pd(mask, cmask);
        const __m256d r = _mm256_max_pd(_mm256_sqrt_pd(r2), rmin);
        const __m256d nfp = has_fp ? _mm256_loadu_pd(a.w.fprime + n) : zero;
        pair(mask, r, dx, dy, dz, cfp, nfp);
      }
      store(sub, xi, valid);
    }
  }
}

}  // namespace

bool simd_available() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

void simd_rho_block(const BlockArgs& a, const SimdTable& f, double* out) {
  __m256d acc{};
  block_loop(
      a, [&] { acc = _mm256_setzero_pd(); },
      [&](__m256d mask, __m256d r, __m256d, __m256d, __m256d, __m256d, __m256d) {
        const __m256d val = hermite_value(gather_window(f, r));
        acc = _mm256_add_pd(acc, _mm256_and_pd(val, mask));
      },
      [&](int sub, std::int32_t xi, int valid) {
        alignas(32) double tmp[4];
        _mm256_store_pd(tmp, acc);
        for (int l = 0; l < valid; ++l) out[(xi + l) * 2 + sub] = tmp[l];
      });
}

namespace {

/// Force-stage driver: accumulate d_hat * s per pair, with the stage-specific
/// scale s supplied by `scale(r, cfp, nfp)`.
template <class ScaleFn>
inline void force_block(const BlockArgs& a, ScaleFn&& scale, util::Vec3* out) {
  __m256d ax{}, ay{}, az{};
  block_loop(
      a,
      [&] { ax = ay = az = _mm256_setzero_pd(); },
      [&](__m256d mask, __m256d r, __m256d dx, __m256d dy, __m256d dz,
          __m256d cfp, __m256d nfp) {
        const __m256d s = scale(r, cfp, nfp);
        ax = _mm256_add_pd(ax, _mm256_and_pd(_mm256_mul_pd(dx, s), mask));
        ay = _mm256_add_pd(ay, _mm256_and_pd(_mm256_mul_pd(dy, s), mask));
        az = _mm256_add_pd(az, _mm256_and_pd(_mm256_mul_pd(dz, s), mask));
      },
      [&](int sub, std::int32_t xi, int valid) {
        alignas(32) double tx[4], ty[4], tz[4];
        _mm256_store_pd(tx, ax);
        _mm256_store_pd(ty, ay);
        _mm256_store_pd(tz, az);
        for (int l = 0; l < valid; ++l) {
          out[(xi + l) * 2 + sub] = util::Vec3{tx[l], ty[l], tz[l]};
        }
      });
}

}  // namespace

void simd_pair_block(const BlockArgs& a, const SimdTable& phi, util::Vec3* out) {
  force_block(
      a,
      [&](__m256d r, __m256d, __m256d) {
        return _mm256_div_pd(hermite_deriv(gather_window(phi, r), phi.dx), r);
      },
      out);
}

void simd_dens_block(const BlockArgs& a, const SimdTable& f, util::Vec3* out) {
  force_block(
      a,
      [&](__m256d r, __m256d cfp, __m256d nfp) {
        const __m256d fder = hermite_deriv(gather_window(f, r), f.dx);
        return _mm256_div_pd(_mm256_mul_pd(_mm256_add_pd(cfp, nfp), fder), r);
      },
      out);
}

void simd_fused_block(const BlockArgs& a, const SimdTable& phi,
                      const SimdTable& f, util::Vec3* out) {
  force_block(
      a,
      [&](__m256d r, __m256d cfp, __m256d nfp) {
        const __m256d pder = hermite_deriv(gather_window(phi, r), phi.dx);
        const __m256d fder = hermite_deriv(gather_window(f, r), f.dx);
        return _mm256_div_pd(
            _mm256_fmadd_pd(_mm256_add_pd(cfp, nfp), fder, pder), r);
      },
      out);
}

}  // namespace mmd::md::detail

#else  // !__AVX2__: toolchain could not target AVX2 — stub everything out.

#include <cstdlib>

namespace mmd::md::detail {

bool simd_available() { return false; }

// The sweep driver never calls the kernels when simd_available() is false.
void simd_rho_block(const BlockArgs&, const SimdTable&, double*) { std::abort(); }
void simd_pair_block(const BlockArgs&, const SimdTable&, util::Vec3*) { std::abort(); }
void simd_dens_block(const BlockArgs&, const SimdTable&, util::Vec3*) { std::abort(); }
void simd_fused_block(const BlockArgs&, const SimdTable&, const SimdTable&,
                      util::Vec3*) {
  std::abort();
}

}  // namespace mmd::md::detail

#endif

// potential/spline.h defines the compact-table evaluators inline. Included
// here, they would be compiled with -mfma into a contracted copy that the
// linker may keep for every caller, so reference-path bits would depend on
// link order. Checked after every #include above.
#ifdef MMD_POTENTIAL_SPLINE_H
#error "slave_force_simd.cpp is built with -mfma and must not include potential/spline.h"
#endif
