#pragma once

// The table evaluators below are defined inline, so every translation unit
// that includes this header compiles its own copy and the linker keeps one of
// them for all callers. A copy compiled with -mfma would contract a*b+c into
// FMA and change the bits of every caller, and a copy compiled with -mavx2
// would fault on CPUs without AVX2, so such units must not include this
// header; src/md/slave_force_simd.cpp and src/md/reference_force_simd.cpp
// #error on this marker.
#define MMD_POTENTIAL_SPLINE_H 1

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mmd::pot {

/// Cubic Hermite evaluation shared by both table formats. Node derivatives
/// come from the 5-point finite-difference stencil the paper shows in Fig. 5:
///   d[i] = (S[i-2] - S[i+2] + 8*(S[i+1] - S[i-1])) / 12
/// (indices clamped at the table edges), so the traditional coefficient table,
/// the compact table's host derivative plane and the on-the-fly evaluation of
/// a staged copy produce IDENTICAL values.
namespace hermite {

/// Node derivative (per segment-unit) from a clamped 5-point stencil over the
/// sample array `s` of length `n`.
double node_derivative(const double* s, std::int64_t n, std::int64_t i);

/// Evaluate the Hermite cubic of segment [i, i+1] at parameter t in [0,1].
inline double value(double s0, double s1, double d0, double d1, double t) {
  const double t2 = t * t;
  const double t3 = t2 * t;
  return (2.0 * t3 - 3.0 * t2 + 1.0) * s0 + (t3 - 2.0 * t2 + t) * d0 +
         (-2.0 * t3 + 3.0 * t2) * s1 + (t3 - t2) * d1;
}

/// Derivative with respect to t of the same cubic.
inline double deriv_t(double s0, double s1, double d0, double d1, double t) {
  const double t2 = t * t;
  return (6.0 * t2 - 6.0 * t) * s0 + (3.0 * t2 - 4.0 * t + 1.0) * d0 +
         (-6.0 * t2 + 6.0 * t) * s1 + (3.0 * t2 - 2.0 * t) * d1;
}

}  // namespace hermite

/// The "traditional interpolation table" (paper Fig. 5, as in LAMMPS/CoMD):
/// one row of 7 coefficients per segment — columns 3-6 the cubic value
/// polynomial, columns 0-2 its derivative polynomial. At 5000 segments of
/// doubles this is ~273 KB, which does NOT fit a 64 KB local store, forcing a
/// DMA per lookup on the slave cores.
class CoefficientTable {
 public:
  using Row = std::array<double, 7>;
  static constexpr int kDefaultSegments = 5000;

  /// Sample `f` uniformly over [x_min, x_max] and build segment coefficients
  /// via the 5-point-stencil Hermite construction.
  static CoefficientTable build(const std::function<double(double)>& f,
                                double x_min, double x_max,
                                int segments = kDefaultSegments);

  double x_min() const { return x_min_; }
  double x_max() const { return x_max_; }
  int segments() const { return static_cast<int>(rows_.size()); }
  double dx() const { return dx_; }

  /// Segment index for x (clamped into range).
  int segment_of(double x) const;
  /// Normalized parameter t in [0,1] within segment i.
  double param(double x, int i) const { return x / dx_ - x_min_ / dx_ - i; }

  const Row& row(int i) const { return rows_[static_cast<std::size_t>(i)]; }
  const Row* data() const { return rows_.data(); }

  double value(double x) const;
  double derivative(double x) const;

  /// Evaluate from an externally fetched row (the slave-core DMA path).
  static double eval_value(const Row& r, double t) {
    return ((r[3] * t + r[4]) * t + r[5]) * t + r[6];
  }
  static double eval_derivative(const Row& r, double t, double dx) {
    return ((r[0] * t + r[1]) * t + r[2]) / dx;
  }

  std::size_t bytes() const { return rows_.size() * sizeof(Row); }

 private:
  friend class CompactTable;
  double x_min_ = 0.0, x_max_ = 1.0, dx_ = 1.0;
  std::vector<Row> rows_;
};

/// The paper's compacted interpolation table: only the sampled values are
/// staged (segments+1 doubles, ~39 KB for 5000 segments — 1/7 of the
/// traditional table, small enough to be resident in the local store). A
/// staged copy rebuilds the two node derivatives of each lookup from a
/// 6-sample window with the same stencil (`eval_window`), trading a little
/// extra arithmetic for far fewer DMA transfers (paper §2.1.2).
///
/// The master core has no local store to fit, so the table also keeps a
/// plane of those node derivatives, computed once in build(): a host lookup
/// reads s[i], s[i+1], d[i], d[i+1]. The plane holds the stencil expression
/// over the same clamped samples, so host and staged lookups give the same
/// bits. bytes() counts the samples only: it is the staged footprint.
///
/// The evaluators are inline: force and rate kernels call them per pair, and
/// an out-of-line call per lookup cost about as much as the arithmetic.
class CompactTable {
 public:
  static CompactTable build(const std::function<double(double)>& f, double x_min,
                            double x_max,
                            int segments = CoefficientTable::kDefaultSegments);

  double x_min() const { return x_min_; }
  double x_max() const { return x_max_; }
  int segments() const { return static_cast<int>(samples_.size()) - 1; }
  double dx() const { return dx_; }
  double xmin_over_dx() const { return xmin_over_dx_; }

  int segment_of(double x) const {
    const int i = static_cast<int>((x - x_min_) / dx_);
    return std::clamp(i, 0, segments() - 1);
  }
  double param(double x, int i) const { return x / dx_ - xmin_over_dx_ - i; }

  const double* samples() const { return samples_.data(); }
  std::int64_t num_samples() const { return static_cast<std::int64_t>(samples_.size()); }
  /// The host node-derivative plane, one entry per sample (read-only).
  const double* node_derivatives() const { return node_derivs_.data(); }

  double value(double x) const {
    double v;
    eval(x, &v, nullptr);
    return v;
  }
  double derivative(double x) const {
    double d;
    eval(x, nullptr, &d);
    return d;
  }
  void eval(double x, double* value, double* derivative) const {
    const int i = segment_of(x);
    eval_segment(i, param(x, i), value, derivative);
  }

  /// Evaluate segment i (as segment_of returns it) at parameter t from the
  /// samples and the host node-derivative plane.
  void eval_segment(int i, double t, double* value, double* derivative) const {
    const auto k = static_cast<std::size_t>(i);
    const double s0 = samples_[k], s1 = samples_[k + 1];
    const double d0 = node_derivs_[k], d1 = node_derivs_[k + 1];
    if (value) *value = hermite::value(s0, s1, d0, d1, t);
    if (derivative) *derivative = hermite::deriv_t(s0, s1, d0, d1, t) / dx_;
  }

  /// Evaluate segment i from a caller-supplied window of the 6 samples with
  /// nominal indices [i-2, i+3]; at table edges the out-of-range slots must
  /// hold the clamped (edge-replicated) samples, exactly as `window_indices`
  /// prescribes. This is the on-the-fly path used when the samples were
  /// DMA-fetched to a local store.
  static void eval_window(const double window[6], double t, double dx,
                          double* value, double* derivative) {
    // window nominal layout: [i-2, i-1, i, i+1, i+2, i+3] (edge-clamped).
    // Node derivatives at i and i+1 from the paper's 5-point stencil.
    const double d0 =
        (window[0] - window[4] + 8.0 * (window[3] - window[1])) / 12.0;
    const double d1 =
        (window[1] - window[5] + 8.0 * (window[4] - window[2])) / 12.0;
    if (value) *value = hermite::value(window[2], window[3], d0, d1, t);
    if (derivative) {
      *derivative = hermite::deriv_t(window[2], window[3], d0, d1, t) / dx;
    }
  }

  /// The 6 (clamped) sample indices needed to evaluate segment i.
  static void window_indices(std::int64_t i, std::int64_t num_samples,
                             std::int64_t out[6]) {
    for (std::int64_t k = 0; k < 6; ++k) {
      out[k] = std::clamp<std::int64_t>(i - 2 + k, 0, num_samples - 1);
    }
  }

  /// Expand this table into the equivalent traditional coefficient table.
  CoefficientTable to_coefficients() const;

  /// Bytes a staged copy occupies: the samples, not the host plane.
  std::size_t bytes() const { return samples_.size() * sizeof(double); }

 private:
  double x_min_ = 0.0, x_max_ = 1.0, dx_ = 1.0;
  double xmin_over_dx_ = 0.0;
  std::vector<double> samples_;
  std::vector<double> node_derivs_;  ///< hermite::node_derivative per sample
};

}  // namespace mmd::pot
