#include "potential/spline.h"

#include <algorithm>
#include <stdexcept>

namespace mmd::pot {

namespace hermite {

double node_derivative(const double* s, std::int64_t n, std::int64_t i) {
  auto at = [&](std::int64_t k) {
    return s[std::clamp<std::int64_t>(k, 0, n - 1)];
  };
  // The paper's Fig. 5 formula: (S[i-2] - S[i+2] + 8*(S[i+1] - S[i-1]))/12,
  // written here centered on node i.
  return (at(i - 2) - at(i + 2) + 8.0 * (at(i + 1) - at(i - 1))) / 12.0;
}

}  // namespace hermite

namespace {

void check_domain(double x_min, double x_max, int segments) {
  if (!(x_max > x_min) || segments < 1) {
    throw std::invalid_argument("spline table: need x_max > x_min and >= 1 segment");
  }
}

std::vector<double> sample(const std::function<double(double)>& f, double x_min,
                           double x_max, int segments) {
  std::vector<double> s(static_cast<std::size_t>(segments) + 1);
  const double dx = (x_max - x_min) / segments;
  for (int i = 0; i <= segments; ++i) {
    s[static_cast<std::size_t>(i)] = f(x_min + i * dx);
  }
  return s;
}

}  // namespace

CoefficientTable CoefficientTable::build(const std::function<double(double)>& f,
                                         double x_min, double x_max,
                                         int segments) {
  check_domain(x_min, x_max, segments);
  // Build through the compact form so the two representations are identical
  // by construction.
  return CompactTable::build(f, x_min, x_max, segments).to_coefficients();
}

int CoefficientTable::segment_of(double x) const {
  const int i = static_cast<int>((x - x_min_) / dx_);
  return std::clamp(i, 0, segments() - 1);
}

double CoefficientTable::value(double x) const {
  const int i = segment_of(x);
  return eval_value(rows_[static_cast<std::size_t>(i)], param(x, i));
}

double CoefficientTable::derivative(double x) const {
  const int i = segment_of(x);
  return eval_derivative(rows_[static_cast<std::size_t>(i)], param(x, i), dx_);
}

CompactTable CompactTable::build(const std::function<double(double)>& f,
                                 double x_min, double x_max, int segments) {
  check_domain(x_min, x_max, segments);
  CompactTable t;
  t.x_min_ = x_min;
  t.x_max_ = x_max;
  t.dx_ = (x_max - x_min) / segments;
  t.xmin_over_dx_ = x_min / t.dx_;
  t.samples_ = sample(f, x_min, x_max, segments);
  const std::int64_t n = t.num_samples();
  t.node_derivs_.resize(t.samples_.size());
  for (std::int64_t i = 0; i < n; ++i) {
    t.node_derivs_[static_cast<std::size_t>(i)] =
        hermite::node_derivative(t.samples_.data(), n, i);
  }
  return t;
}

CoefficientTable CompactTable::to_coefficients() const {
  CoefficientTable t;
  t.x_min_ = x_min_;
  t.x_max_ = x_max_;
  t.dx_ = dx_;
  t.rows_.resize(static_cast<std::size_t>(segments()));
  for (std::size_t i = 0; i < t.rows_.size(); ++i) {
    const double s0 = samples_[i];
    const double s1 = samples_[i + 1];
    const double d0 = node_derivs_[i];
    const double d1 = node_derivs_[i + 1];
    // Power basis: value = c3 t^3 + c4 t^2 + c5 t + c6.
    auto& r = t.rows_[i];
    r[3] = 2.0 * s0 - 2.0 * s1 + d0 + d1;
    r[4] = -3.0 * s0 + 3.0 * s1 - 2.0 * d0 - d1;
    r[5] = d0;
    r[6] = s0;
    // Derivative polynomial (columns 0-2), to be divided by dx at eval time.
    r[0] = 3.0 * r[3];
    r[1] = 2.0 * r[4];
    r[2] = r[5];
  }
  return t;
}

}  // namespace mmd::pot
