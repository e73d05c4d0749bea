#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "potential/spline.h"
#include "potential/table_access.h"
#include "sunway/dma.h"
#include "sunway/local_store.h"

namespace mmd::pot {
namespace {

double cubic(double x) { return 2.0 * x * x * x - x * x + 3.0 * x - 5.0; }
double dcubic(double x) { return 6.0 * x * x - 2.0 * x + 3.0; }

/// Two evaluations of the same Hermite segment that must agree bit for bit,
/// unless the build contracts a*b+c into FMA (e.g. -march=x86-64-v3), where
/// differently inlined call sites may round differently.
bool differs(double a, double b) {
#if defined(__FMA__)
  return std::abs(a - b) > 1e-12 * std::max(1.0, std::abs(b));
#else
  return a != b;
#endif
}

TEST(CompactTable, SizesMatchPaper) {
  auto t = CompactTable::build([](double x) { return x; }, 0.0, 1.0, 5000);
  // 5001 samples * 8 B ~ 39 KB.
  EXPECT_EQ(t.bytes(), 5001u * sizeof(double));
  EXPECT_LT(t.bytes(), 40u * 1024u);
  auto trad = t.to_coefficients();
  // 5000 rows * 7 doubles ~ 273 KB.
  EXPECT_EQ(trad.bytes(), 5000u * 7u * sizeof(double));
  EXPECT_GT(trad.bytes(), 64u * 1024u);
  EXPECT_NEAR(static_cast<double>(trad.bytes()) / static_cast<double>(t.bytes()),
              7.0, 0.01);
}

TEST(CompactTable, ReproducesCubicNearlyExactly) {
  // The 5-point stencil derivative is exact for cubics (away from edges), so
  // interior interpolation reproduces a cubic to machine precision.
  auto t = CompactTable::build(cubic, 0.0, 2.0, 100);
  for (double x = 0.1; x < 1.9; x += 0.0137) {
    EXPECT_NEAR(t.value(x), cubic(x), 1e-10) << x;
    EXPECT_NEAR(t.derivative(x), dcubic(x), 1e-8) << x;
  }
}

TEST(CompactTable, InterpolatesExactAtNodes) {
  auto f = [](double x) { return std::sin(3.0 * x); };
  auto t = CompactTable::build(f, 0.0, 1.0, 50);
  for (int i = 0; i <= 50; ++i) {
    const double x = i / 50.0;
    EXPECT_NEAR(t.value(x), f(x), 1e-12);
  }
}

TEST(CompactTable, SmoothFunctionAccuracy) {
  auto f = [](double x) { return std::exp(-x) * std::cos(2.0 * x); };
  auto t = CompactTable::build(f, 0.0, 5.0, 5000);
  for (double x = 0.01; x < 5.0; x += 0.0317) {
    ASSERT_NEAR(t.value(x), f(x), 1e-9) << x;
  }
}

TEST(TraditionalEqualsCompact, ValuesAndDerivatives) {
  auto f = [](double x) { return std::exp(-0.8 * x) + 0.1 * x * x; };
  auto compact = CompactTable::build(f, 0.5, 6.0, 777);
  auto trad = compact.to_coefficients();
  for (double x = 0.5; x <= 6.0; x += 0.0071) {
    ASSERT_NEAR(compact.value(x), trad.value(x), 1e-13) << x;
    ASSERT_NEAR(compact.derivative(x), trad.derivative(x), 1e-11) << x;
  }
  // Each row carries the stencil node derivative and the sample of its left
  // node, so the traditional table stays the paper's Fig. 5 construction.
  const std::int64_t n = compact.num_samples();
  for (int i = 0; i < trad.segments(); ++i) {
    ASSERT_EQ(trad.row(i)[5], hermite::node_derivative(compact.samples(), n, i)) << i;
    ASSERT_EQ(trad.row(i)[6], compact.samples()[i]) << i;
  }
}

TEST(CompactTable, ClampsOutOfRange) {
  auto t = CompactTable::build([](double x) { return x; }, 0.0, 1.0, 10);
  // Below/above range: clamped segment evaluation, no crash.
  EXPECT_NO_THROW(t.value(-0.5));
  EXPECT_NO_THROW(t.value(1.5));
  EXPECT_EQ(t.segment_of(-1.0), 0);
  EXPECT_EQ(t.segment_of(2.0), 9);
}

TEST(CompactTable, RejectsBadDomain) {
  EXPECT_THROW(CompactTable::build([](double x) { return x; }, 1.0, 1.0, 10),
               std::invalid_argument);
  EXPECT_THROW(CompactTable::build([](double x) { return x; }, 0.0, 1.0, 0),
               std::invalid_argument);
}

TEST(CompactTable, WindowIndicesClampAtEdges) {
  std::int64_t idx[6];
  CompactTable::window_indices(0, 11, idx);
  EXPECT_EQ(idx[0], 0);
  EXPECT_EQ(idx[1], 0);
  EXPECT_EQ(idx[2], 0);
  EXPECT_EQ(idx[3], 1);
  CompactTable::window_indices(9, 11, idx);
  EXPECT_EQ(idx[5], 10);
}

TEST(Hermite, StencilMatchesPaperFormula) {
  // Paper Fig. 5: L[5,2] = (S[0] - S[4] + 8*(S[3] - S[1])) / 12 — the
  // centered 5-point derivative at node 2 of samples 0..4.
  const double s[5] = {1.0, 2.0, 4.0, 7.0, 11.0};
  const double expected = (s[0] - s[4] + 8.0 * (s[3] - s[1])) / 12.0;
  EXPECT_DOUBLE_EQ(hermite::node_derivative(s, 5, 2), expected);
}

TEST(Hermite, ValueEndpoints) {
  EXPECT_DOUBLE_EQ(hermite::value(3.0, 7.0, 1.0, -2.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(hermite::value(3.0, 7.0, 1.0, -2.0, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(hermite::deriv_t(3.0, 7.0, 1.0, -2.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(hermite::deriv_t(3.0, 7.0, 1.0, -2.0, 1.0), -2.0);
}

TEST(CompactTable, DerivativeMatchesFiniteDifference) {
  auto f = [](double x) { return 1.0 / (x * x) - std::exp(-x); };
  auto t = CompactTable::build(f, 0.8, 5.0, 2000);
  const double eps = 1e-6;
  for (double x = 1.0; x < 4.8; x += 0.173) {
    const double fd = (t.value(x + eps) - t.value(x - eps)) / (2 * eps);
    ASSERT_NEAR(t.derivative(x), fd, 1e-5 * std::max(1.0, std::abs(fd))) << x;
  }
}

TEST(TableAccess, ResidentCompactUsesOneDma) {
  auto t = CompactTable::build([](double x) { return x * x; }, 0.0, 1.0, 1000);
  sw::LocalStore store(16 * 1024);
  sw::DmaEngine dma;
  CompactTableAccess access(t, store, dma, true);
  ASSERT_TRUE(access.resident());
  EXPECT_EQ(dma.stats().get_ops, 1u);  // the bulk stage-in
  double v, d;
  for (double x = 0.05; x < 1.0; x += 0.09) {
    access.eval(x, &v, &d);
    ASSERT_FALSE(differs(v, t.value(x))) << x;
    ASSERT_FALSE(differs(d, t.derivative(x))) << x;
  }
  EXPECT_EQ(dma.stats().get_ops, 1u);  // no per-lookup DMA
}

TEST(TableAccess, NonResidentCompactFetchesWindows) {
  auto t = CompactTable::build([](double x) { return std::sin(x); }, 0.0, 3.0, 5000);
  sw::LocalStore store(1024);  // too small: 40 KB table cannot stage
  sw::DmaEngine dma;
  CompactTableAccess access(t, store, dma, true);
  EXPECT_FALSE(access.resident());
  double v, d;
  access.eval(1.5, &v, &d);
  EXPECT_EQ(dma.stats().get_ops, 1u);
  EXPECT_LE(dma.stats().get_bytes, 6u * sizeof(double));
  EXPECT_FALSE(differs(v, t.value(1.5)));
  EXPECT_FALSE(differs(d, t.derivative(1.5)));
  // Edge lookups also work (clamped windows).
  for (double x : {0.0, 3.0}) {
    access.eval(x, &v, &d);
    EXPECT_FALSE(differs(v, t.value(x))) << x;
    EXPECT_FALSE(differs(d, t.derivative(x))) << x;
  }
}

TEST(TableAccess, TraditionalAlwaysDmasPerLookup) {
  auto compact = CompactTable::build([](double x) { return x * x * x; }, 0.0, 1.0, 500);
  auto trad = compact.to_coefficients();
  sw::DmaEngine dma;
  CoefficientTableAccess access(trad, dma);
  double v, d;
  for (int i = 0; i < 10; ++i) {
    access.eval(0.05 + i * 0.09, &v, &d);
  }
  EXPECT_EQ(dma.stats().get_ops, 10u);
  EXPECT_EQ(dma.stats().get_bytes, 10u * 7u * sizeof(double));
  access.eval(0.5, &v, &d);
  EXPECT_NEAR(v, compact.value(0.5), 1e-13);
  EXPECT_NEAR(d, compact.derivative(0.5), 1e-11);
}

}  // namespace
}  // namespace mmd::pot
