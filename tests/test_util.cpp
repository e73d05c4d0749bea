#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"
#include "util/vec3.h"

namespace mmd::util {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-1.0, 0.5, 2.0};
  EXPECT_EQ(a + b, Vec3(0.0, 2.5, 5.0));
  EXPECT_EQ(a - b, Vec3(2.0, 1.5, 1.0));
  EXPECT_EQ(a * 2.0, Vec3(2.0, 4.0, 6.0));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, Vec3(-1.0, -2.0, -3.0));
  EXPECT_DOUBLE_EQ(a.dot(b), -1.0 + 1.0 + 6.0);
}

TEST(Vec3, NormAndDistance) {
  const Vec3 v{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(v.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec3{}, v), 5.0);
  EXPECT_DOUBLE_EQ(distance2(Vec3{1, 1, 1}, Vec3{1, 1, 1}), 0.0);
}

TEST(Vec3, CrossProduct) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0};
  EXPECT_EQ(x.cross(y), Vec3(0, 0, 1));
  EXPECT_EQ(y.cross(x), Vec3(0, 0, -1));
}

TEST(Vec3, Normalized) {
  const Vec3 v{0.0, 0.0, 7.5};
  EXPECT_EQ(v.normalized(), Vec3(0, 0, 1));
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});
}

TEST(Vec3, IndexAccess) {
  Vec3 v{1, 2, 3};
  EXPECT_DOUBLE_EQ(v[0], 1);
  EXPECT_DOUBLE_EQ(v[1], 2);
  EXPECT_DOUBLE_EQ(v[2], 3);
  v[1] = 9;
  EXPECT_DOUBLE_EQ(v.y, 9);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, SplitIsDeterministicPerStream) {
  // Two generators with the same seed derive identical streams for the same
  // stream id — the property that makes per-atom streams rank-independent
  // (every rank splits from a fresh generator seeded with the run seed).
  Rng a(7), b(7);
  Rng s1 = a.split(42);
  Rng s2 = b.split(42);
  EXPECT_EQ(s1.next_u64(), s2.next_u64());
}

TEST(Rng, DistinctStreams) {
  Rng a(7);
  Rng s1 = a.split(1), s2 = a.split(2);
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, UniformRange) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng r(5);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng r(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.03);
}

TEST(Rng, UnitVectorIsUnit) {
  Rng r(3);
  RunningStats sx;
  for (int i = 0; i < 20000; ++i) {
    const Vec3 v = r.unit_vector();
    ASSERT_NEAR(v.norm(), 1.0, 1e-12);
    sx.add(v.x);
  }
  EXPECT_NEAR(sx.mean(), 0.0, 0.02);  // isotropy (first moment)
}

TEST(Rng, UniformIndexBounds) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto k = r.uniform_index(7);
    ASSERT_LT(k, 7u);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 7u);  // all buckets hit
}

TEST(RunningStats, WelfordMatchesDirect) {
  RunningStats s;
  const double xs[] = {1.0, 2.0, 4.0, 8.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.75);
  EXPECT_NEAR(s.variance(), 9.583333333333334, 1e-12);
}

TEST(RunningStats, AddTracksMinMax) {
  // add() maintains min/max itself — there is no separate tracked variant to
  // forget to call.
  RunningStats s;
  s.add(-2.0);
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  RunningStats negatives;
  negatives.add(-3.0);
  EXPECT_DOUBLE_EQ(negatives.min(), -3.0);
  EXPECT_DOUBLE_EQ(negatives.max(), -3.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  const double xs[] = {1.0, 2.0, 4.0, 8.0, -1.0, 3.5};
  for (int i = 0; i < 6; ++i) {
    (i < 3 ? a : b).add(xs[i]);
    all.add(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());

  RunningStats empty;
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), all.count());
  empty.merge(a);  // adopt
  EXPECT_NEAR(empty.mean(), all.mean(), 1e-12);
}

TEST(Histogram, Totals) {
  Histogram h;
  h.add(1, 5);
  h.add(3, 2);
  h.add(10);
  EXPECT_EQ(h.total(), 8u);
  EXPECT_EQ(h.weighted_total(), 5 + 6 + 10);
  EXPECT_EQ(h.max_key(), 10);
  EXPECT_NEAR(h.mean_key(), 21.0 / 8.0, 1e-12);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, MedianAbsDeviation) {
  // xs = {1,2,3,4,100}: median 3, |xi - 3| = {2,1,0,1,97}, MAD = 1. The
  // outlier moves the MAD not at all — that robustness is why the bench
  // harness keys its noise gate on it.
  EXPECT_DOUBLE_EQ(median_abs_deviation({1.0, 2.0, 3.0, 4.0, 100.0}), 1.0);
  EXPECT_DOUBLE_EQ(median_abs_deviation({5.0, 5.0, 5.0}), 0.0);
  EXPECT_DOUBLE_EQ(median_abs_deviation({}), 0.0);
}

namespace {

double exact_quantile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double rank = p * (static_cast<double>(xs.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace

TEST(P2Quantile, RejectsOutOfRangeProbability) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2Quantile, ExactForFirstFiveSamples) {
  P2Quantile q(0.5);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);  // empty
  q.add(5.0);
  EXPECT_DOUBLE_EQ(q.value(), 5.0);
  q.add(1.0);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);  // nearest-rank on {1,3,5}
  q.add(2.0);
  q.add(4.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);  // exact median of {1..5}
}

TEST(P2Quantile, UniformStreamMatchesExactQuantiles) {
  Rng r(2024);
  std::vector<double> xs;
  P2Quantile p50(0.5), p95(0.95), p99(0.99);
  for (int i = 0; i < 20000; ++i) {
    const double x = r.uniform();
    xs.push_back(x);
    p50.add(x);
    p95.add(x);
    p99.add(x);
  }
  EXPECT_NEAR(p50.value(), exact_quantile(xs, 0.5), 0.01);
  EXPECT_NEAR(p95.value(), exact_quantile(xs, 0.95), 0.01);
  EXPECT_NEAR(p99.value(), exact_quantile(xs, 0.99), 0.01);
}

TEST(P2Quantile, ExponentialTailWithinRelativeTolerance) {
  // Heavy right tail — the case a mean-based summary hides and the p95/p99
  // markers are for. P² stays within a few percent of the exact quantile.
  Rng r(7);
  std::vector<double> xs;
  P2Quantile p50(0.5), p95(0.95), p99(0.99);
  for (int i = 0; i < 50000; ++i) {
    const double x = -std::log(1.0 - r.uniform());
    xs.push_back(x);
    p50.add(x);
    p95.add(x);
    p99.add(x);
  }
  EXPECT_NEAR(p50.value() / exact_quantile(xs, 0.5), 1.0, 0.05);
  EXPECT_NEAR(p95.value() / exact_quantile(xs, 0.95), 1.0, 0.05);
  EXPECT_NEAR(p99.value() / exact_quantile(xs, 0.99), 1.0, 0.05);
}

TEST(P2Quantile, AdversarialSortedStream) {
  // Monotone input is the classic P² stress case: every sample lands past the
  // last marker. The estimate must stay sane (within the data range and near
  // the true quantile for a linear ramp).
  P2Quantile p95(0.95);
  const int n = 10000;
  for (int i = 0; i < n; ++i) p95.add(static_cast<double>(i));
  EXPECT_GE(p95.value(), 0.0);
  EXPECT_LE(p95.value(), static_cast<double>(n - 1));
  EXPECT_NEAR(p95.value() / (0.95 * (n - 1)), 1.0, 0.02);

  P2Quantile p50(0.5);
  for (int i = n; i > 0; --i) p50.add(static_cast<double>(i));  // descending
  EXPECT_NEAR(p50.value() / (0.5 * n), 1.0, 0.05);
}

TEST(QuantileStats, ForwardsBaseAndTracksTails) {
  QuantileStats s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  EXPECT_NEAR(s.p50() / 500.0, 1.0, 0.05);
  EXPECT_NEAR(s.p95() / 950.0, 1.0, 0.05);
  EXPECT_NEAR(s.p99() / 990.0, 1.0, 0.05);
}

TEST(Units, ForceAccelConversionConsistency) {
  // 1 eV/(A*amu) in A/ps^2, and its inverse used for kinetic energy.
  EXPECT_NEAR(units::kForceToAccel * units::kVel2ToEnergy, 1.0, 1e-12);
  // kB at room temperature ~ 0.0259 eV / 300 K.
  EXPECT_NEAR(units::kBoltzmann * 300.0, 0.02585, 1e-4);
}

}  // namespace
}  // namespace mmd::util
