#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "potential/eam.h"
#include "potential/setfl.h"

namespace mmd::pot {
namespace {

constexpr double kA = 2.855;
constexpr double kCut = 5.0;

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

TEST(EamModel, IronBasicProperties) {
  const EamModel fe = EamModel::iron(kA, kCut);
  EXPECT_EQ(fe.num_species(), 1);
  EXPECT_DOUBLE_EQ(fe.cutoff(), kCut);
  // Pair potential has its minimum near the 1NN distance.
  const double r0 = fe.species(0).r0;
  EXPECT_NEAR(fe.dphi(0, 0, r0), 0.0, 1e-9);
  EXPECT_LT(fe.phi(0, 0, r0), 0.0);
  // Repulsive wall at short range.
  EXPECT_GT(fe.phi(0, 0, 1.5), 0.0);
  EXPECT_LT(fe.dphi(0, 0, 1.5), 0.0);
}

TEST(EamModel, SmoothCutoff) {
  const EamModel fe = EamModel::iron(kA, kCut);
  EXPECT_DOUBLE_EQ(fe.phi(0, 0, kCut), 0.0);
  EXPECT_DOUBLE_EQ(fe.f(0, 0, kCut), 0.0);
  EXPECT_DOUBLE_EQ(fe.dphi(0, 0, kCut), 0.0);
  EXPECT_NEAR(fe.phi(0, 0, kCut - 1e-6), 0.0, 1e-9);
}

TEST(EamModel, PairDerivativeMatchesFiniteDifference) {
  const EamModel fe = EamModel::iron(kA, kCut);
  const double eps = 1e-7;
  for (double r = 1.5; r < 4.9; r += 0.2) {
    const double fd = (fe.phi(0, 0, r + eps) - fe.phi(0, 0, r - eps)) / (2 * eps);
    ASSERT_NEAR(fe.dphi(0, 0, r), fd, 1e-5) << r;
    const double fdf = (fe.f(0, 0, r + eps) - fe.f(0, 0, r - eps)) / (2 * eps);
    ASSERT_NEAR(fe.df(0, 0, r), fdf, 1e-5) << r;
  }
}

TEST(EamModel, EmbeddingDerivative) {
  const EamModel fe = EamModel::iron(kA, kCut);
  const double rho_e = fe.species(0).rho_e;
  const double eps = 1e-7;
  for (double rho = 0.1 * rho_e; rho < 1.8 * rho_e; rho += 0.1 * rho_e) {
    const double fd =
        (fe.embed(0, rho + eps) - fe.embed(0, rho - eps)) / (2 * eps);
    ASSERT_NEAR(fe.dembed(0, rho), fd, 1e-5) << rho;
  }
  // Finite at rho -> 0 (quadratic extension).
  EXPECT_TRUE(std::isfinite(fe.dembed(0, 0.0)));
  EXPECT_TRUE(std::isfinite(fe.embed(0, 0.0)));
  EXPECT_NEAR(fe.embed(0, 0.0), 0.0, 1e-12);
}

TEST(EamModel, EmbeddingContinuousAtSplice) {
  const EamModel fe = EamModel::iron(kA, kCut);
  const double rho_min = 1e-3 * fe.species(0).rho_e;
  EXPECT_NEAR(fe.embed(0, rho_min * (1 - 1e-9)), fe.embed(0, rho_min * (1 + 1e-9)),
              1e-9);
  EXPECT_NEAR(fe.dembed(0, rho_min * (1 - 1e-9)),
              fe.dembed(0, rho_min * (1 + 1e-9)), 1e-6);
}

TEST(EamModel, CalibratedPerfectRho) {
  const EamModel fe = EamModel::iron(kA, kCut);
  // rho_e is calibrated to the perfect-BCC host density.
  EXPECT_NEAR(fe.species(0).rho_e, fe.perfect_rho(0, kA), 1e-12);
  EXPECT_GT(fe.species(0).rho_e, 1.0);
  // Perfect-lattice embedding is exactly -E_emb.
  EXPECT_NEAR(fe.embed(0, fe.perfect_rho(0, kA)), -fe.species(0).emb_E, 1e-12);
}

TEST(EamModel, IronCopperAlloyIsSymmetric) {
  const EamModel alloy = EamModel::iron_copper(kA, kCut);
  EXPECT_EQ(alloy.num_species(), 2);
  for (double r = 2.0; r < 4.5; r += 0.31) {
    EXPECT_DOUBLE_EQ(alloy.phi(0, 1, r), alloy.phi(1, 0, r));
    EXPECT_DOUBLE_EQ(alloy.f(0, 1, r), alloy.f(1, 0, r));
  }
  // Cross interaction differs from both pures.
  EXPECT_NE(alloy.phi(0, 1, 2.5), alloy.phi(0, 0, 2.5));
  EXPECT_NE(alloy.phi(0, 1, 2.5), alloy.phi(1, 1, 2.5));
}

TEST(EamTableSet, IronHasThreeTables) {
  const EamModel fe = EamModel::iron(kA, kCut);
  const EamTableSet t = EamTableSet::build(fe, 5000);
  EXPECT_EQ(t.num_species, 1);
  EXPECT_EQ(t.pairs.size(), 1u);
  EXPECT_EQ(t.embed.size(), 1u);
  // Table sizes match the paper: each compact table ~39 KB, traditional 273 KB.
  EXPECT_LT(t.phi(0, 0).bytes(), 40u * 1024u);
  EXPECT_GT(t.phi_trad.bytes(), 64u * 1024u);
}

TEST(EamTableSet, TablesMatchAnalyticModel) {
  const EamModel fe = EamModel::iron(kA, kCut);
  const EamTableSet t = EamTableSet::build(fe, 5000);
  for (double r = 1.2; r < 5.0; r += 0.0531) {
    ASSERT_NEAR(t.phi(0, 0).value(r), fe.phi(0, 0, r), 1e-8) << r;
    ASSERT_NEAR(t.f(0, 0).value(r), fe.f(0, 0, r), 1e-8) << r;
    ASSERT_NEAR(t.phi(0, 0).derivative(r), fe.dphi(0, 0, r), 1e-6) << r;
  }
  const double rho_e = fe.species(0).rho_e;
  for (double rho = 0.05 * rho_e; rho < 1.9 * rho_e; rho += 0.07 * rho_e) {
    ASSERT_NEAR(t.embed_of(0).value(rho), fe.embed(0, rho), 1e-8) << rho;
  }
}

TEST(EamTableSet, AlloyHasEightTables) {
  // Paper §2.1.2: Fe-Cu needs pair+density for Fe-Fe, Cu-Cu, Fe-Cu plus two
  // embedding tables; their combined compact size exceeds the 64 KB store.
  const EamModel alloy = EamModel::iron_copper(kA, kCut);
  const EamTableSet t = EamTableSet::build(alloy, 5000);
  EXPECT_EQ(t.pairs.size(), 3u);
  EXPECT_EQ(t.embed.size(), 2u);
  EXPECT_GT(t.compact_bytes(), 64u * 1024u);
  EXPECT_EQ(t.pair_index(0, 1), t.pair_index(1, 0));
}

TEST(EamTableSet, TraditionalFormsAgreeWithCompact) {
  const EamModel fe = EamModel::iron(kA, kCut);
  const EamTableSet t = EamTableSet::build(fe, 2000);
  for (double r = 1.1; r < 5.0; r += 0.077) {
    ASSERT_NEAR(t.phi_trad.value(r), t.phi(0, 0).value(r), 1e-12);
    ASSERT_NEAR(t.f_trad.derivative(r), t.f(0, 0).derivative(r), 1e-10);
  }
}

TEST(EamTableSet, PairTablesShareOneGrid) {
  // PairTables::derivatives takes phi' and f' from one segment lookup, which
  // is exact only while every pair's phi and f sit on the same grid. Pinned
  // for both builders, and the fused lookup checked against the two
  // separate ones across the whole domain and past its edges (see differs).
  const EamModel fe = EamModel::iron(kA, kCut);
  const EamModel fecu = EamModel::iron_copper(kA, kCut);
  const std::vector<EamTableSet> sets = {
      EamTableSet::build(fe, 5000), EamTableSet::build(fecu, 1500),
      tables_from_setfl(setfl_from_model(fecu, {"Fe", "Cu"}, 1500, 1000), 1000)};
  for (const EamTableSet& t : sets) {
    for (int i = 0; i < t.num_species; ++i) {
      for (int j = 0; j < t.num_species; ++j) {
        const EamTableSet::PairTables& p = t.pair(i, j);
        EXPECT_EQ(p.phi.x_min(), p.f.x_min());
        EXPECT_EQ(p.phi.dx(), p.f.dx());
        EXPECT_EQ(p.phi.segments(), p.f.segments());
        int mismatches = 0;
        for (double r = t.r_min - 0.2; r < t.cutoff + 0.2; r += 0.00731) {
          double dphi = 0.0, df = 0.0;
          p.derivatives(r, &dphi, &df);
          if (differs(dphi, p.phi.derivative(r)) || differs(df, p.f.derivative(r))) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << "pair (" << i << ", " << j << ")";
      }
    }
  }
}

/// A lookup the way a staged copy does it: the clamped 6-sample window of
/// the segment and the stencil rebuilt per call, with x_min/dx recomputed.
void window_eval(const CompactTable& t, double x, double* value, double* derivative) {
  const int i = t.segment_of(x);
  std::int64_t idx[6];
  CompactTable::window_indices(i, t.num_samples(), idx);
  double w[6];
  for (int k = 0; k < 6; ++k) w[k] = t.samples()[idx[k]];
  const double param = x / t.dx() - t.x_min() / t.dx() - i;
  CompactTable::eval_window(w, param, t.dx(), value, derivative);
}

TEST(EamTableSet, HostPlaneMatchesWindowRebuild) {
  // Host lookups read each table's node-derivative plane; staged copies
  // rebuild the same node derivatives per lookup. Every table of Fe and
  // Fe-Cu sets from 10 to 5000 segments (at 10, 4 of 11 nodes take the
  // clamped edge stencil) and of a setfl set, swept from 5% below x_min to
  // 5% above x_max and through every node, must agree (see differs).
  const EamModel fe = EamModel::iron(kA, kCut);
  const EamModel fecu = EamModel::iron_copper(kA, kCut);
  std::vector<EamTableSet> sets;
  for (int segments : {10, 400, 2000, 5000}) {
    sets.push_back(EamTableSet::build(fe, segments));
    sets.push_back(EamTableSet::build(fecu, segments));
  }
  sets.push_back(
      tables_from_setfl(setfl_from_model(fecu, {"Fe", "Cu"}, 1500, 1000), 1000));

  int mismatches = 0;
  std::int64_t lookups = 0;
  auto sweep = [&](const CompactTable& t, auto&& check) {
    const double span = t.x_max() - t.x_min();
    const double lo = t.x_min() - 0.05 * span;
    const int steps = 4 * t.segments() + 41;
    const double h = 1.1 * span / steps;
    for (int k = 0; k <= steps; ++k) check(lo + k * h);
    for (int i = 0; i <= t.segments(); ++i) check(t.x_min() + i * t.dx());
  };
  auto check_table = [&](const CompactTable& t) {
    sweep(t, [&](double x) {
      double v = 0.0, d = 0.0, wv = 0.0, wd = 0.0;
      t.eval(x, &v, &d);
      window_eval(t, x, &wv, &wd);
      if (differs(v, wv) || differs(d, wd) || differs(t.value(x), wv) ||
          differs(t.derivative(x), wd)) {
        ++mismatches;
      }
      ++lookups;
    });
  };
  for (const EamTableSet& set : sets) {
    for (const EamTableSet::PairTables& p : set.pairs) {
      check_table(p.phi);
      check_table(p.f);
      sweep(p.phi, [&](double r) {
        double dphi = 0.0, df = 0.0, wdphi = 0.0, wdf = 0.0;
        p.derivatives(r, &dphi, &df);
        window_eval(p.phi, r, nullptr, &wdphi);
        window_eval(p.f, r, nullptr, &wdf);
        if (differs(dphi, wdphi) || differs(df, wdf)) ++mismatches;
        ++lookups;
      });
    }
    for (const CompactTable& e : set.embed) check_table(e);
  }
  EXPECT_GT(lookups, 500000);
  EXPECT_EQ(mismatches, 0) << "of " << lookups << " lookups";
}

}  // namespace
}  // namespace mmd::pot
