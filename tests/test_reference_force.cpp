// Deep physics checks of the EAM force engine: analytic dimer limits,
// force-energy consistency (F = -dE/dx by finite differences), and
// translational invariance. Plus bitwise oracles: the production passes
// (collect -> evaluate -> sum, cached F'(rho) plane, one table window per
// pair, vector and scalar evaluator) against frozen per-pair rho and force
// kernels on multi-rank Fe and Fe-Cu cascades, and the evaluate step alone
// against the scalar expressions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "lattice/ghost_exchange.h"
#include "md/engine.h"
#include "md/reference_force.h"
#include "telemetry/session.h"

namespace mmd::md {
namespace {

constexpr double kA = 2.855;

struct Crystal {
  MdConfig cfg;
  MdSetup setup;
  pot::EamTableSet tables;

  Crystal()
      : cfg(make_cfg()),
        setup(cfg, 1),
        tables(pot::EamTableSet::build(
            pot::EamModel::iron(kA, cfg.cutoff), cfg.table_segments)) {}

  static MdConfig make_cfg() {
    MdConfig c;
    c.nx = c.ny = c.nz = 6;
    c.temperature = 0.0;
    c.table_segments = 2000;
    return c;
  }
};

/// Total potential energy after refreshing rho (serial, periodic).
double energy_of(Crystal& x, lat::LatticeNeighborList& lnl,
                 lat::GhostExchange& ghosts, comm::Comm& comm) {
  ReferenceForce force(x.tables);
  ghosts.exchange(comm);
  force.compute_rho(lnl);
  ghosts.exchange_rho(comm);
  return force.potential_energy(lnl);
}

TEST(ReferenceForce, CohesiveEnergyIsNegative) {
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lnl.fill_perfect(lat::Species::Fe);
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    const double e = energy_of(x, lnl, ghosts, comm);
    const double per_atom = e / static_cast<double>(x.setup.geo.num_sites());
    // Bound crystal: negative cohesive energy of a few eV per atom.
    EXPECT_LT(per_atom, -0.5);
    EXPECT_GT(per_atom, -20.0);
  });
}

TEST(ReferenceForce, ForceMatchesEnergyGradient) {
  // Displace one atom along x and compare -dE/dx (finite difference of the
  // total energy) with the computed force component.
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    ReferenceForce force(x.tables);
    const std::size_t idx = lnl.box().entry_index({3, 3, 3, 0});

    auto energy_at = [&](double dx) {
      lnl.fill_perfect(lat::Species::Fe);
      lnl.entry(idx).r += util::Vec3{0.2 + dx, 0.1, -0.15};
      return energy_of(x, lnl, ghosts, comm);
    };
    const double h = 1e-5;
    const double dEdx = (energy_at(h) - energy_at(-h)) / (2.0 * h);

    lnl.fill_perfect(lat::Species::Fe);
    lnl.entry(idx).r += util::Vec3{0.2, 0.1, -0.15};
    ghosts.exchange(comm);
    force.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    force.compute_forces(lnl);
    EXPECT_NEAR(lnl.entry(idx).f.x, -dEdx, 5e-4 * std::max(1.0, std::abs(dEdx)));
  });
}

TEST(ReferenceForce, NewtonsThirdLawForPerturbedPair) {
  // Perturb two atoms; the force changes they induce on each other must be
  // equal and opposite (full-loop symmetry check via total-force sum).
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lnl.fill_perfect(lat::Species::Fe);
    lnl.entry(lnl.box().entry_index({2, 2, 2, 0})).r += util::Vec3{0.3, 0, 0};
    lnl.entry(lnl.box().entry_index({3, 3, 3, 1})).r += util::Vec3{0, -0.25, 0.1};
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    ReferenceForce force(x.tables);
    ghosts.exchange(comm);
    force.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    force.compute_forces(lnl);
    util::Vec3 total{};
    for (std::size_t i : lnl.owned_indices()) {
      if (lnl.entry(i).is_atom()) total += lnl.entry(i).f;
    }
    EXPECT_NEAR(total.norm(), 0.0, 1e-8);
  });
}

TEST(ReferenceForce, TranslationalInvariance) {
  // Shifting every atom by the same vector (mod the box) leaves energy and
  // force magnitudes unchanged.
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);

    lnl.fill_perfect(lat::Species::Fe);
    const std::size_t probe = lnl.box().entry_index({3, 3, 3, 0});
    lnl.entry(probe).r += util::Vec3{0.3, 0.2, 0.1};
    const double e0 = energy_of(x, lnl, ghosts, comm);

    lnl.fill_perfect(lat::Species::Fe);
    const util::Vec3 shift{0.4, -0.7, 1.1};
    for (std::size_t i : lnl.owned_indices()) lnl.entry(i).r += shift;
    lnl.entry(probe).r += util::Vec3{0.3, 0.2, 0.1};
    const double e1 = energy_of(x, lnl, ghosts, comm);
    EXPECT_NEAR(e0, e1, 1e-7 * std::abs(e0));
  });
}

TEST(ReferenceForce, DimerForceIsRadialAndAntisymmetric) {
  // A perturbed 1NN pair: force difference lies along the pair axis.
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lnl.fill_perfect(lat::Species::Fe);
    const std::size_t a = lnl.box().entry_index({3, 3, 3, 0});
    const std::size_t b = lnl.box().entry_index({3, 3, 3, 1});
    // Compress the pair along its axis.
    const util::Vec3 axis = (lnl.entry(b).r - lnl.entry(a).r).normalized();
    lnl.entry(a).r += axis * 0.2;
    lnl.entry(b).r -= axis * 0.2;
    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    ReferenceForce force(x.tables);
    ghosts.exchange(comm);
    force.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    force.compute_forces(lnl);
    const util::Vec3 fa = lnl.entry(a).f;
    const util::Vec3 fb = lnl.entry(b).f;
    // By the symmetry of the compressed configuration, f_a = -f_b and both
    // point outward along the axis (repulsive at compression).
    EXPECT_NEAR((fa + fb).norm(), 0.0, 1e-8);
    EXPECT_LT(fa.dot(axis), 0.0);
    EXPECT_GT(fb.dot(axis), 0.0);
    // Radial: no component orthogonal to the axis.
    EXPECT_NEAR(fa.cross(axis).norm(), 0.0, 1e-8);
  });
}

/// Two evaluations that must agree bit for bit, unless the build contracts
/// a*b+c into FMA (e.g. -march=x86-64-v3): there this file's frozen kernels
/// and the library's scalar evaluator fuse where the vector evaluator, built
/// without FMA, does not (the convention of test_eam.cpp).
bool differs(double a, double b) {
#if defined(__FMA__)
  return std::abs(a - b) > 1e-12 * std::max(1.0, std::abs(b));
#else
  return a != b;
#endif
}

bool differs(const util::Vec3& a, const util::Vec3& b) {
  return differs(a.x, b.x) || differs(a.y, b.y) || differs(a.z, b.z);
}

/// Frozen per-pair EAM density kernel: one table lookup per pair, summed in
/// visit order.
template <typename Visit>
double per_pair_rho(const pot::EamTableSet& tables, const util::Vec3& r0,
                    int t0, Visit&& visit) {
  const double cut2 = tables.cutoff * tables.cutoff;
  double rho = 0.0;
  visit([&](const lat::ParticleView& p) {
    const double r2 = (p.r - r0).norm2();
    if (r2 > cut2) return;
    const double r = std::max(std::sqrt(r2), tables.r_min);
    rho += tables.f(t0, static_cast<int>(p.type)).value(r);
  });
  return rho;
}

/// Frozen per-pair EAM force kernel: phi' and f' from two separate table
/// lookups, and the neighbour's F'(rho_j) evaluated for every pair. The
/// production kernel caches F'(rho) per particle and shares one window
/// between phi' and f'; both must give the same bits.
template <typename Visit>
util::Vec3 per_pair_force(const pot::EamTableSet& tables, const util::Vec3& r0,
                          int t0, double rho0, Visit&& visit) {
  const double cut2 = tables.cutoff * tables.cutoff;
  const double r_min = tables.r_min;
  const double fp0 = tables.embed_of(t0).derivative(rho0);
  util::Vec3 force;
  visit([&](const lat::ParticleView& p) {
    const util::Vec3 d = p.r - r0;
    const double r2 = d.norm2();
    if (r2 > cut2 || r2 == 0.0) return;
    const double r = std::max(std::sqrt(r2), r_min);
    const int t1 = static_cast<int>(p.type);
    double dphi, df;
    tables.phi(t0, t1).eval(r, nullptr, &dphi);
    tables.f(t0, t1).eval(r, nullptr, &df);
    const double fp1 = tables.embed_of(t1).derivative(p.rho);
    const double scale = (dphi + (fp0 + fp1) * df) / r;
    force += d * scale;
  });
  return force;
}

/// Mismatches of one evaluator against the frozen kernels.
struct Mismatches {
  std::size_t rho = 0, force = 0;
};

struct OracleTally {
  std::size_t compared = 0, runaways_compared = 0, ghost_chain_nodes = 0;
  std::size_t solutes = 0;
  Mismatches engine;  ///< the engine's ReferenceForce (AVX2 where supported)
  Mismatches scalar;  ///< a ReferenceForce with the vector unit off
};

/// Counts a mismatch of one particle's rho and force against the frozen
/// kernels' values.
template <typename Particle>
void tally(Mismatches& m, const Particle& p, double rho, const util::Vec3& f) {
  if (differs(p.rho, rho)) ++m.rho;
  if (differs(p.f, f)) ++m.force;
}

/// Two 80 eV knock-ons, one beside the centre planes where 2- and 4-rank
/// decompositions cut the box and one beside the periodic faces, so that
/// after a few steps run-aways exist and their ghost chains carry rho on
/// every rank count. After every step the engine's rho and force on every
/// owned entry and owned run-away are compared with the frozen kernels',
/// evaluated on the same positions (the forces on the same exchanged rho).
/// The engine's ReferenceForce runs its vector evaluator where the CPU has
/// AVX2; a second one with the vector unit off recomputes rho and forces on
/// a copy of the engine's lattice, whose ghosts carry the engine's exchanged
/// rho, so the scalar evaluator is checked on the same states.
/// `solute` > 0 runs Fe-Cu tables with that Cu fraction seeded.
OracleTally run_cascade_oracle(int nranks, double solute, int steps) {
  MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.temperature = 600.0;
  cfg.table_segments = 2000;
  const MdSetup setup(cfg, nranks);
  const pot::EamModel model =
      solute > 0.0 ? pot::EamModel::iron_copper(cfg.lattice_constant, cfg.cutoff)
                   : pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff);
  const auto tables = pot::EamTableSet::build(model, cfg.table_segments);

  std::mutex m;
  OracleTally total;
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
    ReferenceForce scalar(tables);
    scalar.set_simd(false);
    engine.initialize(comm);
    if (solute > 0.0) engine.seed_solutes(comm, solute);
    engine.inject_pka(comm, setup.geo.site_id({3, 3, 3, 1}),
                      util::Vec3{1.0, 0.6, 0.3}, 80.0);
    engine.inject_pka(comm, setup.geo.site_id({7, 0, 7, 1}),
                      util::Vec3{0.4, -1.0, 0.7}, 80.0);
    OracleTally t;
    for (int s = 0; s < steps; ++s) {
      engine.step(comm);
      const lat::LatticeNeighborList& lnl = engine.lattice();
      lat::LatticeNeighborList copy = lnl;
      scalar.compute_rho(copy);
      scalar.compute_forces(copy);
      for (std::size_t idx : lnl.owned_indices()) {
        const lat::AtomEntry& e = lnl.entry(idx);
        if (!e.is_atom()) continue;
        auto visit = [&](auto&& v) { lnl.for_each_neighbor_of_entry(idx, v); };
        const int type = static_cast<int>(e.type);
        ++t.compared;
        if (e.type != lat::Species::Fe) ++t.solutes;
        const double rho = per_pair_rho(tables, e.r, type, visit);
        const util::Vec3 f = per_pair_force(tables, e.r, type, e.rho, visit);
        tally(t.engine, e, rho, f);
        tally(t.scalar, copy.entry(idx), rho, f);
      }
      lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t host) {
        const lat::RunawayAtom& a = lnl.runaway(ri);
        auto visit = [&](auto&& v) { lnl.for_each_neighbor_of_runaway(ri, host, v); };
        const int type = static_cast<int>(a.type);
        ++t.runaways_compared;
        const double rho = per_pair_rho(tables, a.r, type, visit);
        const util::Vec3 f = per_pair_force(tables, a.r, type, a.rho, visit);
        tally(t.engine, a, rho, f);
        tally(t.scalar, copy.runaway(ri), rho, f);
      });
      for (std::size_t idx : lnl.ghost_indices()) {
        for (std::int32_t ri = lnl.entry(idx).runaway_head;
             ri != lat::AtomEntry::kNoRunaway; ri = lnl.runaway(ri).next) {
          if (lnl.runaway(ri).rho > 0.0) ++t.ghost_chain_nodes;
        }
      }
    }
    std::lock_guard lk(m);
    total.compared += t.compared;
    total.runaways_compared += t.runaways_compared;
    total.ghost_chain_nodes += t.ghost_chain_nodes;
    total.solutes += t.solutes;
    total.engine.rho += t.engine.rho;
    total.engine.force += t.engine.force;
    total.scalar.rho += t.scalar.rho;
    total.scalar.force += t.scalar.force;
  });
  EXPECT_EQ(total.compared, static_cast<std::size_t>(steps * setup.geo.num_sites()) -
                                total.runaways_compared)
      << "every atom is either an owned entry or an owned run-away";
  return total;
}

/// Both evaluators must equal the frozen kernels on every compared particle.
void expect_no_mismatches(const OracleTally& t) {
  EXPECT_EQ(t.engine.rho, 0u) << "engine evaluator, simd supported: "
                              << ReferenceForce::simd_supported();
  EXPECT_EQ(t.engine.force, 0u) << "engine evaluator, simd supported: "
                                << ReferenceForce::simd_supported();
  EXPECT_EQ(t.scalar.rho, 0u) << "scalar evaluator";
  EXPECT_EQ(t.scalar.force, 0u) << "scalar evaluator";
}

class ReferenceForceOracle : public ::testing::TestWithParam<int> {};

TEST_P(ReferenceForceOracle, CascadeForcesMatchPerPairKernelBitwise) {
  // Pure Fe: rho and F of the vector and the scalar evaluator must both
  // equal the frozen per-pair kernels.
  const OracleTally t = run_cascade_oracle(GetParam(), 0.0, 40);
  expect_no_mismatches(t);
  EXPECT_GT(t.runaways_compared, 0u);
  EXPECT_GT(t.ghost_chain_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReferenceForceOracle,
                         ::testing::Values(1, 2, 4));

TEST(ReferenceForceAlloyOracle, MixedCascadeMatchesPerPairKernelsBitwise) {
  // Fe-Cu: a central atom's neighbourhood mixes Fe-Fe and Fe-Cu (or Cu-Fe
  // and Cu-Cu) pair tables, so the vector lanes read different tables.
  const OracleTally t = run_cascade_oracle(2, 0.2, 25);
  EXPECT_GT(t.solutes, t.compared / 10);
  expect_no_mismatches(t);
}

TEST(ReferenceForceEvaluator, VectorTermsMatchScalarExpressions) {
  // The evaluate step alone, on Fe-Cu tables (three pair tables, assigned
  // round-robin so every group of four lanes mixes them). r sweeps every
  // segment's node and an interior point, below r_min (clamped) and past
  // the last node (clamped); record counts 1..3 beyond a multiple of four
  // exercise the scalar tail. Each term must equal the scalar expression.
  const pot::EamTableSet tables = pot::EamTableSet::build(
      pot::EamModel::iron_copper(kA, 5.0), 300);
  ReferenceForce force(tables);
  force.set_simd(true);
  if (!force.simd()) GTEST_SKIP() << "this CPU has no AVX2";

  std::vector<double> rs = {0.0, 0.5 * tables.r_min, tables.r_min,
                            tables.cutoff, 1.01 * tables.cutoff};
  const pot::CompactTable& grid = tables.pairs[0].phi;
  for (int i = 0; i <= grid.segments(); ++i) {
    rs.push_back(grid.x_min() + i * grid.dx());
    rs.push_back(grid.x_min() + (i + 0.37) * grid.dx());
  }
  const std::size_t whole = rs.size() - rs.size() % 4;
  const double fp0 = -0.41;
  std::size_t checked = 0, mismatches = 0;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, whole - 4,
                        whole - 3, whole - 2, whole - 1}) {
    EamPairRecords rec;
    for (std::size_t k = 0; k < n; ++k) {
      rec.add(rs[k] * rs[k], static_cast<std::int32_t>(k % tables.pairs.size()),
              util::Vec3{}, -0.2 - 0.01 * static_cast<double>(k % 7));
    }
    ASSERT_EQ(rec.size(), n);
    force.rho_terms(rec);
    const std::vector<double> rho_terms(rec.term().begin(), rec.term().end());
    force.force_terms(rec, fp0);
    for (std::size_t k = 0; k < n; ++k) {
      const auto& p = tables.pairs[static_cast<std::size_t>(rec.pair()[k])];
      const double r = std::max(std::sqrt(rec.r2()[k]), tables.r_min);
      double dphi, df;
      p.derivatives(r, &dphi, &df);
      const double scale = (dphi + (fp0 + rec.fprime()[k]) * df) / r;
      if (differs(rho_terms[k], p.f.value(r)) || differs(rec.term()[k], scale)) {
        ++mismatches;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 2u * 300u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(ReferenceForceEvaluator, CrowdedNeighbourhoodGrowsRecordPlanes) {
  // A dozen run-aways chained to one host give the host and each of them
  // more in-cutoff neighbours than the record planes start with, so the
  // collect step grows its planes mid-particle. rho and F of every owned
  // particle must still equal the frozen per-pair sums, on the vector and
  // on the scalar evaluator.
  Crystal x;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                 x.cfg.cutoff + kNeighborSkin);
    lnl.fill_perfect(lat::Species::Fe);
    const std::size_t host = lnl.box().entry_index({3, 3, 3, 0});
    const util::Vec3 site = lnl.ideal_position(host);
    constexpr int kRunaways = 12;
    for (int k = 0; k < kRunaways; ++k) {
      const double angle = 0.5235987755982988 * k;  // 30 degree steps
      lat::RunawayAtom a;
      a.r = site + util::Vec3{0.9 * std::cos(angle), 0.9 * std::sin(angle),
                              0.1 * (k - 5.5)};
      a.id = x.setup.geo.num_sites() + k;
      lnl.add_runaway(a, host);
    }
    std::size_t crowd = 0;
    lnl.for_each_neighbor_of_entry(host, [&](const lat::ParticleView& p) {
      if ((p.r - site).norm2() <= x.tables.cutoff * x.tables.cutoff) ++crowd;
    });
    ASSERT_GT(crowd, EamPairRecords::kInitialCapacity);

    lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
    ghosts.exchange(comm);
    ReferenceForce vector_unit(x.tables);
    ReferenceForce scalar(x.tables);
    scalar.set_simd(false);
    for (ReferenceForce* force : {&vector_unit, &scalar}) {
      force->compute_rho(lnl);
      ghosts.exchange_rho(comm);
      force->compute_forces(lnl);
      Mismatches m;
      std::size_t runaways = 0;
      for (std::size_t idx : lnl.owned_indices()) {
        const lat::AtomEntry& e = lnl.entry(idx);
        auto visit = [&](auto&& v) { lnl.for_each_neighbor_of_entry(idx, v); };
        tally(m, e, per_pair_rho(x.tables, e.r, 0, visit),
              per_pair_force(x.tables, e.r, 0, e.rho, visit));
      }
      lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t h) {
        const lat::RunawayAtom& a = lnl.runaway(ri);
        auto visit = [&](auto&& v) { lnl.for_each_neighbor_of_runaway(ri, h, v); };
        tally(m, a, per_pair_rho(x.tables, a.r, 0, visit),
              per_pair_force(x.tables, a.r, 0, a.rho, visit));
        ++runaways;
      });
      EXPECT_EQ(runaways, static_cast<std::size_t>(kRunaways));
      EXPECT_EQ(m.rho, 0u) << "simd " << force->simd();
      EXPECT_EQ(m.force, 0u) << "simd " << force->simd();
    }
  });
}

/// Counts of one ReferenceForce pass pair, read from the telemetry counters.
struct PathCounts {
  std::uint64_t lanes = 0, records = 0;
};

PathCounts path_counts(const telemetry::Session& session) {
  const auto agg = session.metrics().aggregate();
  return {agg.counter("md.force.lane_atoms"), agg.counter("md.force.record_atoms")};
}

TEST(ReferenceForceLanes, MatchRecordsPathBitwise) {
  // The lane path against the records path (set_simd(false)) where the
  // cascade oracles do not reach: 1-rank boxes of 5, 6 and 7 cells, whose
  // rows end mid-group, with vacancies, run-aways chained to owned hosts
  // (and so to their periodic images on ghost hosts at the storage edge),
  // and an entry with two chains in its stencil. One object runs all three
  // boxes, so it must rebuild its groups per box. Every owned entry's and
  // run-away's rho and F must be equal; the interior/boundary split of the
  // lane path must equal its unsplit call exactly; and exactly the owned
  // atoms whose visit reaches a chain node take the records path.
  if (!ReferenceForce::simd_supported()) GTEST_SKIP() << "this CPU has no AVX2";
  MdConfig base_cfg;
  base_cfg.temperature = 600.0;
  base_cfg.table_segments = 2000;
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(base_cfg.lattice_constant, base_cfg.cutoff),
      base_cfg.table_segments);
  telemetry::Session session(1);
  ReferenceForce lanes(tables);
  ReferenceForce records(tables);
  records.set_simd(false);
  ASSERT_TRUE(lanes.simd());
  for (const int n : {5, 6, 7}) {
    SCOPED_TRACE(n);
    MdConfig cfg = base_cfg;
    cfg.nx = cfg.ny = cfg.nz = n;
    const MdSetup setup(cfg, 1);
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
      engine.initialize(comm);
      engine.run(comm, 2);
      lat::LatticeNeighborList lnl = engine.lattice();
      const lat::LocalBox& box = lnl.box();
      ASSERT_EQ(box.lx, n);
      auto at = [&](int x, int y, int z, int sub) {
        return box.entry_index({x, y, z, sub});
      };
      // Two plain vacancies, one in a row's last cell.
      for (const std::size_t v : {at(0, 2, 3, 1), at(n - 1, 1, 2, 0)}) {
        lnl.entry(v).id = lat::AtomEntry::vacancy_id(lnl.site_rank(v));
      }
      // Interstitials: one on (1,1,1), whose images sit on the outermost
      // ghost layer, and two on neighbouring hosts that both lie in
      // (3,3,3,0)'s stencil.
      std::int64_t next_id = setup.geo.num_sites();
      for (const std::size_t host : {at(1, 1, 1, 0), at(3, 3, 2, 0), at(3, 3, 3, 1)}) {
        lat::RunawayAtom a;
        a.r = lnl.ideal_position(host) + util::Vec3{0.6, 0.4, 0.2};
        a.id = next_id++;
        lnl.add_runaway(a, host);
      }
      // A detached atom in a row's last cell: a vacancy with its own chain.
      const std::size_t det = at(n - 1, 3, 1, 1);
      lnl.entry(det).r += util::Vec3{0.5, 0.3, 0.1};
      lnl.detach(det);
      ASSERT_TRUE(lnl.entry(det).is_vacancy());
      {
        lat::GhostExchange ghosts(lnl, setup.dd, comm.rank());
        ghosts.exchange(comm);
      }
      std::size_t edge_chains = 0;
      for (std::size_t g : lnl.ghost_indices()) {
        const lat::LocalCoord c = box.coord_of(g);
        const bool edge = c.x == n + 1 || c.y == n + 1 || c.z == n + 1;
        if (edge && lnl.entry(g).runaway_head != lat::AtomEntry::kNoRunaway) {
          ++edge_chains;
        }
      }
      EXPECT_GT(edge_chains, 0u);

      // Owned atoms whose visit reaches a chain node: the records path's.
      const std::size_t first_runaway_slot = lnl.runaway_slot(0);
      std::size_t owned_atoms = 0, chained = 0, owned_runaways = 0;
      std::size_t most_hosts = 0;
      for (std::size_t idx : lnl.owned_indices()) {
        if (!lnl.entry(idx).is_atom()) continue;
        ++owned_atoms;
        bool reaches = false;
        lnl.for_each_neighbor_of_entry(idx, [&](const lat::ParticleView& p) {
          reaches = reaches || p.slot >= first_runaway_slot;
        });
        if (reaches) ++chained;
        std::size_t hosts = 0;
        for (const std::int64_t d : lnl.deltas(static_cast<int>(idx & 1))) {
          const std::size_t j = idx + static_cast<std::size_t>(d);
          if (lnl.entry(j).runaway_head != lat::AtomEntry::kNoRunaway) ++hosts;
        }
        most_hosts = std::max(most_hosts, hosts);
      }
      lnl.for_each_owned_runaway([&](std::int32_t, std::size_t) { ++owned_runaways; });
      EXPECT_GE(most_hosts, 2u);
      EXPECT_GT(chained, 0u);

      lat::LatticeNeighborList rec = lnl, lane = lnl, split = lnl;
      lat::GhostExchange rec_ghosts(rec, setup.dd, comm.rank());
      lat::GhostExchange lane_ghosts(lane, setup.dd, comm.rank());
      lat::GhostExchange split_ghosts(split, setup.dd, comm.rank());
      records.compute_rho(rec);
      rec_ghosts.exchange_rho(comm);
      records.compute_forces(rec);

      const PathCounts before = path_counts(session);
      lanes.compute_rho(lane);
      const PathCounts after = path_counts(session);
      lane_ghosts.exchange_rho(comm);
      lanes.compute_forces(lane);
      EXPECT_EQ(after.lanes - before.lanes, owned_atoms - chained);
      EXPECT_EQ(after.records - before.records, chained + owned_runaways);

      lanes.compute_rho(split);
      lanes.compute_forces_interior(split);
      split_ghosts.exchange_rho(comm);
      lanes.compute_forces_boundary(split);

      Mismatches m;
      std::size_t split_diffs = 0;
      for (std::size_t idx : lnl.owned_indices()) {
        if (!lnl.entry(idx).is_atom()) continue;
        tally(m, lane.entry(idx), rec.entry(idx).rho, rec.entry(idx).f);
        if (!(split.entry(idx).f == lane.entry(idx).f)) ++split_diffs;
      }
      std::size_t runaways = 0;
      lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
        tally(m, lane.runaway(ri), rec.runaway(ri).rho, rec.runaway(ri).f);
        if (!(split.runaway(ri).f == lane.runaway(ri).f)) ++split_diffs;
        ++runaways;
      });
      EXPECT_EQ(runaways, 4u);
      EXPECT_EQ(m.rho, 0u);
      EXPECT_EQ(m.force, 0u);
      EXPECT_EQ(split_diffs, 0u);
    });
  }
}

TEST(ReferenceForce, PotentialEnergyDeterministicAcrossRuns) {
  Crystal x;
  double e1 = 0, e2 = 0;
  for (double* e : {&e1, &e2}) {
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      lat::LatticeNeighborList lnl(x.setup.geo, x.setup.dd.local_box(0),
                                   x.cfg.cutoff + kNeighborSkin);
      lnl.fill_perfect(lat::Species::Fe);
      lat::GhostExchange ghosts(lnl, x.setup.dd, 0);
      *e = energy_of(x, lnl, ghosts, comm);
    });
  }
  EXPECT_EQ(e1, e2);
}

}  // namespace
}  // namespace mmd::md
