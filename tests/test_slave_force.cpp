#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "md/engine.h"
#include "md/slave_force.h"

namespace mmd::md {
namespace {

MdConfig accel_config() {
  MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.temperature = 400.0;
  cfg.table_segments = 5000;  // authentic table sizes for residency behaviour
  return cfg;
}

struct Rig {
  MdConfig cfg;
  MdSetup setup;
  pot::EamTableSet tables;

  explicit Rig(const MdConfig& c)
      : cfg(c),
        setup(c, 1),
        tables(pot::EamTableSet::build(
            pot::EamModel::iron(c.lattice_constant, c.cutoff), c.table_segments)) {}
};

struct CompareOpts {
  bool fused = false;
  bool with_runaways = false;
  int box_cells = 6;
  int table_segments = 5000;
  std::size_t store_bytes = sw::LocalStore::kSunwayCapacity;
  double tol_rho = 1e-10;
  double tol_f = 1e-9;
  sw::DmaStats* stats_out = nullptr;
  std::uint64_t* fallbacks_out = nullptr;
};

/// Reference forces vs slave-kernel forces on the same perturbed crystal.
void compare_forces(AccelStrategy strategy, const CompareOpts& opt = {}) {
  MdConfig cfg = accel_config();
  cfg.nx = cfg.ny = cfg.nz = opt.box_cells;
  cfg.table_segments = opt.table_segments;
  Rig rig(cfg);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
    engine.initialize(comm);
    engine.run(comm, 5);  // develop thermal displacements
    if (opt.with_runaways) {
      auto& lnl = engine.lattice();
      const std::size_t idx = lnl.box().entry_index({3, 3, 3, 0});
      lnl.entry(idx).r += util::Vec3{0.4, 0.2, 0.1};
      lnl.detach(idx);
      // Refresh ghosts so chains are mirrored before comparing kernels.
      lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());
      ghosts.exchange(comm);
    }

    auto& lnl = engine.lattice();
    // Reference pass.
    ReferenceForce ref(rig.tables);
    ref.compute_rho(lnl);
    lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());
    ghosts.exchange_rho(comm);
    ref.compute_forces(lnl);
    std::vector<util::Vec3> f_ref(lnl.size());
    std::vector<double> rho_ref(lnl.size());
    for (std::size_t i : lnl.owned_indices()) {
      f_ref[i] = lnl.entry(i).f;
      rho_ref[i] = lnl.entry(i).rho;
    }

    // Slave pass.
    sw::SlaveCorePool pool(8, opt.store_bytes);
    SlaveForceCompute slave(rig.tables, pool, strategy);
    slave.set_fused(opt.fused);
    slave.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    slave.compute_forces(lnl);

    double max_rho_err = 0.0, max_f_err = 0.0;
    for (std::size_t i : lnl.owned_indices()) {
      if (!lnl.entry(i).is_atom()) continue;
      max_rho_err = std::max(max_rho_err, std::abs(lnl.entry(i).rho - rho_ref[i]));
      max_f_err = std::max(max_f_err, (lnl.entry(i).f - f_ref[i]).norm());
    }
    EXPECT_LT(max_rho_err, opt.tol_rho);
    EXPECT_LT(max_f_err, opt.tol_f);
    if (opt.stats_out != nullptr) *opt.stats_out = slave.dma_stats();
    if (opt.fallbacks_out != nullptr) *opt.fallbacks_out = slave.table_fallbacks();
  });
}

TEST(SlaveForce, TraditionalMatchesReference) {
  compare_forces(AccelStrategy::TraditionalTable);
}

TEST(SlaveForce, CompactedMatchesReference) {
  compare_forces(AccelStrategy::CompactedTable);
}

TEST(SlaveForce, CompactedReuseMatchesReference) {
  compare_forces(AccelStrategy::CompactedReuse);
}

TEST(SlaveForce, DoubleBufferMatchesReference) {
  compare_forces(AccelStrategy::CompactedReuseDouble);
}

TEST(SlaveForce, MatchesReferenceWithRunaways) {
  CompareOpts opt;
  opt.with_runaways = true;
  compare_forces(AccelStrategy::CompactedReuse, opt);
}

// The fused single-sweep kernel evaluates the SAME per-pair expression as
// ReferenceForce ((phi' + (F'_i + F'_j) f') / r, identical neighbor order),
// so compact-table strategies agree to round-off. The traditional 7-column
// coefficient format reconstructs the polynomial differently from the
// reference spline, so its (fusion-independent) error floor is larger.
class SlaveForceFused : public ::testing::TestWithParam<AccelStrategy> {};

TEST_P(SlaveForceFused, MatchesReference) {
  CompareOpts opt;
  opt.fused = true;
  const bool trad = GetParam() == AccelStrategy::TraditionalTable;
  opt.tol_rho = trad ? 1e-10 : 1e-12;
  opt.tol_f = trad ? 1e-9 : 1e-12;
  compare_forces(GetParam(), opt);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, SlaveForceFused,
    ::testing::Values(AccelStrategy::TraditionalTable,
                      AccelStrategy::CompactedTable,
                      AccelStrategy::CompactedReuse,
                      AccelStrategy::CompactedReuseDouble),
    [](const auto& param_info) {
      switch (param_info.param) {
        case AccelStrategy::TraditionalTable: return "Traditional";
        case AccelStrategy::CompactedTable: return "Compacted";
        case AccelStrategy::CompactedReuse: return "CompactedReuse";
        case AccelStrategy::CompactedReuseDouble: return "CompactedReuseDouble";
      }
      return "Unknown";
    });

/// SIMD kernels vs the scalar SoA fallback on identical inputs: same packed
/// planes, same stencil, same tables. The vectorized arithmetic regroups
/// FMA chains, so agreement is 1e-12, not bitwise. On hardware without AVX2
/// set_simd(true) degrades to scalar and the comparison is trivially exact.
struct SimdOpts {
  bool fused = true;
  bool with_runaways = false;
  int table_segments = 1500;  // both compact tables resident -> SIMD engages
  std::size_t store_bytes = sw::LocalStore::kSunwayCapacity;
};

void compare_simd_vs_scalar(AccelStrategy strategy, const SimdOpts& opt = {}) {
  MdConfig cfg = accel_config();
  cfg.table_segments = opt.table_segments;
  Rig rig(cfg);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
    engine.initialize(comm);
    engine.run(comm, 5);
    auto& lnl = engine.lattice();
    if (opt.with_runaways) {
      const std::size_t idx = lnl.box().entry_index({3, 3, 3, 0});
      lnl.entry(idx).r += util::Vec3{0.4, 0.2, 0.1};
      lnl.detach(idx);
    }
    lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());
    ghosts.exchange(comm);

    auto run_pass = [&](bool simd, std::vector<double>& rho,
                        std::vector<util::Vec3>& f) {
      sw::SlaveCorePool pool(8, opt.store_bytes);
      SlaveForceCompute slave(rig.tables, pool, strategy);
      slave.set_fused(opt.fused);
      slave.set_simd(simd);
      slave.compute_rho(lnl);
      ghosts.exchange_rho(comm);
      slave.compute_forces(lnl);
      rho.assign(lnl.size(), 0.0);
      f.assign(lnl.size(), util::Vec3{});
      for (std::size_t i : lnl.owned_indices()) {
        rho[i] = lnl.entry(i).rho;
        f[i] = lnl.entry(i).f;
      }
    };

    std::vector<double> rho_scalar, rho_simd;
    std::vector<util::Vec3> f_scalar, f_simd;
    run_pass(false, rho_scalar, f_scalar);
    run_pass(true, rho_simd, f_simd);

    double max_rho_err = 0.0, max_f_err = 0.0;
    for (std::size_t i : lnl.owned_indices()) {
      if (!lnl.entry(i).is_atom()) continue;
      max_rho_err = std::max(max_rho_err, std::abs(rho_simd[i] - rho_scalar[i]));
      max_f_err = std::max(max_f_err, (f_simd[i] - f_scalar[i]).norm());
    }
    EXPECT_LT(max_rho_err, 1e-12);
    EXPECT_LT(max_f_err, 1e-12);
  });
}

class SlaveForceSimd : public ::testing::TestWithParam<AccelStrategy> {};

TEST_P(SlaveForceSimd, FusedSimdMatchesScalar) {
  compare_simd_vs_scalar(GetParam());
}

TEST_P(SlaveForceSimd, TwoPassSimdMatchesScalar) {
  SimdOpts opt;
  opt.fused = false;
  compare_simd_vs_scalar(GetParam(), opt);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, SlaveForceSimd,
    ::testing::Values(AccelStrategy::TraditionalTable,
                      AccelStrategy::CompactedTable,
                      AccelStrategy::CompactedReuse,
                      AccelStrategy::CompactedReuseDouble),
    [](const auto& param_info) {
      switch (param_info.param) {
        case AccelStrategy::TraditionalTable: return "Traditional";
        case AccelStrategy::CompactedTable: return "Compacted";
        case AccelStrategy::CompactedReuse: return "CompactedReuse";
        case AccelStrategy::CompactedReuseDouble: return "CompactedReuseDouble";
      }
      return "Unknown";
    });

TEST(SlaveForce, SimdMatchesScalarWithRunaways) {
  // Runaway chains leave holes (packed_id < 0) in the window planes: the
  // SIMD validity mask must drop exactly the lanes the scalar loop skips.
  SimdOpts opt;
  opt.with_runaways = true;
  compare_simd_vs_scalar(AccelStrategy::CompactedReuse, opt);
}

TEST(SlaveForce, SimdMatchesScalarWhenTablesFallBack) {
  // A 48 KB store cannot keep both authentic-size tables resident; the sweep
  // must drop to the scalar per-segment path and still agree with a pure
  // scalar run (trivially, since SIMD disengages — this pins that behavior).
  SimdOpts opt;
  opt.table_segments = 5000;
  opt.store_bytes = 48 * 1024;
  compare_simd_vs_scalar(AccelStrategy::CompactedReuse, opt);
}

TEST(SlaveForce, FusedFallbackWithTinyStoreMatchesReference) {
  // A 48 KB store cannot hold both authentic ~40 KB compact tables: the
  // secondary falls back to per-segment DMA lookups. Physics must not change,
  // with run-aways in the mix, and the fallback must be counted.
  CompareOpts opt;
  opt.fused = true;
  opt.with_runaways = true;
  opt.store_bytes = 48 * 1024;
  opt.tol_rho = 1e-12;
  opt.tol_f = 1e-12;
  std::uint64_t fallbacks = 0;
  opt.fallbacks_out = &fallbacks;
  compare_forces(AccelStrategy::CompactedReuse, opt);
  EXPECT_GT(fallbacks, 0u);
}

TEST(SlaveForce, FusedStaysResidentWhenBothTablesFit) {
  // At 1500 segments the two ~12 KB tables fit the 64 KB store together with
  // the window: no fallback.
  CompareOpts opt;
  opt.fused = true;
  opt.table_segments = 1500;
  opt.tol_rho = 1e-12;
  opt.tol_f = 1e-12;
  std::uint64_t fallbacks = 0;
  opt.fallbacks_out = &fallbacks;
  compare_forces(AccelStrategy::CompactedReuse, opt);
  EXPECT_EQ(fallbacks, 0u);
}

/// Owned forces of one pass: entries by index, then owned run-aways.
struct SplitForces {
  std::vector<util::Vec3> entries;
  std::vector<util::Vec3> runaways;
};

/// The overlap split (interior while the rho exchange is notionally in
/// flight, boundary after) must reproduce the unsplit compute_forces
/// bit-for-bit: same neighbor walk order per entry, output is assignment.
/// Ghost rho is POISONED during the interior phase to prove the interior
/// pass reads no ghost state. Runs for both force kernels, which take the
/// same compute_rho / compute_forces{,_interior,_boundary} calls. The split
/// pass runs first, on a kernel that has seen no earlier pass, so a boundary
/// call that skipped the ghost F'(rho) refresh could not borrow its values.
/// Returns the split pass's forces.
template <typename Kernel>
SplitForces compare_split_forces(const Rig& rig, Kernel& kernel,
                                 bool with_runaways) {
  SplitForces split;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(rig.cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
    engine.initialize(comm);
    engine.run(comm, 5);
    auto& lnl = engine.lattice();
    if (with_runaways) {
      const std::size_t idx = lnl.box().entry_index({3, 3, 3, 0});
      lnl.entry(idx).r += util::Vec3{0.4, 0.2, 0.1};
      lnl.detach(idx);
    }
    lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());
    ghosts.exchange(comm);
    ASSERT_FALSE(lnl.owned_interior_indices().empty());

    // Split pass: poison ghost rho before the interior sweep.
    kernel.compute_rho(lnl);
    const lat::LocalBox& b = lnl.box();
    for (std::size_t i = 0; i < lnl.size(); ++i) {
      if (!b.owns(b.coord_of(i))) lnl.entry(i).rho = 1e300;
    }
    kernel.compute_forces_interior(lnl);
    ghosts.exchange_rho(comm);
    kernel.compute_forces_boundary(lnl);
    std::vector<util::Vec3> f_split(lnl.size());
    for (std::size_t i : lnl.owned_indices()) f_split[i] = lnl.entry(i).f;
    std::vector<util::Vec3> fr_split;
    lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
      fr_split.push_back(lnl.runaway(ri).f);
    });
    if (with_runaways) {
      EXPECT_FALSE(fr_split.empty());
    }

    // Unsplit pass.
    kernel.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    kernel.compute_forces(lnl);

    for (std::size_t i : lnl.owned_indices()) {
      ASSERT_EQ(lnl.entry(i).f, f_split[i]) << "entry " << i;
    }
    std::size_t k = 0;
    lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
      ASSERT_EQ(lnl.runaway(ri).f, fr_split[k++]);
    });
    EXPECT_EQ(k, fr_split.size());
    split = {std::move(f_split), std::move(fr_split)};
  });
  return split;
}

SplitForces compare_split_slave_forces(bool fused, bool with_runaways,
                                       std::size_t pool_cores = 8) {
  const Rig rig(accel_config());
  sw::SlaveCorePool pool(pool_cores);
  SlaveForceCompute slave(rig.tables, pool, AccelStrategy::CompactedReuse);
  slave.set_fused(fused);
  return compare_split_forces(rig, slave, with_runaways);
}

/// The slab partition decides only which core sweeps a row, never what the
/// row computes. Over the 36 rows of a full sweep, one core sweeps them all,
/// eight cores share them, or 36 of 64 cores own one each; all three give
/// identical owned forces through the interior/boundary split. A dropped or
/// doubly swept row would show here.
void expect_split_forces_independent_of_pool_size(bool with_runaways) {
  const SplitForces one = compare_split_slave_forces(true, with_runaways, 1);
  ASSERT_FALSE(one.entries.empty());
  for (const std::size_t cores : {std::size_t{8}, std::size_t{64}}) {
    SCOPED_TRACE(cores);
    const SplitForces many =
        compare_split_slave_forces(true, with_runaways, cores);
    ASSERT_EQ(many.entries.size(), one.entries.size());
    for (std::size_t i = 0; i < one.entries.size(); ++i) {
      ASSERT_EQ(many.entries[i], one.entries[i]) << "entry " << i;
    }
    EXPECT_EQ(many.runaways, one.runaways);
  }
}

TEST(SlaveForce, SplitForcesIndependentOfPoolSize) {
  expect_split_forces_independent_of_pool_size(/*with_runaways=*/false);
}

TEST(SlaveForce, SplitForcesWithRunawaysIndependentOfPoolSize) {
  expect_split_forces_independent_of_pool_size(/*with_runaways=*/true);
}

TEST(SlaveForce, CoresWithoutRowsMoveNoBytes) {
  // 6^3 cells on one rank: 36 (y,z) rows over a 64-core pool, one row per
  // core. Cores 36..63 own no row of any sweep and must stage nothing.
  const Rig rig(accel_config());
  constexpr std::size_t kCores = 64;
  constexpr std::size_t kRows = 36;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(rig.cfg, rig.setup.geo, rig.setup.dd, rig.tables,
                    comm.rank());
    engine.initialize(comm);
    auto& lnl = engine.lattice();
    lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());
    sw::SlaveCorePool pool(kCores);
    SlaveForceCompute slave(rig.tables, pool, AccelStrategy::CompactedReuse);
    auto expect_idle_cores_silent = [&](const char* path) {
      for (std::size_t c = 0; c < kCores; ++c) {
        const std::uint64_t moved = pool.core(c).dma->stats().total_bytes();
        if (c < kRows) {
          EXPECT_GT(moved, 0u) << path << ": core " << c;
        } else {
          EXPECT_EQ(moved, 0u) << path << ": core " << c << " owns no row";
        }
      }
    };

    slave.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    slave.compute_forces(lnl);
    expect_idle_cores_silent("unsplit");

    slave.reset_stats();
    slave.compute_rho(lnl);
    slave.compute_forces_interior(lnl);
    ghosts.exchange_rho(comm);
    slave.compute_forces_boundary(lnl);
    expect_idle_cores_silent("split");
  });
}

TEST(SlaveForce, SplitFusedMatchesUnsplitBitwise) {
  compare_split_slave_forces(/*fused=*/true, /*with_runaways=*/false);
}

TEST(SlaveForce, SplitTwoPassMatchesUnsplitBitwise) {
  compare_split_slave_forces(/*fused=*/false, /*with_runaways=*/false);
}

TEST(SlaveForce, SplitWithRunawaysMatchesUnsplitBitwise) {
  compare_split_slave_forces(/*fused=*/true, /*with_runaways=*/true);
}

TEST(ReferenceForce, SplitMatchesUnsplitBitwise) {
  const Rig rig(accel_config());
  ReferenceForce ref(rig.tables);
  compare_split_forces(rig, ref, /*with_runaways=*/false);
}

TEST(ReferenceForce, SplitWithRunawaysMatchesUnsplitBitwise) {
  const Rig rig(accel_config());
  ReferenceForce ref(rig.tables);
  compare_split_forces(rig, ref, /*with_runaways=*/true);
}

TEST(SlaveForce, CompactedUsesFarFewerDmaOps) {
  // The whole point of table compaction (paper Fig. 9): per-lookup row DMAs
  // vanish once the compact table is resident. Measured on the two-pass
  // shape, which stages exactly one table per sweep (the paper's design).
  sw::DmaStats trad, compact;
  CompareOpts opt;
  opt.stats_out = &trad;
  compare_forces(AccelStrategy::TraditionalTable, opt);
  opt.stats_out = &compact;
  compare_forces(AccelStrategy::CompactedTable, opt);
  EXPECT_GT(trad.get_ops, 10u * compact.get_ops)
      << "traditional=" << trad.get_ops << " compacted=" << compact.get_ops;
}

TEST(SlaveForce, ReuseReducesDmaBytes) {
  // Needs a box wider than one block along x, or there is nothing to reuse.
  sw::DmaStats plain, reuse;
  CompareOpts opt;
  opt.box_cells = 12;
  opt.stats_out = &plain;
  compare_forces(AccelStrategy::CompactedTable, opt);
  opt.stats_out = &reuse;
  compare_forces(AccelStrategy::CompactedReuse, opt);
  EXPECT_LT(reuse.get_bytes, plain.get_bytes);
}

TEST(SlaveForce, FusedSweepCutsForcePhaseGetBytesByFortyPercent) {
  // The acceptance bar of the fused-sweep PR: one window pass instead of two
  // must drop force-phase DMA get bytes by >= 40% on identical inputs (both
  // tables resident at 1500 segments).
  MdConfig cfg = accel_config();
  cfg.nx = cfg.ny = cfg.nz = 10;
  cfg.table_segments = 1500;
  Rig rig(cfg);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
    engine.initialize(comm);
    engine.run(comm, 2);
    auto& lnl = engine.lattice();
    lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());

    auto force_phase_get_bytes = [&](bool fused) {
      sw::SlaveCorePool pool(8);
      SlaveForceCompute slave(rig.tables, pool, AccelStrategy::CompactedReuse);
      slave.set_fused(fused);
      slave.compute_rho(lnl);
      ghosts.exchange_rho(comm);
      slave.reset_stats();  // isolate the force phase
      slave.compute_forces(lnl);
      EXPECT_EQ(slave.table_fallbacks(), 0u);
      return slave.dma_stats().get_bytes;
    };

    const std::uint64_t two_pass = force_phase_get_bytes(false);
    const std::uint64_t fused = force_phase_get_bytes(true);
    EXPECT_LE(static_cast<double>(fused), 0.6 * static_cast<double>(two_pass))
        << "fused=" << fused << " two_pass=" << two_pass;
  });
}

TEST(SlaveForce, ComputeForcesAloneRepacksPositions) {
  // compute_forces without a preceding compute_rho (no fresh packed array)
  // must fall back to a full pack and still match the reference.
  MdConfig cfg = accel_config();
  Rig rig(cfg);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
    engine.initialize(comm);
    engine.run(comm, 3);
    auto& lnl = engine.lattice();
    lat::GhostExchange ghosts(lnl, rig.setup.dd, comm.rank());

    ReferenceForce ref(rig.tables);
    ref.compute_rho(lnl);
    ghosts.exchange_rho(comm);
    ref.compute_forces(lnl);
    std::vector<util::Vec3> f_ref(lnl.size());
    for (std::size_t i : lnl.owned_indices()) f_ref[i] = lnl.entry(i).f;

    // rho (and its ghosts) are already in place; call compute_forces cold.
    sw::SlaveCorePool pool(4);
    SlaveForceCompute slave(rig.tables, pool, AccelStrategy::CompactedReuse);
    slave.compute_forces(lnl);
    double max_err = 0.0;
    for (std::size_t i : lnl.owned_indices()) {
      if (!lnl.entry(i).is_atom()) continue;
      max_err = std::max(max_err, (lnl.entry(i).f - f_ref[i]).norm());
    }
    EXPECT_LT(max_err, 1e-12);
  });
}

TEST(SlaveForce, RejectsAlloyTables) {
  const auto alloy = pot::EamTableSet::build(pot::EamModel::iron_copper(), 500);
  sw::SlaveCorePool pool(4);
  EXPECT_THROW(SlaveForceCompute(alloy, pool, AccelStrategy::CompactedTable),
               std::invalid_argument);
}

TEST(SlaveForce, EngineIntegrationProducesSameTrajectory) {
  const MdConfig cfg = accel_config();
  Rig rig(cfg);

  auto run_with = [&](SlaveForceCompute* kernel) {
    std::vector<util::Vec3> pos;
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      MdEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
      engine.use_slave_kernel(kernel);
      engine.initialize(comm);
      engine.run(comm, 5);
      auto& lnl = engine.lattice();
      for (std::size_t i : lnl.owned_indices()) pos.push_back(lnl.entry(i).r);
    });
    return pos;
  };

  const auto ref = run_with(nullptr);
  sw::SlaveCorePool pool(8);
  SlaveForceCompute slave(rig.tables, pool, AccelStrategy::CompactedReuse);
  const auto acc = run_with(&slave);
  ASSERT_EQ(ref.size(), acc.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_err = std::max(max_err, (ref[i] - acc[i]).norm());
  }
  EXPECT_LT(max_err, 1e-8);
}

TEST(SlaveForce, ModeledTimeOverlapsOnlyWithDoubleBuffer) {
  // The double-buffered model overlaps DMA with compute: its modeled time is
  // max(dma, compute) per core, which is bounded by the serial sum of the
  // SAME run's components (cross-run wall-clock comparisons are too noisy).
  const MdConfig cfg = accel_config();
  Rig rig(cfg);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    MdEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank());
    engine.initialize(comm);
    auto& lnl = engine.lattice();

    sw::SlaveCorePool pool(4);
    SlaveForceCompute dbl(rig.tables, pool, AccelStrategy::CompactedReuseDouble);
    dbl.compute_rho(lnl);
    const double overlap_model = dbl.modeled_time();
    const double dma_model = pool.max_modeled_dma_time();
    const double compute_model = dbl.compute_seconds();

    EXPECT_GT(overlap_model, 0.0);
    EXPECT_GT(dma_model, 0.0);
    // max(dma, compute) per core: bounded below by each component's max and
    // above by their sum.
    EXPECT_GE(overlap_model, dma_model * (1.0 - 1e-12));
    EXPECT_LE(overlap_model, dma_model + compute_model + 1e-12);
  });
}

}  // namespace
}  // namespace mmd::md
