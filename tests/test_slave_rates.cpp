#include <gtest/gtest.h>

#include <cmath>

#include "kmc/engine.h"
#include "kmc/slave_rates.h"

namespace mmd::kmc {
namespace {

struct Rig {
  KmcConfig cfg;
  KmcSetup setup;
  pot::EamTableSet tables;

  explicit Rig(int nranks, bool alloy = false)
      : cfg(make_cfg()),
        setup(cfg, nranks),
        tables(pot::EamTableSet::build(
            alloy ? pot::EamModel::iron_copper(cfg.lattice_constant, cfg.cutoff)
                  : pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff),
            cfg.table_segments)) {}

  static KmcConfig make_cfg() {
    KmcConfig c;
    c.nx = c.ny = c.nz = 10;
    c.table_segments = 500;
    c.dt_scale = 2.0;
    return c;
  }
};

TEST(SlaveRates, BatchMatchesMasterPath) {
  Rig rig(1);
  KmcModel model(rig.cfg, rig.setup.geo, rig.setup.dd, rig.tables, 0);
  // A few vacancies, including a pair (nonzero dE) and a border one.
  for (std::int64_t gid : {std::int64_t{842}, std::int64_t{843},
                           std::int64_t{0}, std::int64_t{1501}}) {
    model.set_state_global(gid, SiteState::Vacancy);
  }
  // Candidates: every vacancy's occupied 1NN.
  std::vector<EventCandidate> candidates;
  const auto& box = model.box();
  for (std::size_t idx : model.owned_indices()) {
    if (model.state(idx) != SiteState::Vacancy) continue;
    const auto c = box.coord_of(idx);
    for (const auto& o : model.nn_offsets(c.sub)) {
      const lat::LocalCoord n{c.x + o.dx, c.y + o.dy, c.z + o.dz, o.to_sub};
      if (!box.in_storage(n)) continue;
      const std::size_t ni = box.entry_index(n);
      if (is_atom(model.state(ni))) candidates.push_back({idx, ni});
    }
  }
  ASSERT_GT(candidates.size(), 20u);

  sw::SlaveCorePool pool(8);
  SlaveRateCompute kernel(rig.tables, pool);
  const auto batch = kernel.exchange_dE_batch(model, candidates);
  ASSERT_EQ(batch.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double direct = model.exchange_dE(candidates[i].vac, candidates[i].nb);
    ASSERT_NEAR(batch[i], direct, 1e-12) << i;
  }
}

TEST(SlaveRates, AlloyCandidatesMatch) {
  Rig rig(1, /*alloy=*/true);
  KmcModel model(rig.cfg, rig.setup.geo, rig.setup.dd, rig.tables, 0);
  model.set_state_global(842, SiteState::Vacancy);
  // Put Cu on several neighbors so mixed-pair fallbacks exercise.
  for (std::int64_t gid : {std::int64_t{843}, std::int64_t{844},
                           std::int64_t{1042}}) {
    model.set_state_global(gid, SiteState::Cu);
  }
  std::vector<EventCandidate> candidates;
  const auto& box = model.box();
  for (std::size_t idx : model.owned_indices()) {
    if (model.state(idx) != SiteState::Vacancy) continue;
    const auto c = box.coord_of(idx);
    for (const auto& o : model.nn_offsets(c.sub)) {
      const std::size_t ni =
          box.entry_index({c.x + o.dx, c.y + o.dy, c.z + o.dz, o.to_sub});
      if (is_atom(model.state(ni))) candidates.push_back({idx, ni});
    }
  }
  sw::SlaveCorePool pool(4);
  SlaveRateCompute kernel(rig.tables, pool);
  const auto batch = kernel.exchange_dE_batch(model, candidates);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ASSERT_NEAR(batch[i],
                model.exchange_dE(candidates[i].vac, candidates[i].nb), 1e-12);
  }
}

TEST(SlaveRates, EngineRunsIdenticallyWithKernel) {
  Rig rig(2);
  auto run = [&](bool slave) {
    std::vector<std::int64_t> result;
    std::mutex m;
    comm::World world(2);
    world.run([&](comm::Comm& comm) {
      KmcEngine engine(rig.cfg, rig.setup.geo, rig.setup.dd, rig.tables,
                       comm.rank(), GhostStrategy::OnDemandOneSided);
      sw::SlaveCorePool pool(8);
      SlaveRateCompute kernel(rig.tables, pool);
      if (slave) engine.use_slave_rates(&kernel);
      engine.initialize_random(comm, 0.01);
      engine.run_cycles(comm, 3);
      auto v = engine.gather_vacancies(comm);
      std::lock_guard lk(m);
      if (comm.rank() == 0) result = std::move(v);
    });
    return result;
  };
  const auto master = run(false);
  const auto slave = run(true);
  EXPECT_EQ(master, slave);
  EXPECT_FALSE(master.empty());
}

TEST(SlaveRates, DmaTrafficIsTiny) {
  // One byte per site: the KMC windows are far smaller than MD's packed
  // particles — quantify it.
  Rig rig(1);
  KmcModel model(rig.cfg, rig.setup.geo, rig.setup.dd, rig.tables, 0);
  model.set_state_global(842, SiteState::Vacancy);
  std::vector<EventCandidate> candidates;
  const auto& box = model.box();
  for (std::size_t idx : model.owned_indices()) {
    if (model.state(idx) != SiteState::Vacancy) continue;
    const auto c = box.coord_of(idx);
    for (const auto& o : model.nn_offsets(c.sub)) {
      const std::size_t ni =
          box.entry_index({c.x + o.dx, c.y + o.dy, c.z + o.dz, o.to_sub});
      if (is_atom(model.state(ni))) candidates.push_back({idx, ni});
    }
  }
  ASSERT_EQ(candidates.size(), 8u);
  // A 64-core pool leaves cores 8..63 without a candidate: they must not
  // stage a table or move a byte.
  for (const std::size_t cores : {std::size_t{4}, std::size_t{64}}) {
    SCOPED_TRACE(cores);
    sw::SlaveCorePool pool(cores);
    SlaveRateCompute kernel(rig.tables, pool);
    kernel.reset_stats();
    kernel.exchange_dE_batch(model, candidates);
    const auto stats = kernel.dma_stats();
    EXPECT_GT(stats.get_ops, 0u);
    // Window + table staging only: well under a MB for 8 candidates.
    EXPECT_LT(stats.get_bytes, (1u << 20));
    // The per-pass split accounts for the whole aggregate: every byte
    // belongs to either the density pass or the pair pass.
    const auto density = kernel.density_dma_stats();
    const auto pair = kernel.pair_dma_stats();
    EXPECT_GT(density.get_bytes, 0u);
    EXPECT_GT(pair.get_bytes, 0u);
    EXPECT_EQ(density.get_bytes + pair.get_bytes, stats.get_bytes);
    EXPECT_EQ(density.get_ops + pair.get_ops, stats.total_ops());
    for (std::size_t c = 0; c < cores; ++c) {
      const std::uint64_t moved = pool.core(c).dma->stats().total_bytes();
      if (c < candidates.size()) {
        EXPECT_GT(moved, 0u) << "core " << c;
      } else {
        EXPECT_EQ(moved, 0u) << "core " << c << " owns no candidate";
      }
    }
  }
}

}  // namespace
}  // namespace mmd::kmc
