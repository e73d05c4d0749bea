#include <gtest/gtest.h>

#include <mutex>
#include <utility>
#include <vector>

#include "kmc/engine.h"
#include "telemetry/session.h"

namespace mmd::kmc {
namespace {

KmcConfig engine_config() {
  KmcConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 10;
  cfg.table_segments = 500;
  cfg.dt_scale = 2.0;  // a few events per vacancy per cycle
  return cfg;
}

struct Rig {
  KmcConfig cfg;
  KmcSetup setup;
  pot::EamTableSet tables;

  Rig(const KmcConfig& c, int nranks)
      : cfg(c),
        setup(c, nranks),
        tables(pot::EamTableSet::build(
            pot::EamModel::iron(c.lattice_constant, c.cutoff), c.table_segments)) {}
};

/// Run a short KMC and return the sorted global vacancy list (rank 0 view).
std::vector<std::int64_t> run_kmc(const KmcConfig& cfg, int nranks,
                                  GhostStrategy strategy, double concentration,
                                  int cycles, std::uint64_t* events = nullptr,
                                  GhostTraffic* traffic = nullptr) {
  Rig rig(cfg, nranks);
  std::vector<std::int64_t> result;
  std::uint64_t total_events = 0;
  GhostTraffic total_traffic;
  std::mutex m;
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    KmcEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank(),
                     strategy);
    engine.initialize_random(comm, concentration);
    engine.run_cycles(comm, cycles);
    auto vacs = engine.gather_vacancies(comm);
    const auto ev = comm.allreduce_sum_u64(engine.stats().events);
    std::lock_guard lk(m);
    total_traffic += engine.ghost_comm().traffic();
    if (comm.rank() == 0) {
      result = std::move(vacs);
      total_events = ev;
    }
  });
  if (events != nullptr) *events = total_events;
  if (traffic != nullptr) *traffic = total_traffic;
  return result;
}

TEST(KmcEngine, VacancyCountConservedSerial) {
  const KmcConfig cfg = engine_config();
  std::uint64_t events = 0;
  const auto vacs = run_kmc(cfg, 1, GhostStrategy::Traditional, 0.01, 5, &events);
  // Initialization is Bernoulli per site; count must stay fixed under hops.
  const auto initial = run_kmc(cfg, 1, GhostStrategy::Traditional, 0.01, 0);
  EXPECT_EQ(vacs.size(), initial.size());
  EXPECT_GT(events, 0u);
}

class KmcRanks : public ::testing::TestWithParam<int> {};

TEST_P(KmcRanks, VacancyCountConservedParallel) {
  const int nranks = GetParam();
  const KmcConfig cfg = engine_config();
  const auto before = run_kmc(cfg, nranks, GhostStrategy::OnDemandOneSided, 0.01, 0);
  const auto after = run_kmc(cfg, nranks, GhostStrategy::OnDemandOneSided, 0.01, 4);
  EXPECT_EQ(before.size(), after.size());
}

TEST_P(KmcRanks, InitializationIndependentOfDecomposition) {
  const KmcConfig cfg = engine_config();
  const auto serial = run_kmc(cfg, 1, GhostStrategy::Traditional, 0.02, 0);
  const auto parallel = run_kmc(cfg, GetParam(), GhostStrategy::Traditional, 0.02, 0);
  EXPECT_EQ(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, KmcRanks, ::testing::Values(2, 4, 8));

class KmcStrategyEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KmcStrategyEquivalence, AllStrategiesProduceIdenticalConfigurations) {
  // Same seed, same rank count: the event sequence is deterministic, so the
  // final configuration must be bit-identical under all three ghost
  // strategies. This is the correctness guarantee behind the paper's
  // communication-volume claim: on-demand transfers less but loses nothing.
  const int nranks = GetParam();
  const KmcConfig cfg = engine_config();
  const auto trad =
      run_kmc(cfg, nranks, GhostStrategy::Traditional, 0.01, 4);
  const auto two =
      run_kmc(cfg, nranks, GhostStrategy::OnDemandTwoSided, 0.01, 4);
  const auto one =
      run_kmc(cfg, nranks, GhostStrategy::OnDemandOneSided, 0.01, 4);
  EXPECT_EQ(trad, two);
  EXPECT_EQ(trad, one);
  EXPECT_FALSE(trad.empty());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, KmcStrategyEquivalence,
                         ::testing::Values(1, 2, 4, 8));

TEST(KmcEngine, OnDemandSendsFarLessThanTraditional) {
  // The paper's Fig. 12: with a low vacancy concentration the on-demand
  // volume is a small fraction of the traditional full-shell exchange. Needs
  // a box that is large relative to the halo, or every site is boundary.
  KmcConfig cfg = engine_config();
  cfg.nx = cfg.ny = cfg.nz = 20;
  GhostTraffic trad, ondemand;
  run_kmc(cfg, 4, GhostStrategy::Traditional, 0.002, 3, nullptr, &trad);
  run_kmc(cfg, 4, GhostStrategy::OnDemandOneSided, 0.002, 3, nullptr, &ondemand);
  EXPECT_GT(trad.bytes_sent, 0u);
  EXPECT_LT(ondemand.bytes_sent, trad.bytes_sent / 5);
}

TEST(KmcEngine, TwoSidedSendsEmptyHandshakes) {
  const KmcConfig cfg = engine_config();
  GhostTraffic two, one;
  // Zero vacancies: no updates at all.
  run_kmc(cfg, 4, GhostStrategy::OnDemandTwoSided, 0.0, 2, nullptr, &two);
  run_kmc(cfg, 4, GhostStrategy::OnDemandOneSided, 0.0, 2, nullptr, &one);
  // Two-sided must still send (empty) messages every sector; one-sided none
  // beyond the initial full refresh.
  EXPECT_GT(two.messages_sent, one.messages_sent);
  EXPECT_EQ(two.bytes_sent, one.bytes_sent);  // both moved zero update bytes
}

TEST(KmcEngine, McTimeAdvances) {
  const KmcConfig cfg = engine_config();
  Rig rig(cfg, 1);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    KmcEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank(),
                     GhostStrategy::OnDemandOneSided);
    engine.initialize_random(comm, 0.01);
    EXPECT_DOUBLE_EQ(engine.mc_time(), 0.0);
    engine.run_cycles(comm, 3);
    EXPECT_GT(engine.mc_time(), 0.0);
    EXPECT_EQ(engine.stats().cycles, 3u);
  });
}

TEST(KmcEngine, TimersAccumulate) {
  const KmcConfig cfg = engine_config();
  Rig rig(cfg, 2);
  comm::World world(2);
  world.run([&](comm::Comm& comm) {
    KmcEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank(),
                     GhostStrategy::OnDemandOneSided);
    engine.initialize_random(comm, 0.01);
    engine.run_cycles(comm, 3);
    EXPECT_GT(engine.computation_seconds(), 0.0);
    EXPECT_GT(engine.communication_seconds(), 0.0);
  });
}

TEST(KmcEngine, RunToThresholdStops) {
  KmcConfig cfg = engine_config();
  cfg.nx = cfg.ny = cfg.nz = 8;
  Rig rig(cfg, 1);
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    KmcEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank(),
                     GhostStrategy::OnDemandOneSided);
    engine.initialize_random(comm, 0.02);
    // Pick a threshold a few cycles away given the analytic rate bound.
    engine.run_cycles(comm, 1);
    const double dt1 = engine.mc_time();
    ASSERT_GT(dt1, 0.0);
    // Set the internal threshold via config copy: run until 3x the first dt.
    while (engine.mc_time() < 3.0 * dt1) engine.run_cycles(comm, 1);
    EXPECT_GE(engine.mc_time(), 3.0 * dt1);
  });
}

TEST(KmcEngine, InitializeFromMdSites) {
  const KmcConfig cfg = engine_config();
  Rig rig(cfg, 2);
  comm::World world(2);
  world.run([&](comm::Comm& comm) {
    KmcEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank(),
                     GhostStrategy::Traditional);
    // Vacancies at three chosen sites, assigned to whichever rank owns them.
    std::vector<std::int64_t> sites;
    for (std::int64_t gid : {std::int64_t{0}, std::int64_t{777}, std::int64_t{1500}}) {
      // initialize_sites applies via set_state_global: pass to both ranks;
      // only images present locally take effect, so filter by ownership.
      std::vector<std::size_t> images;
      engine.model().images_of_global(gid, images);
      for (std::size_t i : images) {
        if (engine.model().is_owned(i)) {
          sites.push_back(gid);
          break;
        }
      }
    }
    engine.initialize_sites(comm, sites);
    const auto all = engine.gather_vacancies(comm);
    if (comm.rank() == 0) {
      EXPECT_EQ(all.size(), 3u);
    }
    const double c = engine.vacancy_concentration(comm);
    EXPECT_NEAR(c, 3.0 / static_cast<double>(rig.setup.geo.num_sites()), 1e-12);
  });
}

/// One logged run: per-rank event sequences plus the final configuration.
struct LoggedRun {
  std::vector<std::int64_t> vacancies;  ///< rank-0 gathered, sorted
  std::uint64_t events = 0;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> logs;
};

LoggedRun run_logged(KmcConfig cfg, int nranks, GhostStrategy strategy,
                     double concentration, int cycles) {
  cfg.record_events = true;
  Rig rig(cfg, nranks);
  LoggedRun out;
  out.logs.resize(static_cast<std::size_t>(nranks));
  std::mutex m;
  comm::World world(nranks);
  world.run([&](comm::Comm& comm) {
    KmcEngine engine(cfg, rig.setup.geo, rig.setup.dd, rig.tables, comm.rank(),
                     strategy);
    engine.initialize_random(comm, concentration);
    engine.run_cycles(comm, cycles);
    auto vacs = engine.gather_vacancies(comm);
    const auto ev = comm.allreduce_sum_u64(engine.stats().events);
    std::lock_guard lk(m);
    out.logs[static_cast<std::size_t>(comm.rank())] = engine.event_log();
    if (comm.rank() == 0) {
      out.vacancies = std::move(vacs);
      out.events = ev;
    }
  });
  return out;
}

class KmcIncrementalEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KmcIncrementalEquivalence, EventSequenceBitIdenticalToRescanOracle) {
  // The incremental event table must not merely be statistically equivalent
  // to the full-rescan oracle: with a fixed seed, every rank must execute the
  // exact same (vacancy, atom) swap sequence, under every ghost strategy.
  // That is the determinism contract the dirty-region invalidation promises
  // (same leaves -> same tree sums -> same BKL draws and selections).
  const int nranks = GetParam();
  for (GhostStrategy strategy :
       {GhostStrategy::Traditional, GhostStrategy::OnDemandOneSided,
        GhostStrategy::OnDemandTwoSided}) {
    KmcConfig inc = engine_config();
    inc.incremental = true;
    KmcConfig scan = engine_config();
    scan.incremental = false;
    const auto a = run_logged(inc, nranks, strategy, 0.01, 4);
    const auto b = run_logged(scan, nranks, strategy, 0.01, 4);
    ASSERT_GT(a.events, 0u);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.vacancies, b.vacancies);
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(a.logs[static_cast<std::size_t>(r)],
                b.logs[static_cast<std::size_t>(r)])
          << "rank " << r << " strategy " << static_cast<int>(strategy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, KmcIncrementalEquivalence,
                         ::testing::Values(1, 2, 4));

TEST(KmcEngine, IncrementalRateTelemetryCounters) {
  telemetry::MetricsRegistry::Aggregate agg;
  std::uint64_t events = 0;
  {
    telemetry::Session session(2);
    const KmcConfig cfg = engine_config();
    run_kmc(cfg, 2, GhostStrategy::OnDemandOneSided, 0.01, 4, &events);
    agg = session.metrics().aggregate();
  }
  ASSERT_GT(events, 0u);
  EXPECT_EQ(agg.counter("kmc.events"), events);
  EXPECT_GT(agg.counter("kmc.rates.recomputed"), 0u);
  EXPECT_GT(agg.counter("kmc.rates.reused"), 0u);
  // Each executed event saw the whole active candidate population.
  EXPECT_GE(agg.counter("kmc.events.candidates"), events);
  // The incremental table's raison d'etre: most rates survive an event.
  EXPECT_GT(agg.counter("kmc.rates.reused"),
            agg.counter("kmc.rates.recomputed") / 4);
}

TEST(KmcEngine, RateCacheSurvivesAcrossCycles) {
  const auto counters = [](const KmcConfig& cfg, GhostStrategy strategy,
                           std::uint64_t* events) {
    telemetry::Session session(2);
    run_kmc(cfg, 2, strategy, 0.01, 8, events);
    return session.metrics().aggregate();
  };
  // Few events per cycle, as in a long anneal: most blocks see no flip
  // between two visits of their sector.
  KmcConfig sparse = engine_config();
  sparse.dt_scale = 0.5;
  KmcConfig scan = sparse;
  scan.incremental = false;
  std::uint64_t inc_events = 0;
  std::uint64_t scan_events = 0;
  const auto inc = counters(sparse, GhostStrategy::OnDemandOneSided, &inc_events);
  const auto oracle = counters(scan, GhostStrategy::OnDemandOneSided, &scan_events);
  ASSERT_GT(inc_events, 0u);
  EXPECT_EQ(inc_events, scan_events);
  // Sector entry re-rates only blocks a flip reached since their last visit.
  EXPECT_LT(inc.counter("kmc.rates.recomputed"),
            oracle.counter("kmc.rates.recomputed") / 2);

  // With no events nothing flips after the first cycle rates every block,
  // so each of the 7 later cycles enters every sector from the cache. The
  // traditional GET rewrites every ghost per sector; an unchanged value
  // journals nothing, so it must not cost a re-rate.
  KmcConfig still = engine_config();
  still.dt_scale = 1e-12;
  std::uint64_t still_events = 0;
  const auto idle = counters(still, GhostStrategy::Traditional, &still_events);
  ASSERT_EQ(still_events, 0u);
  ASSERT_GT(idle.counter("kmc.rates.recomputed"), 0u);
  EXPECT_EQ(idle.counter("kmc.rates.reused"),
            7 * idle.counter("kmc.rates.recomputed"));
}

TEST(KmcEngine, RescanOracleReusesNothing) {
  telemetry::MetricsRegistry::Aggregate agg;
  std::uint64_t events = 0;
  {
    telemetry::Session session(1);
    KmcConfig cfg = engine_config();
    cfg.incremental = false;
    run_kmc(cfg, 1, GhostStrategy::OnDemandOneSided, 0.01, 4, &events);
    agg = session.metrics().aggregate();
  }
  ASSERT_GT(events, 0u);
  EXPECT_GT(agg.counter("kmc.rates.recomputed"), 0u);
  EXPECT_EQ(agg.counter("kmc.rates.reused"), 0u);
}

TEST(KmcEngine, VacanciesMoveOverTime) {
  const KmcConfig cfg = engine_config();
  const auto before = run_kmc(cfg, 1, GhostStrategy::OnDemandOneSided, 0.01, 0);
  const auto after = run_kmc(cfg, 1, GhostStrategy::OnDemandOneSided, 0.01, 6);
  EXPECT_NE(before, after);
}

}  // namespace
}  // namespace mmd::kmc
