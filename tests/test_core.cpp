#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/scenario.h"
#include "core/simulation.h"
#include "sunway/slave_pool.h"
#include "telemetry/session.h"
#include "util/key_value.h"

namespace mmd::core {
namespace {

TEST(Scenario, MdSimdKeyParsesAutoAndOff) {
  const auto parse = [](const std::string& text) {
    return scenario_from_kv(util::KeyValueConfig::parse(text));
  };
  EXPECT_TRUE(parse("box = 6\n").use_simd_force);  // default: auto
  EXPECT_TRUE(parse("box = 6\nmd.simd = auto\n").use_simd_force);
  EXPECT_FALSE(parse("box = 6\nmd.simd = off\n").use_simd_force);
  EXPECT_THROW(parse("box = 6\nmd.simd = on\n"), std::invalid_argument);
}

TEST(Scenario, SampleKeysParseWithDefaults) {
  const auto parse = [](const std::string& text) {
    return scenario_from_kv(util::KeyValueConfig::parse(text));
  };
  const auto off = parse("box = 6\n");
  EXPECT_EQ(off.sampling.mode, SamplingPolicy::Mode::Off);
  EXPECT_FALSE(off.sampling.enabled());
  EXPECT_EQ(off.sampling.window, 5);
  EXPECT_EQ(off.sampling.stride, 45);
  EXPECT_EQ(off.sampling.replicates, 8);

  const auto scd = parse(
      "box = 6\nsample.mode = scd\nsample.window = 3\n"
      "sample.stride = 21\nsample.replicates = 16\n");
  EXPECT_EQ(scd.sampling.mode, SamplingPolicy::Mode::Scd);
  EXPECT_TRUE(scd.sampling.enabled());
  EXPECT_EQ(scd.sampling.window, 3);
  EXPECT_EQ(scd.sampling.stride, 21);
  EXPECT_EQ(scd.sampling.replicates, 16);
}

TEST(Scenario, SampleKeysRejectInvalidValues) {
  const auto parse = [](const std::string& text) {
    return scenario_from_kv(util::KeyValueConfig::parse(text));
  };
  EXPECT_THROW(parse("box = 6\nsample.mode = fast\n"), std::invalid_argument);
  EXPECT_THROW(parse("box = 6\nsample.mode = scd\nsample.window = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("box = 6\nsample.mode = scd\nsample.stride = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("box = 6\nsample.mode = scd\nsample.replicates = 1\n"),
               std::invalid_argument);
  // Off mode skips the schedule validation: the values are inert.
  EXPECT_NO_THROW(parse("box = 6\nsample.window = 0\n"));
}

TEST(Scenario, SampleKeyTypoIsAttributedToFileAndLine) {
  // A misspelled sample key must not silently fall through to the default:
  // reject_unknown_keys() names the offending source line.
  auto kv = util::KeyValueConfig::parse(
      "box = 6\nsample.windw = 3\nsample.mode = scd\n", "scn.mmd");
  scenario_from_kv(kv);  // consumes every recognized key
  try {
    kv.reject_unknown_keys();
    FAIL() << "expected reject_unknown_keys to throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("scn.mmd:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sample.windw"), std::string::npos) << msg;
  }
}

SimulationConfig tiny_config() {
  SimulationConfig cfg;
  cfg.md.nx = cfg.md.ny = cfg.md.nz = 8;
  cfg.md.temperature = 300.0;
  cfg.md.table_segments = 800;
  cfg.kmc_table_segments = 400;
  cfg.md_time_ps = 0.05;
  cfg.pka_count = 2;
  cfg.pka_energy_ev = 70.0;
  cfg.kmc_cycles = 10;
  cfg.nranks = 1;
  return cfg;
}

TEST(Simulation, BuildAssetsSharesOneSetWhenResolutionsAgree) {
  SimulationConfig cfg = tiny_config();
  const auto split = Simulation::build_assets(cfg);
  EXPECT_NE(split.md_tables.get(), split.kmc_tables.get());
  cfg.kmc_table_segments = cfg.md.table_segments;
  const auto shared = Simulation::build_assets(cfg);
  EXPECT_EQ(shared.md_tables.get(), shared.kmc_tables.get());
}

TEST(Simulation, EndToEndProducesDefectsAndEvolvesThem) {
  Simulation sim(tiny_config());
  const SimulationReport r = sim.run();
  // The cascade created Frenkel pairs...
  EXPECT_GT(r.md_defects.vacancies, 0u);
  EXPECT_GT(r.md_defects.interstitials, 0u);
  // ...handed to KMC unchanged...
  EXPECT_EQ(r.clusters_after_md.num_vacancies, r.md_defects.vacancies);
  EXPECT_EQ(r.clusters_after_kmc.num_vacancies, r.md_defects.vacancies);
  // ...which evolved them in MC time.
  EXPECT_GT(r.kmc_mc_time, 0.0);
  EXPECT_GT(r.vacancy_concentration, 0.0);
  EXPECT_GT(r.real_time_days, 0.0);
  EXPECT_GT(r.md_seconds, 0.0);
  EXPECT_GT(r.kmc_seconds, 0.0);
}

TEST(Simulation, DeterministicWithSeed) {
  SimulationConfig cfg = tiny_config();
  cfg.md_time_ps = 0.03;
  cfg.kmc_cycles = 4;
  Simulation a(cfg), b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.md_defects.vacancies, rb.md_defects.vacancies);
  EXPECT_EQ(ra.md_defects.interstitials, rb.md_defects.interstitials);
  EXPECT_EQ(ra.kmc_events, rb.kmc_events);
  EXPECT_EQ(ra.clusters_after_kmc.num_clusters, rb.clusters_after_kmc.num_clusters);
}

TEST(Simulation, ParallelMatchesSerialDefectCounts) {
  SimulationConfig cfg = tiny_config();
  cfg.md_time_ps = 0.03;
  cfg.kmc_cycles = 4;
  Simulation serial(cfg);
  const auto rs = serial.run();
  cfg.nranks = 4;
  Simulation parallel(cfg);
  const auto rp = parallel.run();
  EXPECT_EQ(rs.md_defects.vacancies, rp.md_defects.vacancies);
  EXPECT_EQ(rs.md_defects.interstitials, rp.md_defects.interstitials);
}

TEST(Simulation, ReportToStringMentionsKeyNumbers) {
  SimulationConfig cfg = tiny_config();
  cfg.md_time_ps = 0.02;
  cfg.kmc_cycles = 2;
  Simulation sim(cfg);
  const auto r = sim.run();
  const std::string s = to_string(r);
  EXPECT_NE(s.find("MD stage"), std::string::npos);
  EXPECT_NE(s.find("KMC stage"), std::string::npos);
  EXPECT_NE(s.find("Temporal scale"), std::string::npos);
}

TEST(Simulation, AlloyPipelineCarriesSolutes) {
  SimulationConfig cfg = tiny_config();
  cfg.md_time_ps = 0.02;
  cfg.kmc_cycles = 3;
  cfg.solute_fraction = 0.08;
  cfg.nranks = 2;
  Simulation sim(cfg);
  const auto r = sim.run();
  // The alloy pipeline still produces and evolves damage.
  EXPECT_GT(r.md_defects.vacancies, 0u);
  EXPECT_EQ(r.clusters_after_kmc.num_vacancies, r.md_defects.vacancies);
  EXPECT_GT(r.kmc_mc_time, 0.0);
}

TEST(Simulation, AlloyDeterministic) {
  SimulationConfig cfg = tiny_config();
  cfg.md_time_ps = 0.02;
  cfg.kmc_cycles = 3;
  cfg.solute_fraction = 0.05;
  const auto a = Simulation(cfg).run();
  const auto b = Simulation(cfg).run();
  EXPECT_EQ(a.kmc_events, b.kmc_events);
  EXPECT_EQ(a.final_vacancies, b.final_vacancies);
}

TEST(Simulation, KmcStrategyDoesNotChangeOutcome) {
  SimulationConfig cfg = tiny_config();
  // Traditional KMC put-back needs subdomains of at least 5 cells per axis.
  cfg.md.nx = cfg.md.ny = cfg.md.nz = 10;
  cfg.md_time_ps = 0.03;
  cfg.kmc_cycles = 4;
  cfg.nranks = 2;
  cfg.kmc_strategy = kmc::GhostStrategy::Traditional;
  const auto rt = Simulation(cfg).run();
  cfg.kmc_strategy = kmc::GhostStrategy::OnDemandOneSided;
  const auto ro = Simulation(cfg).run();
  EXPECT_EQ(rt.kmc_events, ro.kmc_events);
  EXPECT_EQ(rt.clusters_after_kmc.num_clusters, ro.clusters_after_kmc.num_clusters);
  EXPECT_EQ(rt.clusters_after_kmc.max_size, ro.clusters_after_kmc.max_size);
}

/// to_string() without its "(0.123 s)" wall-time parentheticals.
std::string sans_timings(const SimulationReport& r) {
  std::string s = to_string(r);
  for (auto open = s.find(" ("); open != std::string::npos;
       open = s.find(" (", open)) {
    const auto close = s.find(" s)", open);
    if (close == std::string::npos) break;
    s.erase(open, close + 3 - open);
  }
  return s;
}

TEST(Simulation, PerRankPoolsMatchSharedExecutor) {
  SimulationConfig cfg = tiny_config();
  cfg.md_time_ps = 0.03;
  cfg.kmc_cycles = 4;
  cfg.nranks = 4;
  cfg.use_slave_force = true;

  // Own-pool mode: every rank drives its own core group, sized from the host
  // thread budget, so no rank ever queues behind another.
  telemetry::Session::Options opts;
  opts.install_global = false;
  telemetry::Session session(cfg.nranks, opts);
  SimulationReport own;
  {
    telemetry::Session::ThreadScope scope(&session);
    own = Simulation(cfg).run();
  }
  const double hw =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  const double per_rank = std::max(1.0, std::floor(hw / cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r) {
    const auto& gauges = session.metrics().rank(r).gauges;
    ASSERT_EQ(gauges.count("sw.pool.os_threads"), 1u) << "rank " << r;
    EXPECT_EQ(gauges.at("sw.pool.os_threads"), per_rank) << "rank " << r;
    EXPECT_EQ(gauges.at("sw.pool.contended_epochs"), 0.0) << "rank " << r;
    EXPECT_EQ(gauges.at("host.oversubscription"),
              cfg.nranks * per_rank / hw) << "rank " << r;
  }

  // Shared-executor mode (campaign lanes): one pool serves all four ranks.
  sw::SlaveCorePool shared;
  cfg.slave_pool = &shared;
  const SimulationReport pooled = Simulation(cfg).run();
  EXPECT_GT(shared.activity().epochs, 0u);

  EXPECT_EQ(sans_timings(own), sans_timings(pooled));
  EXPECT_EQ(own.final_vacancies, pooled.final_vacancies);
  EXPECT_EQ(own.kmc_events, pooled.kmc_events);
  EXPECT_EQ(own.kmc_mc_time, pooled.kmc_mc_time);
}

}  // namespace
}  // namespace mmd::core
