// The stage-pipeline refactor contract:
//   - the default pipeline (MdCascadeStage -> KmcStage) is behavior-
//     preserving: a frozen in-test copy of the pre-refactor monolithic
//     Simulation::run() body (the "legacy oracle") must produce bit-identical
//     physics across ghost strategies, rank counts, and the alloy path,
//   - the MD->KMC handoff is one core::HandoffState capture/apply pair,
//   - sampled mode (SamplingScheduler + kmc::ScdStage) checkpoints and
//     resumes bit-identically mid-schedule, estimates are rank-count
//     independent, and the detailed work it executes is a fraction of the
//     all-detailed run's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "comm/world.h"
#include "core/simulation.h"
#include "core/stage.h"
#include "kmc/clusters.h"
#include "kmc/engine.h"
#include "md/engine.h"
#include "potential/eam.h"
#include "util/rng.h"

namespace mmd {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path d = fs::path(::testing::TempDir()) / ("mmd_pipe_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

core::SimulationConfig tiny_config() {
  core::SimulationConfig cfg;
  cfg.md.nx = cfg.md.ny = cfg.md.nz = 8;
  cfg.md.temperature = 300.0;
  cfg.md.table_segments = 800;
  cfg.kmc_table_segments = 400;
  cfg.md_time_ps = 0.03;
  cfg.pka_count = 2;
  cfg.pka_energy_ev = 70.0;
  cfg.kmc_cycles = 6;
  cfg.nranks = 1;
  return cfg;
}

/// What the legacy oracle produces (the physics fields of SimulationReport;
/// wall times are the one legitimate difference between two runs).
struct LegacyReport {
  md::DefectSummary md_defects;
  kmc::ClusterStats clusters_after_md;
  kmc::ClusterStats clusters_after_kmc;
  std::uint64_t kmc_events = 0;
  double kmc_mc_time = 0.0;
  double vacancy_concentration = 0.0;
  double real_time_days = 0.0;
  std::vector<std::int64_t> final_vacancies;
};

kmc::KmcConfig kmc_config_from(const core::SimulationConfig& cfg) {
  kmc::KmcConfig k;
  k.nx = cfg.md.nx;
  k.ny = cfg.md.ny;
  k.nz = cfg.md.nz;
  k.lattice_constant = cfg.md.lattice_constant;
  k.cutoff = cfg.md.cutoff;
  k.temperature = cfg.md.temperature;
  k.seed = cfg.md.seed;
  k.dt_scale = cfg.kmc_dt_scale;
  k.table_segments = cfg.kmc_table_segments;
  k.incremental = cfg.kmc_incremental;
  return k;
}

/// Frozen copy of the pre-refactor Simulation::run() body (fresh-run path,
/// no checkpointing): the runtime oracle the refactored pipeline is compared
/// against. Deliberately NOT sharing stage code with the production path.
LegacyReport legacy_run(const core::SimulationConfig& cfg) {
  const auto assets = core::Simulation::build_assets(cfg);
  const md::MdSetup md_setup(cfg.md, cfg.nranks);
  const kmc::KmcConfig kmc_cfg = kmc_config_from(cfg);
  const kmc::KmcSetup kmc_setup(kmc_cfg, cfg.nranks);

  LegacyReport report;
  std::mutex report_mutex;
  comm::World world(cfg.nranks);
  world.run([&](comm::Comm& comm) {
    md::MdEngine md_engine(cfg.md, md_setup.geo, md_setup.dd,
                           *assets.md_tables, comm.rank());
    kmc::KmcEngine kmc_engine(kmc_cfg, kmc_setup.geo, kmc_setup.dd,
                              *assets.kmc_tables, comm.rank(),
                              cfg.kmc_strategy);

    // --- MD stage: cascade-collision defect generation ---
    md_engine.initialize(comm);
    if (cfg.solute_fraction > 0.0) {
      md_engine.seed_solutes(comm, cfg.solute_fraction);
    }
    util::Rng rng(cfg.md.seed ^ 0x7a3d5e9bull);
    for (int p = 0; p < cfg.pka_count; ++p) {
      const auto site = static_cast<std::int64_t>(rng.uniform_index(
          static_cast<std::uint64_t>(md_setup.geo.num_sites())));
      md_engine.inject_pka(comm, site, rng.unit_vector(), cfg.pka_energy_ev);
    }
    md_engine.run_for(comm, cfg.md_time_ps);
    const auto defects = md_engine.defects(comm);

    // --- handoff ---
    std::vector<std::int64_t> vac_sites;
    for (const auto& v : md_engine.vacancies()) {
      vac_sites.push_back(v.site_rank);
    }

    // --- KMC stage ---
    if (cfg.solute_fraction > 0.0) {
      auto& lnl = md_engine.lattice();
      for (std::size_t idx : lnl.owned_indices()) {
        const lat::AtomEntry& e = lnl.entry(idx);
        if (e.is_atom() && e.type == lat::Species::Cu) {
          kmc_engine.model().set_state_global(lnl.site_rank(idx),
                                              kmc::SiteState::Cu);
        }
      }
      lnl.for_each_owned_runaway([&](std::int32_t ri, std::size_t) {
        const lat::RunawayAtom& a = lnl.runaway(ri);
        if (a.type == lat::Species::Cu) {
          const std::size_t host = lnl.nearest_owned_entry(a.r);
          kmc_engine.model().set_state_global(lnl.site_rank(host),
                                              kmc::SiteState::Cu);
        }
      });
    }
    kmc_engine.initialize_sites(comm, vac_sites);
    const auto before = kmc_engine.gather_vacancies(comm);
    kmc_engine.run_cycles(comm, cfg.kmc_cycles);
    const auto after = kmc_engine.gather_vacancies(comm);
    const double c_mc = kmc_engine.vacancy_concentration(comm);
    const std::uint64_t events =
        comm.allreduce_sum_u64(kmc_engine.stats().events);

    if (comm.rank() == 0) {
      std::lock_guard lk(report_mutex);
      report.md_defects = defects;
      report.clusters_after_md = kmc::cluster_vacancies(kmc_setup.geo, before);
      report.clusters_after_kmc = kmc::cluster_vacancies(kmc_setup.geo, after);
      report.kmc_events = events;
      report.kmc_mc_time = kmc_engine.mc_time();
      report.vacancy_concentration = c_mc;
      report.real_time_days =
          kmc::real_time_scale(kmc_engine.mc_time(), c_mc,
                               kmc_cfg.temperature) /
          86400.0;
      report.final_vacancies = after;
    }
  });
  return report;
}

/// Bit identity: every physics field compares with ==, doubles included.
void expect_matches_oracle(const LegacyReport& a,
                           const core::SimulationReport& b) {
  EXPECT_EQ(a.md_defects.atoms, b.md_defects.atoms);
  EXPECT_EQ(a.md_defects.vacancies, b.md_defects.vacancies);
  EXPECT_EQ(a.md_defects.interstitials, b.md_defects.interstitials);
  EXPECT_EQ(a.kmc_events, b.kmc_events);
  EXPECT_EQ(a.kmc_mc_time, b.kmc_mc_time);
  EXPECT_EQ(a.vacancy_concentration, b.vacancy_concentration);
  EXPECT_EQ(a.real_time_days, b.real_time_days);
  EXPECT_EQ(a.clusters_after_md.num_vacancies,
            b.clusters_after_md.num_vacancies);
  EXPECT_EQ(a.clusters_after_md.num_clusters,
            b.clusters_after_md.num_clusters);
  EXPECT_EQ(a.clusters_after_md.mean_size, b.clusters_after_md.mean_size);
  EXPECT_EQ(a.clusters_after_md.max_size, b.clusters_after_md.max_size);
  EXPECT_EQ(a.clusters_after_kmc.num_vacancies,
            b.clusters_after_kmc.num_vacancies);
  EXPECT_EQ(a.clusters_after_kmc.num_clusters,
            b.clusters_after_kmc.num_clusters);
  EXPECT_EQ(a.clusters_after_kmc.mean_size, b.clusters_after_kmc.mean_size);
  EXPECT_EQ(a.clusters_after_kmc.max_size, b.clusters_after_kmc.max_size);
  EXPECT_EQ(a.final_vacancies, b.final_vacancies);
}

// ---------------------------------------------------------------------------

TEST(PipelineEquivalence, DefaultPipelineMatchesLegacyOracleSerial) {
  const auto cfg = tiny_config();
  expect_matches_oracle(legacy_run(cfg), core::Simulation(cfg).run());
}

TEST(PipelineEquivalence, DefaultPipelineMatchesLegacyOracleParallel) {
  auto cfg = tiny_config();
  cfg.nranks = 4;
  expect_matches_oracle(legacy_run(cfg), core::Simulation(cfg).run());
}

TEST(PipelineEquivalence, DefaultPipelineMatchesLegacyOracleAllStrategies) {
  for (const auto strategy :
       {kmc::GhostStrategy::Traditional, kmc::GhostStrategy::OnDemandTwoSided,
        kmc::GhostStrategy::OnDemandOneSided}) {
    auto cfg = tiny_config();
    // Traditional ghosts need >= 5 cells per axis per rank.
    cfg.md.nx = cfg.md.ny = cfg.md.nz = 10;
    cfg.nranks = 2;
    cfg.kmc_strategy = strategy;
    expect_matches_oracle(legacy_run(cfg), core::Simulation(cfg).run());
  }
}

TEST(PipelineEquivalence, DefaultPipelineMatchesLegacyOracleAlloy) {
  auto cfg = tiny_config();
  cfg.nranks = 2;
  cfg.solute_fraction = 0.08;
  expect_matches_oracle(legacy_run(cfg), core::Simulation(cfg).run());
}

TEST(PipelineEquivalence, DefaultReportHasNoSampledLines) {
  const auto r = core::Simulation(tiny_config()).run();
  EXPECT_EQ(r.sampled.windows, 0u);
  EXPECT_EQ(core::to_string(r).find("Sampled mode"), std::string::npos);
}

// ---------------------------------------------------------------------------

TEST(HandoffState, CaptureMatchesEngineCensusAndAppliesToKmc) {
  auto cfg = tiny_config();
  cfg.solute_fraction = 0.08;
  const auto assets = core::Simulation::build_assets(cfg);
  const md::MdSetup md_setup(cfg.md, 1);
  const kmc::KmcConfig kmc_cfg = kmc_config_from(cfg);
  const kmc::KmcSetup kmc_setup(kmc_cfg, 1);

  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    md::MdEngine md_engine(cfg.md, md_setup.geo, md_setup.dd,
                           *assets.md_tables, comm.rank());
    md_engine.initialize(comm);
    md_engine.seed_solutes(comm, cfg.solute_fraction);
    util::Rng rng(cfg.md.seed ^ 0x7a3d5e9bull);
    md_engine.inject_pka(comm, 64, rng.unit_vector(), cfg.pka_energy_ev);
    md_engine.run_for(comm, cfg.md_time_ps);

    const auto handoff = core::HandoffState::capture(md_engine);

    // The captured vacancies are exactly the engine's census, in order.
    std::vector<std::int64_t> expected;
    for (const auto& v : md_engine.vacancies()) {
      expected.push_back(v.site_rank);
    }
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(handoff.vacancy_sites, expected);
    // The alloy arrangement was captured too.
    EXPECT_FALSE(handoff.solute_sites.empty());

    // apply() reproduces the handoff on a KMC model: every captured vacancy
    // site is a vacancy, every captured solute site is Cu (a site can be
    // both captured as solute host and later vacated — vacancy wins).
    kmc::KmcEngine kmc_engine(kmc_cfg, kmc_setup.geo, kmc_setup.dd,
                              *assets.kmc_tables, comm.rank(),
                              cfg.kmc_strategy);
    handoff.apply(comm, kmc_engine);
    const auto vacancies = kmc_engine.gather_vacancies(comm);
    EXPECT_EQ(vacancies.size(), expected.size());
    for (const std::int64_t gid : vacancies) {
      EXPECT_TRUE(std::find(expected.begin(), expected.end(), gid) !=
                  expected.end());
    }
  });
}

// ---------------------------------------------------------------------------

core::SimulationConfig sampled_config() {
  auto cfg = tiny_config();
  cfg.nranks = 2;
  cfg.kmc_cycles = 32;  // schedule: 4+12+4+12 = two windows, two strides
  cfg.sampling.mode = core::SamplingPolicy::Mode::Scd;
  cfg.sampling.window = 4;
  cfg.sampling.stride = 12;
  cfg.sampling.replicates = 6;
  return cfg;
}

TEST(SampledMode, ReportCarriesWindowsAndConfidenceInterval) {
  const auto r = core::Simulation(sampled_config()).run();
  EXPECT_EQ(r.sampled.windows, 2u);
  EXPECT_EQ(r.sampled.replicates, 6);
  EXPECT_GT(r.sampled.est_clusters, 0.0);
  EXPECT_GE(r.sampled.ci_halfwidth, 0.0);
  // The SCD clock extended the MC time beyond what the detailed engine ran.
  EXPECT_GT(r.kmc_mc_time, 0.0);
  const std::string s = core::to_string(r);
  EXPECT_NE(s.find("Sampled mode"), std::string::npos);
  EXPECT_NE(s.find("2 windows"), std::string::npos);
}

TEST(SampledMode, EstimatesIndependentOfRankCount) {
  auto serial = sampled_config();
  serial.nranks = 1;
  const auto rs = core::Simulation(serial).run();
  const auto rp = core::Simulation(sampled_config()).run();
  // The detailed windows are rank-count invariant (synchronous sublattice
  // with a fixed seed), the census is a global gather, and the replicate RNG
  // streams are keyed by (seed, window, replicate) only.
  EXPECT_EQ(rs.sampled.windows, rp.sampled.windows);
  EXPECT_EQ(rs.sampled.est_clusters, rp.sampled.est_clusters);
  EXPECT_EQ(rs.sampled.ci_halfwidth, rp.sampled.ci_halfwidth);
}

TEST(SampledMode, ExecutesFarFewerDetailedEventsThanAllDetailed) {
  auto detailed = sampled_config();
  detailed.sampling.mode = core::SamplingPolicy::Mode::Off;
  const auto rd = core::Simulation(detailed).run();
  const auto rs = core::Simulation(sampled_config()).run();
  // 8 of 32 cycles are detailed, so the sampled run must execute well under
  // half the detailed events (generous bound; the wall-clock >=5x claim is
  // pinned by BENCH_sampled_campaign against its committed baseline).
  EXPECT_GT(rd.kmc_events, 0u);
  EXPECT_LT(rs.kmc_events * 2, rd.kmc_events + 1);
  // Both runs cover the same MC-time target order: the sampled clock is the
  // detailed prefix plus the SCD strides.
  EXPECT_GT(rs.kmc_mc_time, 0.0);
}

TEST(SampledMode, ResumesMidScheduleBitIdentically) {
  const std::string dir = fresh_dir("sampled_resume");

  // Uninterrupted sampled run: the reference.
  const auto full = core::Simulation(sampled_config()).run();

  // "Killed" run: first window + first stride only (16 of 32 coarse cycles),
  // checkpointing at every 4 detailed cycles.
  auto half = sampled_config();
  half.kmc_cycles = 16;
  half.checkpoint_dir = dir;
  half.checkpoint_every = 4;
  const auto killed = core::Simulation(half).run();
  EXPECT_FALSE(killed.resumed);
  EXPECT_EQ(killed.sampled.windows, 1u);

  // Resume and finish the full schedule.
  auto rest = sampled_config();
  rest.checkpoint_dir = dir;
  rest.checkpoint_every = 4;
  rest.resume = true;
  const auto resumed = core::Simulation(rest).run();
  EXPECT_TRUE(resumed.resumed);

  EXPECT_EQ(full.sampled.windows, resumed.sampled.windows);
  EXPECT_EQ(full.sampled.est_clusters, resumed.sampled.est_clusters);
  EXPECT_EQ(full.sampled.ci_halfwidth, resumed.sampled.ci_halfwidth);
  EXPECT_EQ(full.kmc_events, resumed.kmc_events);
  EXPECT_EQ(full.kmc_mc_time, resumed.kmc_mc_time);
  EXPECT_EQ(full.final_vacancies, resumed.final_vacancies);
  EXPECT_EQ(full.vacancy_concentration, resumed.vacancy_concentration);
  fs::remove_all(dir);
}

TEST(SampledMode, DetailedCheckpointRejectedUnderSampledSchedule) {
  const std::string dir = fresh_dir("sampled_stage_tag");

  // A default-pipeline checkpoint...
  auto detailed = tiny_config();
  detailed.nranks = 2;
  detailed.kmc_cycles = 4;
  detailed.checkpoint_dir = dir;
  detailed.checkpoint_every = 4;
  core::Simulation(detailed).run();

  // ...must not be adopted by a sampled-schedule resume: the stage tag
  // mismatch falls back to a fresh run instead of mispositioning the
  // scheduler.
  auto sampled = sampled_config();
  sampled.checkpoint_dir = dir;
  sampled.checkpoint_every = 4;
  sampled.resume = true;
  const auto r = core::Simulation(sampled).run();
  EXPECT_FALSE(r.resumed);
  EXPECT_EQ(r.sampled.windows, 2u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mmd
