#include "core/simulation.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/pipeline.h"
#include "io/checkpoint_store.h"
#include "kmc/clusters.h"
#include "kmc/engine.h"
#include "kmc/scd.h"
#include "md/engine.h"
#include "md/slave_force.h"
#include "potential/eam.h"
#include "sunway/slave_pool.h"
#include "telemetry/session.h"

namespace mmd::core {

namespace {

kmc::KmcConfig kmc_config_from(const SimulationConfig& cfg) {
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

}  // namespace

std::string to_string(const SimulationReport& r) {
  std::ostringstream os;
  os << "MD stage: " << r.md_defects.atoms << " atoms, " << r.md_defects.vacancies
     << " vacancies, " << r.md_defects.interstitials << " interstitials ("
     << r.md_seconds << " s)\n";
  os << "KMC stage: " << r.kmc_events << " events, MC time " << r.kmc_mc_time
     << " s, C_MC " << r.vacancy_concentration << " (" << r.kmc_seconds
     << " s)\n";
  os << "Clusters after MD : " << r.clusters_after_md.num_clusters
     << " clusters, mean size " << r.clusters_after_md.mean_size
     << ", max " << r.clusters_after_md.max_size << "\n";
  os << "Clusters after KMC: " << r.clusters_after_kmc.num_clusters
     << " clusters, mean size " << r.clusters_after_kmc.mean_size
     << ", max " << r.clusters_after_kmc.max_size << "\n";
  os << "Temporal scale: " << r.real_time_days << " days";
  if (r.sampled.windows > 0) {
    os << "\nSampled mode: " << r.sampled.windows << " windows, "
       << r.sampled.replicates << " replicates, est. clusters "
       << r.sampled.est_clusters << " +/- " << r.sampled.ci_halfwidth;
  }
  return os.str();
}

SimulationAssets Simulation::build_assets(const SimulationConfig& cfg) {
  const pot::EamModel model =
      cfg.solute_fraction > 0.0
          ? pot::EamModel::iron_copper(cfg.md.lattice_constant, cfg.md.cutoff)
          : pot::EamModel::iron(cfg.md.lattice_constant, cfg.md.cutoff);
  SimulationAssets assets;
  assets.md_tables = std::make_shared<const pot::EamTableSet>(
      pot::EamTableSet::build(model, cfg.md.table_segments));
  // Equal resolutions need one build: the sets are immutable and shared.
  assets.kmc_tables =
      cfg.kmc_table_segments == cfg.md.table_segments
          ? assets.md_tables
          : std::make_shared<const pot::EamTableSet>(
                pot::EamTableSet::build(model, cfg.kmc_table_segments));
  return assets;
}

Simulation::Simulation(const SimulationConfig& cfg)
    : Simulation(cfg, build_assets(cfg)) {}

Simulation::Simulation(const SimulationConfig& cfg, SimulationAssets assets)
    : cfg_(cfg),
      md_tables_(std::move(assets.md_tables)),
      kmc_tables_(std::move(assets.kmc_tables)) {
  if (md_tables_ == nullptr || kmc_tables_ == nullptr) {
    throw std::invalid_argument("SimulationAssets must hold both table sets");
  }
  if (cfg_.use_slave_force && cfg_.solute_fraction > 0.0) {
    throw std::invalid_argument(
        "the slave-core force kernel is single-species; alloy runs "
        "(solute_fraction > 0) must use the reference path");
  }
}

SimulationReport Simulation::run() {
  cfg_.sampling.validate();
  SimulationReport report;
  std::mutex report_mutex;

  const md::MdSetup md_setup(cfg_.md, cfg_.nranks);
  const kmc::KmcConfig kmc_cfg = kmc_config_from(cfg_);
  const kmc::KmcSetup kmc_setup(kmc_cfg, cfg_.nranks);

  std::unique_ptr<io::CheckpointStore> store;
  if (!cfg_.checkpoint_dir.empty()) {
    store = std::make_unique<io::CheckpointStore>(cfg_.checkpoint_dir,
                                                  cfg_.nranks);
    store->set_keep_epochs(cfg_.checkpoint_keep);
    store->set_fault_injector(cfg_.fault_injector);
  }
  // Resume candidates, newest first; every rank tries them in lock step.
  std::vector<std::uint64_t> resume_epochs;
  if (store != nullptr && cfg_.resume) {
    resume_epochs = store->committed_epochs();
    std::reverse(resume_epochs.begin(), resume_epochs.end());
  }

  // Host thread budget for the slave force path: the rank threads plus every
  // rank's CPE workers never exceed the hardware threads.
  const std::size_t hw_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t rank_os_threads = std::max<std::size_t>(
      1, hw_threads / static_cast<std::size_t>(cfg_.nranks));

  comm::World world(cfg_.nranks);
  world.run([&](comm::Comm& comm) {
    md::MdEngine md_engine(cfg_.md, md_setup.geo, md_setup.dd, *md_tables_,
                           comm.rank());
    kmc::KmcEngine kmc_engine(kmc_cfg, kmc_setup.geo, kmc_setup.dd, *kmc_tables_,
                              comm.rank(), cfg_.kmc_strategy);
    // One rank = one core group (paper §2.1.2): each rank drives its own 64
    // CPEs, unless a campaign supplies its shared executor.
    std::unique_ptr<sw::SlaveCorePool> own_pool;
    sw::SlaveCorePool* pool = nullptr;
    std::unique_ptr<md::SlaveForceCompute> slave_force;
    if (cfg_.use_slave_force) {
      pool = cfg_.slave_pool;
      if (pool == nullptr) {
        own_pool = std::make_unique<sw::SlaveCorePool>(
            sw::SlaveCorePool::kSunwayCoreGroupSize,
            sw::LocalStore::kSunwayCapacity, sw::DmaCostModel{},
            rank_os_threads);
        pool = own_pool.get();
      }
      slave_force = std::make_unique<md::SlaveForceCompute>(
          *md_tables_, *pool, md::AccelStrategy::CompactedReuse);
      slave_force->set_simd(cfg_.use_simd_force);
      md_engine.use_slave_kernel(slave_force.get());
    }

    auto kmc_stage = std::make_unique<KmcStage>(cfg_, kmc_engine, store.get());
    StageState state;
    StageClock clock;
    kmc_stage->resume(comm, state, clock, resume_epochs);

    // --- the stage pipeline: MD cascade, then either the all-detailed KMC
    // stage or the sampled window/stride scheduler ---
    Pipeline pipeline;
    pipeline.add(std::make_unique<MdCascadeStage>(
        cfg_, static_cast<std::uint64_t>(md_setup.geo.num_sites()), md_engine));
    if (cfg_.sampling.enabled()) {
      auto scd = std::make_unique<kmc::ScdStage>(
          kmc_setup.geo,
          kmc::ScdParams::from(
              kmc_cfg, static_cast<std::uint64_t>(kmc_setup.geo.num_sites())),
          cfg_.sampling.replicates, cfg_.md.seed);
      pipeline.add(std::make_unique<SamplingScheduler>(
          cfg_, std::move(kmc_stage), std::move(scd)));
    } else {
      pipeline.add(std::move(kmc_stage));
    }
    const sw::SlaveCorePool::PoolActivity activity_before =
        pool != nullptr ? pool->activity() : sw::SlaveCorePool::PoolActivity{};
    const std::vector<double> stage_seconds = pipeline.run(comm, state, clock);

    // Oversubscription: rank threads plus CPE workers (a pool's calling
    // thread is the rank thread itself). Own pools add workers per rank; a
    // shared executor adds its workers once.
    const std::size_t nranks = static_cast<std::size_t>(comm.size());
    std::size_t threads = nranks;
    if (pool != nullptr) {
      threads += (pool->os_threads() - 1) * (own_pool != nullptr ? nranks : 1);
      telemetry::set_gauge("sw.pool.os_threads",
                           static_cast<double>(pool->os_threads()));
      telemetry::set_gauge(
          "sw.pool.contended_epochs",
          static_cast<double>(pool->activity().contended_epochs -
                              activity_before.contended_epochs));
    }
    telemetry::set_gauge("host.oversubscription",
                         static_cast<double>(threads) /
                             static_cast<double>(hw_threads));

    // Fold this rank into the report: stage times and the compute/comm split
    // are the values the gauges receive, maxed over ranks (the critical
    // path, as an MPI_Allreduce(MAX) would give); events sum over ranks.
    std::lock_guard lk(report_mutex);
    report.md_seconds = std::max(report.md_seconds, stage_seconds.front());
    report.kmc_seconds = std::max(report.kmc_seconds, stage_seconds.back());
    report.md_compute_seconds =
        std::max(report.md_compute_seconds, md_engine.computation_seconds());
    report.md_comm_seconds =
        std::max(report.md_comm_seconds, md_engine.communication_seconds());
    report.kmc_compute_seconds =
        std::max(report.kmc_compute_seconds, kmc_engine.computation_seconds());
    report.kmc_comm_seconds =
        std::max(report.kmc_comm_seconds, kmc_engine.communication_seconds());
    report.kmc_events += kmc_engine.stats().events;
    if (comm.rank() == 0) {
      report.md_defects = state.md_defects;
      report.clusters_after_md =
          kmc::cluster_vacancies(kmc_setup.geo, state.vacancies_before);
      report.clusters_after_kmc =
          kmc::cluster_vacancies(kmc_setup.geo, state.vacancies_after);
      report.kmc_mc_time = clock.total_mc_time_s();
      report.vacancy_concentration = state.vacancy_concentration;
      report.real_time_days =
          kmc::real_time_scale(clock.total_mc_time_s(),
                               state.vacancy_concentration,
                               kmc_cfg.temperature) /
          86400.0;
      report.final_vacancies = state.vacancies_after;
      report.resumed = state.restored;
      report.resumed_from_cycle = state.restored_cycles;
      report.sampled = state.sampled;
    }
  });
  return report;
}

}  // namespace mmd::core
