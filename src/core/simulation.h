#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stage.h"
#include "kmc/cluster_stats.h"
#include "kmc/ghost_strategy.h"
#include "md/config.h"
#include "md/defects.h"

namespace mmd::io {
class FaultInjector;
}
namespace mmd::pot {
struct EamTableSet;
}
namespace mmd::sw {
class SlaveCorePool;
}

namespace mmd::core {

/// Configuration of a coupled MD-KMC run (the paper's end-to-end pipeline:
/// MD simulates cascade-collision defect generation, KMC continues with
/// vacancy clustering and evolution at a much larger temporal scale).
struct SimulationConfig {
  md::MdConfig md;                 ///< box + MD parameters
  int nranks = 1;                  ///< in-process message-passing ranks
  /// Simulated cascade duration [ps]. The paper runs 50 ps; the default here
  /// is a downscaled window that still covers the ballistic phase of the
  /// modest PKA energies used at laptop scale.
  double md_time_ps = 0.08;
  int pka_count = 1;               ///< primary knock-on atoms
  double pka_energy_ev = 60.0;     ///< PKA kinetic energy
  /// Fe-Cu alloy mode: fraction of atoms substituted by Cu (0 = pure Fe).
  /// The solute arrangement survives the MD->KMC handoff, so the KMC stage
  /// evolves vacancies through the same alloy (paper §1/§2.1.2).
  double solute_fraction = 0.0;
  kmc::GhostStrategy kmc_strategy = kmc::GhostStrategy::OnDemandOneSided;
  int kmc_cycles = 50;             ///< KMC cycles after the MD stage
  double kmc_dt_scale = 1.0;
  int kmc_table_segments = 2000;   ///< KMC-side table resolution
  /// Incremental event tables (scenario key `kmc.incremental`): dirty-region
  /// rate rebuilds + O(log N) BKL selection. false selects the full-rescan
  /// oracle; both produce bit-identical event sequences.
  bool kmc_incremental = true;

  // --- sampled long-time mode (scenario keys `sample.*`, docs/SAMPLING.md) ---
  /// Off runs every KMC cycle detailed (the default pipeline, byte-identical
  /// to pre-pipeline builds); Scd alternates detailed measurement windows
  /// with stochastic-cluster-dynamics warming strides, trading exactness for
  /// a defect estimate with replicate-derived confidence intervals.
  SamplingPolicy sampling;

  // --- fault-tolerant checkpoint/restart (docs/CHECKPOINTING.md) ---
  /// KMC cycles between checkpoint epochs (0 disables periodic saving).
  int checkpoint_every = 0;
  /// Directory for the per-rank checkpoint files + MANIFEST. Empty disables
  /// checkpointing AND resuming.
  std::string checkpoint_dir;
  /// Resume from the newest committed epoch in checkpoint_dir that every
  /// rank can validate, falling back epoch by epoch on corruption; a fresh
  /// run starts when none is usable.
  bool resume = false;
  /// Committed epochs retained on disk (older ones are pruned at commit).
  int checkpoint_keep = 2;
  /// Test hook: injects write faults into the checkpoint store (not owned).
  io::FaultInjector* fault_injector = nullptr;

  // --- observability ---
  /// Comm flight-recorder trace output (scenario key `comm.trace`). Empty
  /// disables recording. The DRIVER owns this: it sizes the session's
  /// recorder and writes the trace file after the run (mmd_run writes the
  /// path as given; campaigns write it under the job's directory).
  std::string comm_trace;

  // --- execution backend ---
  /// Compute MD forces on the simulated slave-core pipeline instead of the
  /// reference master-core path (identical physics; see md::SlaveForceCompute).
  /// Single-species only: rejected when solute_fraction > 0.
  bool use_slave_force = false;
  /// Allow the AVX2 block kernels in the slave force path (scenario key
  /// `md.simd = auto|off`). True means auto: vectorize when the build and
  /// CPU support it and the sweep's tables are store-resident; false pins
  /// the scalar loops (for A/B runs and debugging).
  bool use_simd_force = true;
  /// Executor for the slave force path. In campaign service mode many
  /// concurrent jobs point at ONE pool and interleave epochs on it. nullptr
  /// gives each rank a private pool (one core group per rank), sized from
  /// the thread budget: max(1, hardware_concurrency / nranks) OS threads.
  /// Not owned; must outlive run().
  sw::SlaveCorePool* slave_pool = nullptr;
};

/// The immutable table assets a Simulation interpolates from. Building them
/// is the expensive part of construction (EAM spline sampling), and they are
/// read-only for the whole run — so campaign service mode builds each
/// distinct set once (serve::AssetCache) and shares it across every
/// concurrent job with the same potential/resolution.
struct SimulationAssets {
  std::shared_ptr<const pot::EamTableSet> md_tables;
  std::shared_ptr<const pot::EamTableSet> kmc_tables;
};

/// What the coupled run produced.
struct SimulationReport {
  md::DefectSummary md_defects;        ///< census after the MD stage
  kmc::ClusterStats clusters_after_md;  ///< vacancy clustering before KMC
  kmc::ClusterStats clusters_after_kmc; ///< ... and after
  std::uint64_t kmc_events = 0;
  double kmc_mc_time = 0.0;            ///< MC clock reached [s]
  double vacancy_concentration = 0.0;  ///< C_MC
  double real_time_days = 0.0;         ///< t_real via the paper's formula
  double md_seconds = 0.0;             ///< MD stage wall time, max over ranks
  double kmc_seconds = 0.0;            ///< KMC (or sampling) stage wall time
  double md_compute_seconds = 0.0;     ///< max over ranks
  double md_comm_seconds = 0.0;
  double kmc_compute_seconds = 0.0;
  double kmc_comm_seconds = 0.0;
  /// Global vacancy site ranks after the KMC stage (for visualization and
  /// further analysis).
  std::vector<std::int64_t> final_vacancies;
  /// Whether this run restarted from a checkpoint, and from which KMC cycle.
  /// Deliberately absent from to_string(): a resumed run's report must be
  /// byte-identical to an uninterrupted one (restart equivalence).
  bool resumed = false;
  std::uint64_t resumed_from_cycle = 0;
  /// Sampled-mode estimate (windows == 0 on an all-detailed run, and the
  /// sampled lines are then absent from to_string() — default-mode output
  /// stays byte-identical to pre-pipeline builds).
  SampledStats sampled;
};

std::string to_string(const SimulationReport& r);

/// The public facade: one object owning the substrates, running the coupled
/// MD-KMC damage simulation end to end across the in-process ranks.
///
///   core::SimulationConfig cfg;
///   cfg.md.nx = cfg.md.ny = cfg.md.nz = 12;
///   cfg.nranks = 4;
///   core::Simulation sim(cfg);
///   auto report = sim.run();
class Simulation {
 public:
  explicit Simulation(const SimulationConfig& cfg);

  /// Construct with externally shared assets (campaign service mode). Both
  /// table sets must be non-null and match what build_assets(cfg) would
  /// produce in potential kind and segment counts.
  Simulation(const SimulationConfig& cfg, SimulationAssets assets);

  /// Build the table assets `cfg` implies (what the single-argument
  /// constructor does internally; serve::AssetCache calls this on misses).
  static SimulationAssets build_assets(const SimulationConfig& cfg);

  /// Execute the full pipeline; collective across cfg.nranks ranks. Records
  /// into the calling thread's current telemetry session, if any, and
  /// creates none: without one the run is untraced.
  SimulationReport run();

  const SimulationConfig& config() const { return cfg_; }
  const pot::EamTableSet& tables() const { return *md_tables_; }

 private:
  SimulationConfig cfg_;
  std::shared_ptr<const pot::EamTableSet> md_tables_;
  std::shared_ptr<const pot::EamTableSet> kmc_tables_;
};

}  // namespace mmd::core
