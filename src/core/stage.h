#pragma once

#include <cstdint>
#include <vector>

#include "md/defects.h"

namespace mmd::comm {
class Comm;
}
namespace mmd::md {
class MdEngine;
}
namespace mmd::kmc {
class KmcEngine;
}

namespace mmd::core {

/// Policy of the SMARTS-style sampled long-time mode (scenario keys
/// `sample.*`, docs/SAMPLING.md): detailed KMC windows alternating with a
/// cheap stochastic-cluster-dynamics (SCD) warming propagator. `Off` is the
/// paper's all-detailed pipeline, byte-identical to the pre-pipeline runs.
struct SamplingPolicy {
  enum class Mode {
    Off,  ///< every KMC cycle is detailed (the default coupled pipeline)
    Scd,  ///< detailed windows + SCD warming strides between them
  };
  Mode mode = Mode::Off;
  /// Detailed KMC cycles per measured window.
  int window = 5;
  /// Coarse cycles covered by one SCD warming stride between windows. The
  /// stride's MC-time budget is the stride count times the per-cycle MC time
  /// measured in the preceding detailed window.
  int stride = 45;
  /// RNG-paired SCD replicates per warming stride; the replicate variance is
  /// what the confidence interval of the defect-count estimate comes from.
  int replicates = 8;

  bool enabled() const { return mode == Mode::Scd; }
  /// Throws std::invalid_argument on an unusable policy (window < 1,
  /// stride < 1, or replicates < 2 while mode is Scd).
  void validate() const;
};

/// MD->KMC handoff bookkeeping: the vacancy census and the surviving solute
/// arrangement, captured once from the MD lattice and applied to the KMC
/// model. Replaces the loose locals that used to thread between the engines
/// inside Simulation::run().
struct HandoffState {
  /// Global site ranks of this rank's owned vacancies.
  std::vector<std::int64_t> vacancy_sites;
  /// Global site ranks holding a Cu atom after the cascade: on-lattice atoms
  /// plus run-away Cu mapped to their nearest owned lattice site (the alloy
  /// arrangement survives the handoff, paper §1/§2.1.2).
  std::vector<std::int64_t> solute_sites;

  /// Census the owned vacancies and solute sites of the MD lattice.
  static HandoffState capture(const md::MdEngine& md);

  /// Collective: mark the solute sites on the KMC model and initialize the
  /// vacancy sites (ghosts included). The inverse of capture().
  void apply(comm::Comm& comm, kmc::KmcEngine& kmc) const;
};

/// Running defect-count estimate of the sampled mode: mean and 95% CI
/// halfwidth over the warming replicates of the most recent stride.
struct SampledStats {
  std::uint64_t windows = 0;   ///< completed window+warming pairs
  int replicates = 0;          ///< replicates per warming stride
  double est_clusters = 0.0;   ///< replicate-mean vacancy-cluster count
  double ci_halfwidth = 0.0;   ///< 1.96 * sd / sqrt(replicates)
  /// Per-replicate final cluster counts of the last warming (test hook for
  /// validating ci_halfwidth against the replicate variance; not persisted
  /// across checkpoint resume).
  std::vector<double> replicate_estimates;
};

/// Clocks threaded through the pipeline. The detailed engines advance
/// md_time_ps / kmc_mc_time_s; the SCD warming propagator advances
/// scd_time_s without touching the lattice.
struct StageClock {
  double md_time_ps = 0.0;
  double kmc_mc_time_s = 0.0;
  double scd_time_s = 0.0;
  double total_mc_time_s() const { return kmc_mc_time_s + scd_time_s; }
};

/// Per-rank state handed from stage to stage.
struct StageState {
  HandoffState handoff;
  /// Whether this run restored from a checkpoint, and from which KMC cycle;
  /// a restored run skips the MD cascade (md_defects and the handoff's
  /// vacancy_sites came from the epoch's census).
  bool restored = false;
  std::uint64_t restored_cycles = 0;
  /// Sampled-mode schedule position restored from a checkpoint (windows
  /// completed and SCD time accumulated before the crash).
  SampledStats sampled;
  md::DefectSummary md_defects;
  /// Rank-0 gathers of the global vacancy census before and after KMC.
  std::vector<std::int64_t> vacancies_before;
  std::vector<std::int64_t> vacancies_after;
  double vacancy_concentration = 0.0;
};

/// A composable propagator in the coupled pipeline. advance() is collective
/// across the in-process ranks: every rank calls it in pipeline order with
/// its own state, and the stage is free to communicate internally.
class StagePropagator {
 public:
  virtual ~StagePropagator() = default;
  virtual const char* name() const = 0;
  virtual void advance(comm::Comm& comm, StageState& state,
                       StageClock& clock) = 0;
};

}  // namespace mmd::core
