#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/simulation.h"
#include "core/stage.h"

namespace mmd::io {
class CheckpointStore;
}
namespace mmd::kmc {
class ScdStage;
}

namespace mmd::core {

/// An ordered composition of stage propagators — the paper's fixed MD->KMC
/// handoff generalized so new propagators (the SCD warming stage, future
/// OKMC or rate-theory backends) plug in without touching the facade. One
/// Pipeline instance is built per rank inside Simulation::run(); run()
/// advances every stage in order and times each one into a
/// `stage.<name>.seconds` gauge.
class Pipeline {
 public:
  StagePropagator& add(std::unique_ptr<StagePropagator> stage);

  /// Collective across ranks: every rank calls run() with its own state.
  /// Returns each stage's advance() seconds in pipeline order: the values
  /// its `stage.<name>.seconds` gauges receive.
  std::vector<double> run(comm::Comm& comm, StageState& state,
                          StageClock& clock);

 private:
  std::vector<std::unique_ptr<StagePropagator>> stages_;
};

/// Stage 1 of the coupled pipeline: cascade-collision defect generation.
/// Initializes the lattice, seeds solutes, injects the PKAs, integrates the
/// cascade window and captures the census and the handoff; a
/// checkpoint-restored run skips it all (its census came from the epoch).
class MdCascadeStage : public StagePropagator {
 public:
  MdCascadeStage(const SimulationConfig& cfg, std::uint64_t num_sites,
                 md::MdEngine& md);

  const char* name() const override { return "md_cascade"; }
  void advance(comm::Comm& comm, StageState& state, StageClock& clock) override;

 private:
  const SimulationConfig& cfg_;
  std::uint64_t num_sites_;
  md::MdEngine& md_;
};

/// Stage 2: vacancy clustering and evolution on the KMC engine. Owns the
/// MD->KMC handoff application, the chunked cycle loop, the checkpoint
/// epochs it writes and the resume that reads them back, and the final
/// vacancy census. The begin/run_detailed/finish pieces are public so
/// SamplingScheduler can interleave detailed windows with SCD warming while
/// executing the byte-identical cycle sequence.
class KmcStage : public StagePropagator {
 public:
  KmcStage(const SimulationConfig& cfg, kmc::KmcEngine& kmc,
           io::CheckpointStore* store);

  const char* name() const override { return "kmc"; }
  void advance(comm::Comm& comm, StageState& state, StageClock& clock) override;

  /// Collective, before the pipeline runs: adopt the first of `epochs`
  /// (newest first, the same list on every rank) that EVERY rank validates,
  /// restoring the MD->KMC census, the KMC sites and engine state, the MD
  /// clock and the schedule position in `state`/`clock`. A rejected epoch
  /// makes all ranks fall back to the next one together; when none is
  /// usable the KMC sites are reset and the run starts fresh. No-op for an
  /// empty list.
  void resume(comm::Comm& comm, StageState& state, StageClock& clock,
              const std::vector<std::uint64_t>& epochs);

  /// Handoff application (fresh run) or pre-KMC census reconstruction
  /// (restored run); fills state.vacancies_before on rank 0.
  void begin(comm::Comm& comm, StageState& state);

  /// Advance the detailed engine to absolute cycle `target` (chunked at
  /// checkpoint-epoch boundaries; every epoch saves a stage-tagged META so a
  /// sampled schedule resumes mid-window). No-op when already there.
  void run_detailed(comm::Comm& comm, StageState& state, StageClock& clock,
                    std::uint64_t target);

  /// Final census + global concentration; fills state.vacancies_after.
  void finish(comm::Comm& comm, StageState& state, StageClock& clock);

  std::uint64_t detailed_done() const { return done_; }
  double mc_time() const;
  std::vector<std::int64_t> gather_vacancies(comm::Comm& comm) const;

 private:
  /// Collective: write checkpoint epoch done_ (per-rank file, then a manifest
  /// commit on rank 0 once every rank's write landed). A failed write on any
  /// rank abandons the epoch: the run keeps the previous good one instead of
  /// aborting.
  void save_epoch(comm::Comm& comm, const StageState& state,
                  const StageClock& clock);

  const SimulationConfig& cfg_;
  kmc::KmcEngine& kmc_;
  io::CheckpointStore* store_;
  std::uint64_t done_ = 0;
};

/// The SMARTS-style sampled schedule (docs/SAMPLING.md): alternate detailed
/// KMC windows with cheap SCD warming strides until the coverage target
/// (kmc.cycles, counted in detailed-equivalent cycles) is reached.
/// Detailed windows advance the lattice; warming strides advance the
/// population estimate and the clock only.
class SamplingScheduler : public StagePropagator {
 public:
  SamplingScheduler(const SimulationConfig& cfg,
                    std::unique_ptr<KmcStage> detailed,
                    std::unique_ptr<kmc::ScdStage> scd);
  ~SamplingScheduler() override;

  const char* name() const override { return "sampling"; }
  void advance(comm::Comm& comm, StageState& state, StageClock& clock) override;

 private:
  const SimulationConfig& cfg_;
  std::unique_ptr<KmcStage> detailed_;
  std::unique_ptr<kmc::ScdStage> scd_;
};

}  // namespace mmd::core
