#include "core/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/checkpoint.h"
#include "io/checkpoint_store.h"
#include "kmc/engine.h"
#include "kmc/scd.h"
#include "md/engine.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mmd::core {

namespace {

/// The META stage tag: the name of the stage that runs the KMC side, so a
/// sampled epoch never resumes under the all-detailed schedule or back.
const char* stage_tag(const SimulationConfig& cfg) {
  return cfg.sampling.enabled() ? "sampling" : "kmc";
}

}  // namespace

StagePropagator& Pipeline::add(std::unique_ptr<StagePropagator> stage) {
  stages_.push_back(std::move(stage));
  return *stages_.back();
}

std::vector<double> Pipeline::run(comm::Comm& comm, StageState& state,
                                  StageClock& clock) {
  std::vector<double> seconds;
  for (auto& stage : stages_) {
    const util::Timer wall;
    stage->advance(comm, state, clock);
    seconds.push_back(wall.elapsed());
    telemetry::set_gauge(std::string("stage.") + stage->name() + ".seconds",
                         seconds.back());
  }
  return seconds;
}

// --- MdCascadeStage ---

MdCascadeStage::MdCascadeStage(const SimulationConfig& cfg,
                               std::uint64_t num_sites, md::MdEngine& md)
    : cfg_(cfg), num_sites_(num_sites), md_(md) {}

void MdCascadeStage::advance(comm::Comm& comm, StageState& state,
                             StageClock& clock) {
  if (!state.restored) {
    // --- MD stage: cascade-collision defect generation ---
    MMD_TRACE_SCOPE("sim.md");
    md_.initialize(comm);
    if (cfg_.solute_fraction > 0.0) {
      md_.seed_solutes(comm, cfg_.solute_fraction);
    }
    util::Rng rng(cfg_.md.seed ^ 0x7a3d5e9bull);
    for (int p = 0; p < cfg_.pka_count; ++p) {
      const auto site = static_cast<std::int64_t>(rng.uniform_index(num_sites_));
      md_.inject_pka(comm, site, rng.unit_vector(), cfg_.pka_energy_ev);
    }
    md_.run_for(comm, cfg_.md_time_ps);
  }
  // A restored run skips the dynamics (the lattice was loaded) but still
  // produces the census and the handoff from the frozen MD lattice.
  state.md_defects = md_.defects(comm);
  state.handoff = HandoffState::capture(md_);
  clock.md_time_ps = md_.simulated_time();
  telemetry::set_gauge("md.compute_seconds", md_.computation_seconds());
  telemetry::set_gauge("md.comm_seconds", md_.communication_seconds());
}

// --- KmcStage ---

KmcStage::KmcStage(const SimulationConfig& cfg, kmc::KmcEngine& kmc,
                   md::MdEngine& md, io::CheckpointStore* store)
    : cfg_(cfg), kmc_(kmc), md_(md), store_(store) {}

double KmcStage::mc_time() const { return kmc_.mc_time(); }

std::vector<std::int64_t> KmcStage::gather_vacancies(comm::Comm& comm) const {
  return kmc_.gather_vacancies(comm);
}

void KmcStage::begin(comm::Comm& comm, StageState& state) {
  done_ = state.restored ? state.restored_cycles : 0;
  if (!state.restored) {
    state.handoff.apply(comm, kmc_);
    state.vacancies_before = kmc_.gather_vacancies(comm);
  } else {
    // The restored sites already contain the handoff (vacancies AND any
    // solute arrangement); reconstruct the pre-KMC vacancy census from
    // the frozen MD lattice instead of the evolved KMC state.
    state.vacancies_before = comm.gather_to<std::int64_t>(
        0, state.handoff.vacancy_sites, comm::tags::kSimVacancyGather);
    std::sort(state.vacancies_before.begin(), state.vacancies_before.end());
  }
}

void KmcStage::run_detailed(comm::Comm& comm, StageState& state,
                            StageClock& clock, std::uint64_t target) {
  // Chunked run_cycles calls execute the identical cycle sequence, so
  // checkpointing does not perturb the physics.
  while (done_ < target) {
    std::uint64_t chunk = target - done_;
    if (store_ != nullptr && cfg_.checkpoint_every > 0) {
      const auto every = static_cast<std::uint64_t>(cfg_.checkpoint_every);
      chunk = std::min(chunk, every - done_ % every);
    }
    kmc_.run_cycles(comm, static_cast<int>(chunk));
    done_ += chunk;
    if (store_ != nullptr && cfg_.checkpoint_every > 0 &&
        done_ % static_cast<std::uint64_t>(cfg_.checkpoint_every) == 0) {
      save_epoch(comm, state, clock);
    }
  }
}

void KmcStage::save_epoch(comm::Comm& comm, const StageState& state,
                          const StageClock& clock) {
  MMD_TRACE_SCOPE("sim.checkpoint");
  util::Timer t;
  std::ostringstream os;
  io::Checkpoint::write_file_header(os);
  io::Checkpoint::MetaState meta;
  meta.rank = comm.rank();
  meta.nranks = comm.size();
  meta.seed = cfg_.md.seed;
  meta.md_time_ps = md_.simulated_time();
  meta.kmc = kmc_.engine_state();
  meta.stage_tag = stage_tag(cfg_);
  meta.sample_windows = state.sampled.windows;
  meta.scd_time_s = clock.scd_time_s;
  meta.sample_est_clusters = state.sampled.est_clusters;
  meta.sample_ci_halfwidth = state.sampled.ci_halfwidth;
  io::Checkpoint::write_meta_section(os, meta);
  io::Checkpoint::write_md_section(os, md_.lattice(), md_.simulated_time());
  io::Checkpoint::write_kmc_section(os, kmc_.model(), meta.kmc.mc_time);
  const std::string blob = os.str();
  const bool ok = store_->write_rank_blob(done_, comm.rank(), blob);
  telemetry::count("ckpt.bytes", blob.size());
  telemetry::observe("ckpt.write_seconds", t.elapsed());
  const std::uint64_t failures = comm.allreduce_sum_u64(ok ? 0u : 1u);
  if (failures == 0) {
    if (comm.rank() == 0) {
      if (store_->commit_epoch(done_)) {
        telemetry::count("ckpt.epochs");
      } else {
        telemetry::count("ckpt.failed_epochs");
      }
    }
  } else {
    store_->discard_rank_blob(done_, comm.rank());
    if (comm.rank() == 0) {
      telemetry::count("ckpt.failed_epochs");
      std::fprintf(stderr,
                   "mmd: checkpoint epoch %llu failed on %llu rank(s); "
                   "keeping the previous epoch\n",
                   static_cast<unsigned long long>(done_),
                   static_cast<unsigned long long>(failures));
    }
  }
  comm.barrier();
}

void KmcStage::resume(comm::Comm& comm, StageState& state, StageClock& clock,
                      const std::vector<std::uint64_t>& epochs) {
  for (const std::uint64_t epoch : epochs) {
    io::Checkpoint::MetaState meta;
    bool ok = true;
    std::string error;
    try {
      const auto blob = store_->read_rank_blob(epoch, comm.rank());
      if (!blob) throw std::runtime_error("missing rank file");
      std::istringstream is(*blob);
      io::Checkpoint::read_file_header(is);
      meta = io::Checkpoint::read_meta_section(is);
      if (meta.rank != comm.rank() || meta.nranks != comm.size() ||
          meta.seed != cfg_.md.seed || meta.stage_tag != stage_tag(cfg_)) {
        throw std::runtime_error(
            "checkpoint was written by a different run configuration");
      }
      md_.set_simulated_time(io::Checkpoint::read_md_section(is, md_.lattice()));
      io::Checkpoint::read_kmc_section(is, kmc_.model());
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
    if (comm.allreduce_sum_u64(ok ? 0u : 1u) == 0) {
      kmc_.restore_state(comm, meta.kmc);
      // Events executed before the checkpoint re-enter the registry so a
      // resumed run's metrics carry the same totals as an uninterrupted one.
      if (meta.kmc.events > 0) telemetry::count("kmc.events", meta.kmc.events);
      telemetry::count("ckpt.resumed_ranks");
      state.restored = true;
      state.restored_cycles = meta.kmc.cycles;
      // Sampled-schedule position: the scheduler re-enters the window/
      // stride loop exactly where the interrupted run left off.
      state.sampled.windows = meta.sample_windows;
      state.sampled.est_clusters = meta.sample_est_clusters;
      state.sampled.ci_halfwidth = meta.sample_ci_halfwidth;
      if (cfg_.sampling.enabled()) {
        state.sampled.replicates = cfg_.sampling.replicates;
      }
      clock.scd_time_s = meta.scd_time_s;
      return;
    }
    telemetry::count("ckpt.load_fallbacks");
    if (!ok) {
      std::fprintf(stderr,
                   "mmd: rank %d: checkpoint epoch %llu rejected (%s); "
                   "falling back\n",
                   comm.rank(), static_cast<unsigned long long>(epoch),
                   error.c_str());
    }
  }
  if (!epochs.empty()) {
    // A partially-applied failed load must not leak into a fresh run.
    for (std::size_t i = 0; i < kmc_.model().size(); ++i) {
      kmc_.model().set_state(i, kmc::SiteState::Fe);
    }
  }
}

void KmcStage::finish(comm::Comm& comm, StageState& state, StageClock& clock) {
  state.vacancies_after = kmc_.gather_vacancies(comm);
  state.vacancy_concentration = kmc_.vacancy_concentration(comm);
  clock.kmc_mc_time_s = kmc_.mc_time();
  telemetry::set_gauge("kmc.compute_seconds", kmc_.computation_seconds());
  telemetry::set_gauge("kmc.comm_seconds", kmc_.communication_seconds());
}

void KmcStage::advance(comm::Comm& comm, StageState& state, StageClock& clock) {
  MMD_TRACE_SCOPE("sim.kmc");
  begin(comm, state);
  run_detailed(comm, state, clock, static_cast<std::uint64_t>(cfg_.kmc_cycles));
  finish(comm, state, clock);
}

// --- SamplingScheduler ---

SamplingScheduler::SamplingScheduler(const SimulationConfig& cfg,
                                     std::unique_ptr<KmcStage> detailed,
                                     std::unique_ptr<kmc::ScdStage> scd)
    : cfg_(cfg), detailed_(std::move(detailed)), scd_(std::move(scd)) {}

SamplingScheduler::~SamplingScheduler() = default;

void SamplingScheduler::advance(comm::Comm& comm, StageState& state,
                                StageClock& clock) {
  MMD_TRACE_SCOPE("sim.kmc");
  const auto target = static_cast<std::uint64_t>(cfg_.kmc_cycles);
  const auto window = static_cast<std::uint64_t>(cfg_.sampling.window);
  const auto stride = static_cast<std::uint64_t>(cfg_.sampling.stride);
  detailed_->begin(comm, state);
  // Schedule position: `covered` counts detailed-equivalent cycles. On a
  // mid-schedule resume state.sampled.windows and detailed_done() come from
  // the checkpoint META, so the loop re-enters exactly where the interrupted
  // run left off (strides never touch the lattice, so the detailed cycle
  // sequence is the all-detailed run's prefix either way).
  std::uint64_t windows = state.sampled.windows;
  std::uint64_t covered = detailed_->detailed_done() + windows * stride;
  while (covered < target) {
    const std::uint64_t done = detailed_->detailed_done();
    const bool stride_pending =
        done > 0 && done % window == 0 && windows < done / window;
    if (!stride_pending) {
      // Detailed window (a partial one when resuming mid-window or when the
      // coverage target lands inside it).
      const std::uint64_t w =
          std::min(window - done % window, target - covered);
      detailed_->run_detailed(comm, state, clock, done + w);
      covered += w;
      continue;
    }
    // Warming stride: seed the SCD estimator from the current census and
    // advance it by the stride's MC-time budget. The budget derives from the
    // cumulative per-cycle MC time, which is a pure function of checkpointed
    // engine state — a resumed schedule recomputes the identical budget.
    const std::uint64_t stride_cov = std::min(stride, target - covered);
    const double dt_cycle = detailed_->mc_time() / static_cast<double>(done);
    state.vacancies_after = detailed_->gather_vacancies(comm);
    scd_->set_window(windows, dt_cycle * static_cast<double>(stride_cov));
    scd_->advance(comm, state, clock);
    covered += stride_cov;
    ++windows;
    state.sampled.windows = windows;
    if (comm.rank() == 0) {
      telemetry::set_gauge("sample.windows", static_cast<double>(windows));
    }
  }
  state.sampled.windows = windows;
  state.sampled.replicates = cfg_.sampling.replicates;
  detailed_->finish(comm, state, clock);
}

}  // namespace mmd::core
