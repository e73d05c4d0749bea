#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/world.h"
#include "kmc/comm_strategy.h"
#include "kmc/event_table.h"
#include "kmc/model.h"
#include "kmc/slave_rates.h"
#include "util/rng.h"

namespace mmd::kmc {

/// Aggregate statistics of a KMC run on one rank.
struct KmcStats {
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  double mc_time = 0.0;  ///< accumulated MC clock [s]
};

/// Everything beyond the site array that a checkpoint must capture for a
/// resumed run to continue bit-identically: the cycle counter seeds the
/// per-sector RNG streams, `last_max_rate` seeds the next cycle's dt
/// synchronization, and the generator state (not the seed!) pins the draw
/// sequence.
struct KmcEngineState {
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  double mc_time = 0.0;
  double last_max_rate = 0.0;
  std::uint64_t rng_state = 0;
};

/// Parallel AKMC engine implementing the semirigorous synchronous sublattice
/// method (Shim & Amar, paper Fig. 7):
///
///   per cycle: compute dt (global max-rate synchronization), then process
///   the 8 sectors of the subdomain sequentially. Within a sector, vacancy
///   exchange events are selected with BKL residence-time sampling until the
///   sector's local clock passes dt. Ghost consistency between sectors is
///   maintained by the pluggable GhostComm strategy (traditional full-shell
///   get/put vs the paper's on-demand updates).
///
/// With a fixed seed the event sequence is identical under every strategy,
/// which the equivalence tests exploit.
///
/// Candidate rates persist across cycles in a per-rank cache; sector entry
/// re-rates only blocks a journaled flip reached (DESIGN.md §5d).
class KmcEngine {
 public:
  KmcEngine(const KmcConfig& cfg, const lat::BccGeometry& geo,
            const lat::DomainDecomposition& dd, const pot::EamTableSet& tables,
            int rank, GhostStrategy strategy);

  /// Collective: scatter vacancies with the given concentration (seeded per
  /// site, decomposition-independent) and initialize ghosts. A nonzero
  /// `solute_fraction` additionally converts that fraction of the remaining
  /// atoms to Cu — the Fe-Cu configuration whose vacancy-driven solute
  /// transport models Cu precipitation in alpha-Fe (paper refs [1, 2]).
  /// Requires alloy tables when solute_fraction > 0.
  void initialize_random(comm::Comm& comm, double vacancy_concentration,
                         double solute_fraction = 0.0);

  /// Collective: vacancies at the given owned global site ranks (the MD
  /// handoff path) plus ghost initialization.
  void initialize_sites(comm::Comm& comm, std::span<const std::int64_t> owned_vacancies);

  /// Checkpoint capture of the engine state (site states live in model()).
  KmcEngineState engine_state() const;

  /// Collective: adopt a checkpointed engine state after the model's owned
  /// sites were restored; re-initializes ghost images from their owners.
  /// Replaces initialize_random/initialize_sites on the resume path.
  void restore_state(comm::Comm& comm, const KmcEngineState& s);

  /// Advance `n` cycles; returns events executed on this rank.
  std::uint64_t run_cycles(comm::Comm& comm, int n);

  /// Advance until the MC clock reaches the configured t_threshold.
  void run_to_threshold(comm::Comm& comm);

  double mc_time() const { return stats_.mc_time; }
  const KmcStats& stats() const { return stats_; }
  KmcModel& model() { return model_; }
  const KmcModel& model() const { return model_; }
  GhostComm& ghost_comm() { return ghosts_; }

  /// Gather every rank's vacancy site list on rank 0 (others get empty).
  std::vector<std::int64_t> gather_vacancies(comm::Comm& comm) const;

  /// Global vacancy concentration C_MC (collective).
  double vacancy_concentration(comm::Comm& comm) const;

  /// Wall-clock split between computation and communication since
  /// construction: the summed lengths of the engine's compute- and
  /// comm-charged spans (docs/OBSERVABILITY.md), charged whether or not a
  /// tracer is attached.
  double computation_seconds() const { return comp_s_; }
  double communication_seconds() const { return comm_s_; }

  /// Attach the slave-core rate kernel (nullptr restores the master-core
  /// path). Event energetics are identical either way.
  void use_slave_rates(SlaveRateCompute* kernel) { slave_rates_ = kernel; }

  /// Executed events as (vacancy gid, atom gid) pairs, recorded when
  /// cfg.record_events is set (test hook for sequence equivalence).
  const std::vector<std::pair<std::int64_t, std::int64_t>>& event_log() const {
    return event_log_;
  }

 private:
  /// Append the candidate events of the owned vacancy at `vac` (its occupied
  /// 1NNs) to batch_/slots_, in canonical nn-offset order, and zero its
  /// rate-cache block (apply_batch fills it), marking the block valid.
  void enumerate_candidates(std::size_t vac);

  /// Rate batch_ (slave kernel or master path), write the rates into the
  /// event table and the rate cache at slots_, and fold the per-batch
  /// maximum into *max_rate.
  void apply_batch(double* max_rate);

  /// Empty the model's flip journal, dropping every cached block inside the
  /// invalidation shell of a journaled entry, in any sector. Blocks of
  /// `sector` that need a table refresh (an owned vacancy, or a touched
  /// block gone stale) are collected into dirty_sites_.
  void drain_flips(int sector);

  /// Fill the sector's table: clear it, then enter every in-sector vacancy
  /// (scanning only the sector's own sites).
  /// The incremental path first drains the journal (flips since the last
  /// drain: ghost exchange, external writes), then copies each valid cached
  /// block and re-rates the rest. The kmc.incremental=off oracle discards
  /// the journal and re-rates every block: its per-executed-event cost.
  void build_sector_table(int sector, double* max_rate);

  /// Dirty-region maintenance after an executed swap: drain the journaled
  /// flips and refresh only the sector's candidate blocks inside their
  /// invalidation shells. Leaves the table bit-identical to what
  /// build_sector_table would produce without the cache.
  void update_after_event(int sector, double* max_rate);

  /// Collective tail of every init path: refresh the ghosts from their
  /// owners, then start the rate cache cold (empty journal, every block
  /// invalid), so checkpoints carry no rate state.
  void finish_initialize(comm::Comm& comm);

  /// The sector's local event phase: load the table, select and execute
  /// events until the sector clock passes dt, and return the final states of
  /// the touched sites for the ghost update.
  std::vector<SiteUpdate> execute_sector(int sector, double dt,
                                         std::uint64_t cycle);

  void process_sector(comm::Comm& comm, int sector, double dt,
                      std::uint64_t cycle);

  KmcConfig cfg_;
  KmcModel model_;
  GhostComm ghosts_;
  SlaveRateCompute* slave_rates_ = nullptr;
  util::Rng base_rng_;
  KmcStats stats_;
  double last_max_rate_ = 0.0;
  bool initialized_ = false;
  double comp_s_ = 0.0;
  double comm_s_ = 0.0;

  // --- incremental event-table state (reused scratch, no per-event allocs) ---
  EventTable table_;  ///< per-sector transient
  /// Cross-cycle rate cache, addressed like the table (ordinal·8 + k); a
  /// block is valid while no entry in its invalidation shell has flipped.
  std::vector<double> rate_cache_;
  std::vector<std::uint8_t> cache_valid_;  ///< per-ordinal block flags
  std::vector<EventCandidate> batch_;     ///< candidates awaiting rating
  std::vector<std::size_t> slots_;        ///< table slot per batch_ entry
  std::vector<double> de_scratch_;        ///< master-core path dE output
  std::vector<std::size_t> dirty_sites_;  ///< owned entries to refresh
  std::vector<std::uint8_t> dirty_mark_;  ///< per-ordinal dedup flags
  std::vector<std::uint8_t> sector_of_ord_;   ///< per-ordinal sector
  std::vector<std::size_t> sector_sites_[8];  ///< owned entries, owned order
  std::vector<std::pair<std::int64_t, std::int64_t>> event_log_;
  // Per-run telemetry accumulators, flushed once per sector.
  std::uint64_t rates_recomputed_ = 0;
  std::uint64_t rates_reused_ = 0;
  std::uint64_t candidates_seen_ = 0;
};

/// Geometry/decomposition pair for a KMC-only run.
struct KmcSetup {
  lat::BccGeometry geo;
  lat::DomainDecomposition dd;

  KmcSetup(const KmcConfig& cfg, int nranks);
};

}  // namespace mmd::kmc
