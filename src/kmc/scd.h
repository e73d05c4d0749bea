#pragma once

#include <cstdint>
#include <vector>

#include "core/stage.h"
#include "kmc/cluster_stats.h"
#include "kmc/model.h"
#include "util/rng.h"

namespace mmd::kmc {

/// Parameters of the stochastic cluster dynamics (SCD) estimator — the
/// coarse propagator of the sampled long-time mode (PAPERS.md, arXiv
/// 1412.0640; docs/SAMPLING.md). Rate constants are seeded from the same
/// migration energetics the detailed KMC model uses, so the coarse and
/// detailed propagators describe the same material.
struct ScdParams {
  double prefactor = 1e13;           ///< attempt frequency nu [1/s]
  double migration_barrier_ev = 0.7; ///< monovacancy migration barrier E_m
  double temperature_k = 600.0;
  /// Binding energy of a divacancy / of a vacancy to the bulk void surface
  /// [eV]; sizes in between follow the capillarity interpolation
  /// Eb(s) = Eb_inf - (Eb_inf - Eb_2) * (s^(2/3) - (s-1)^(2/3)) / (2^(2/3) - 1).
  double binding_dimer_ev = 0.2;
  double binding_bulk_ev = 1.86;
  /// Geometric capture efficiency of the absorption rate (dimensionless).
  double capture_factor = 1.0;
  /// Lattice sites in the box — the concentration normalization volume.
  std::uint64_t sites = 1;

  /// Derive from the KMC stage's configuration and box size.
  static ScdParams from(const KmcConfig& cfg, std::uint64_t sites);
};

/// Mean-field stochastic cluster dynamics over vacancy-cluster size classes:
/// the population n_s (number of clusters of s vacancies) evolves by
/// monovacancy absorption, dimerization, and thermal emission, selected with
/// BKL residence-time sampling over the aggregate class rates. Every event
/// moves whole vacancies between classes, so the total vacancy count
/// sum(s * n_s) is conserved exactly — the invariant the sanity tests pin.
///
/// This is O(size classes) per event instead of O(lattice sites), which is
/// what makes warming strides between detailed windows nearly free.
class ScdModel {
 public:
  explicit ScdModel(const ScdParams& params);

  /// Seed the population from a detailed-window cluster census.
  void seed(const ClusterStats& census);

  /// Advance the population by `time_budget_s` of MC time (BKL loop; stops
  /// early only when every rate is zero or `max_events` is hit). Returns the
  /// events executed.
  std::uint64_t advance(double time_budget_s, util::Rng& rng,
                        std::uint64_t max_events = 1u << 20);

  std::uint64_t total_vacancies() const;
  /// Number of clusters, singletons included — comparable to
  /// ClusterStats::num_clusters.
  std::uint64_t cluster_count() const;
  /// n_s, indexed by cluster size (index 0 unused).
  const std::vector<std::uint64_t>& population() const { return pop_; }

  /// Window save/restore: replicates restart from the same seeded
  /// population, paired only by their RNG streams.
  std::vector<std::uint64_t> save() const { return pop_; }
  void restore(std::vector<std::uint64_t> pop) { pop_ = std::move(pop); }

  /// Binding energy of size-s cluster losing one vacancy [eV] (s >= 2).
  double binding_ev(std::uint64_t s) const;

 private:
  double absorption_rate(std::uint64_t s) const;  ///< monovacancy + size-s
  double emission_rate(std::uint64_t s) const;    ///< size-s -> (s-1) + mono

  ScdParams p_;
  double kT_ = 1.0;
  double jump_rate_ = 0.0;  ///< nu * exp(-E_m / kT)
  std::vector<std::uint64_t> pop_;  ///< pop_[s] = clusters of size s
};

/// The coarse stage propagator of the sampled pipeline: between two detailed
/// KMC windows it advances the cluster-population estimate with RNG-paired
/// ScdModel replicates seeded from the latest window's vacancy census
/// (state.vacancies_after, a rank-0 gather). advance() moves
/// clock.scd_time_s forward by the configured time budget on every rank and
/// folds the replicate mean / CI into state.sampled on rank 0.
class ScdStage : public core::StagePropagator {
 public:
  ScdStage(const lat::BccGeometry& geo, const ScdParams& params,
           int replicates, std::uint64_t seed);

  const char* name() const override { return "scd"; }

  /// Configure the next warming stride: `window_index` keys the replicate
  /// RNG streams (so a resumed schedule replays the same draws) and
  /// `time_budget_s` is the MC time the stride covers.
  void set_window(std::uint64_t window_index, double time_budget_s);

  void advance(comm::Comm& comm, core::StageState& state,
               core::StageClock& clock) override;

 private:
  const lat::BccGeometry& geo_;
  ScdParams params_;
  int replicates_;
  std::uint64_t seed_;
  std::uint64_t window_index_ = 0;
  double time_budget_s_ = 0.0;
};

}  // namespace mmd::kmc
