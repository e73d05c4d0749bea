#include "kmc/scd.h"

#include <algorithm>
#include <cmath>

#include "comm/world.h"
#include "kmc/clusters.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/stats.h"

namespace mmd::kmc {

namespace {

constexpr std::uint64_t kScdSeedSalt = 0x5cd5cd5cdull;

}  // namespace

ScdParams ScdParams::from(const KmcConfig& cfg, std::uint64_t sites) {
  ScdParams p;
  p.prefactor = cfg.prefactor;
  p.migration_barrier_ev = cfg.migration_barrier;
  p.temperature_k = cfg.temperature;
  p.sites = std::max<std::uint64_t>(sites, 1);
  return p;
}

ScdModel::ScdModel(const ScdParams& params) : p_(params) {
  kT_ = util::units::kBoltzmann * p_.temperature_k;
  jump_rate_ = p_.prefactor * std::exp(-p_.migration_barrier_ev / kT_);
  pop_.assign(2, 0);
}

void ScdModel::seed(const ClusterStats& census) {
  pop_.assign(2, 0);
  for (const auto& [size, count] : census.size_histogram.bins()) {
    if (size <= 0 || count == 0) continue;
    const auto s = static_cast<std::size_t>(size);
    if (pop_.size() <= s) pop_.resize(s + 1, 0);
    pop_[s] += count;
  }
}

double ScdModel::binding_ev(std::uint64_t s) const {
  if (s < 2) return 0.0;
  // Capillarity interpolation between the divacancy and the bulk limit.
  const double sd = static_cast<double>(s);
  const double geom =
      (std::cbrt(sd * sd) - std::cbrt((sd - 1.0) * (sd - 1.0))) /
      (std::cbrt(4.0) - 1.0);
  return p_.binding_bulk_ev - (p_.binding_bulk_ev - p_.binding_dimer_ev) * geom;
}

double ScdModel::absorption_rate(std::uint64_t s) const {
  const double n1 = static_cast<double>(pop_[1]);
  const double vol = static_cast<double>(p_.sites);
  if (s == 1) {
    // Dimerization: unordered monovacancy pairs.
    return p_.capture_factor * jump_rate_ * n1 * (n1 - 1.0) / (2.0 * vol);
  }
  const double ns = static_cast<double>(pop_[s]);
  // Capture cross-section grows with the cluster radius ~ s^(1/3).
  return p_.capture_factor * jump_rate_ * std::cbrt(static_cast<double>(s)) *
         n1 * ns / vol;
}

double ScdModel::emission_rate(std::uint64_t s) const {
  if (s < 2) return 0.0;
  const double ns = static_cast<double>(pop_[s]);
  const double sd = static_cast<double>(s);
  // Surface sites ~ s^(2/3) can each attempt the (E_m + E_b) escape.
  return p_.prefactor * std::cbrt(sd * sd) * ns *
         std::exp(-(p_.migration_barrier_ev + binding_ev(s)) / kT_);
}

std::uint64_t ScdModel::total_vacancies() const {
  std::uint64_t total = 0;
  for (std::size_t s = 1; s < pop_.size(); ++s) {
    total += s * pop_[s];
  }
  return total;
}

std::uint64_t ScdModel::cluster_count() const {
  std::uint64_t total = 0;
  for (std::size_t s = 1; s < pop_.size(); ++s) total += pop_[s];
  return total;
}

std::uint64_t ScdModel::advance(double time_budget_s, util::Rng& rng,
                                std::uint64_t max_events) {
  std::uint64_t events = 0;
  double t = 0.0;
  std::vector<double> rates;  // [absorption s=1.., emission s=2..] interleaved
  while (events < max_events) {
    rates.clear();
    double total = 0.0;
    const std::size_t top = pop_.size();
    for (std::size_t s = 1; s < top; ++s) {
      const double a = pop_[s] > 0 && pop_[1] > 0 ? absorption_rate(s) : 0.0;
      const double e = pop_[s] > 0 ? emission_rate(s) : 0.0;
      rates.push_back(a);
      rates.push_back(e);
      total += a + e;
    }
    if (!(total > 0.0)) break;  // absorbing state: time still passes
    const double u = 1.0 - rng.uniform();  // (0, 1], log-safe
    const double dt = -std::log(u) / total;
    if (t + dt > time_budget_s) break;
    t += dt;
    // BKL selection over the class rates.
    double pick = rng.uniform() * total;
    std::size_t chosen = rates.size() - 1;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      pick -= rates[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    const std::size_t s = chosen / 2 + 1;
    const bool absorption = (chosen % 2) == 0;
    if (absorption) {
      if (s == 1) {
        if (pop_.size() <= 2) pop_.resize(3, 0);
        pop_[1] -= 2;
        pop_[2] += 1;
      } else {
        if (pop_.size() <= s + 1) pop_.resize(s + 2, 0);
        pop_[1] -= 1;
        pop_[s] -= 1;
        pop_[s + 1] += 1;
      }
    } else {
      pop_[s] -= 1;
      pop_[1] += 1;
      if (s - 1 >= 2) {
        pop_[s - 1] += 1;
      } else {
        pop_[1] += 1;
      }
    }
    ++events;
  }
  return events;
}

ScdStage::ScdStage(const lat::BccGeometry& geo, const ScdParams& params,
                   int replicates, std::uint64_t seed)
    : geo_(geo), params_(params), replicates_(replicates), seed_(seed) {}

void ScdStage::set_window(std::uint64_t window_index, double time_budget_s) {
  window_index_ = window_index;
  time_budget_s_ = std::max(time_budget_s, 0.0);
}

void ScdStage::advance(comm::Comm& comm, core::StageState& state,
                       core::StageClock& clock) {
  MMD_TRACE_SCOPE("sim.scd");
  std::uint64_t events = 0;
  if (comm.rank() == 0) {
    const ClusterStats census = cluster_vacancies(geo_, state.vacancies_after);
    ScdModel model(params_);
    model.seed(census);
    const std::vector<std::uint64_t> seed_pop = model.save();
    util::RunningStats est;
    std::vector<double> finals;
    finals.reserve(static_cast<std::size_t>(replicates_));
    for (int r = 0; r < replicates_; ++r) {
      model.restore(seed_pop);
      util::Rng rng = util::Rng(seed_ ^ kScdSeedSalt)
                          .split(window_index_)
                          .split(static_cast<std::uint64_t>(r));
      events += model.advance(time_budget_s_, rng);
      const double final_clusters = static_cast<double>(model.cluster_count());
      finals.push_back(final_clusters);
      est.add(final_clusters);
    }
    state.sampled.est_clusters = est.mean();
    state.sampled.ci_halfwidth =
        1.96 * std::sqrt(est.variance() /
                         static_cast<double>(std::max(replicates_, 1)));
    state.sampled.replicate_estimates = std::move(finals);
    telemetry::count("scd.events", events);
    telemetry::set_gauge("sample.ci.halfwidth", state.sampled.ci_halfwidth);
  }
  state.sampled.replicates = replicates_;
  clock.scd_time_s += time_budget_s_;
}

}  // namespace mmd::kmc
