#include "kmc/engine.h"

#include <algorithm>
#include <cmath>

#include "telemetry/session.h"
#include "telemetry/trace.h"

namespace mmd::kmc {

KmcSetup::KmcSetup(const KmcConfig& cfg, int nranks)
    : geo(cfg.nx, cfg.ny, cfg.nz, cfg.lattice_constant),
      dd(geo, nranks,
         lat::required_halo_cells(cfg.lattice_constant, cfg.cutoff) + 1) {}

KmcEngine::KmcEngine(const KmcConfig& cfg, const lat::BccGeometry& geo,
                     const lat::DomainDecomposition& dd,
                     const pot::EamTableSet& tables, int rank,
                     GhostStrategy strategy)
    : cfg_(cfg),
      model_(cfg, geo, dd, tables, rank),
      ghosts_(geo, dd, rank, model_.box().halo, strategy),
      base_rng_(cfg.seed) {
  const std::size_t n_owned = model_.owned_indices().size();
  table_.reset(n_owned);
  rate_cache_.assign(n_owned * EventTable::kSlotsPerSite, 0.0);
  cache_valid_.assign(n_owned, 0);
  dirty_mark_.assign(n_owned, 0);
  // Sector bits: the upper half of the box along x (1), y (2) and z (4).
  const lat::LocalBox& b = model_.box();
  sector_of_ord_.reserve(n_owned);
  for (const std::size_t idx : model_.owned_indices()) {
    const lat::LocalCoord c = b.coord_of(idx);
    const int s = (c.z >= b.lz / 2 ? 4 : 0) | (c.y >= b.ly / 2 ? 2 : 0) |
                  (c.x >= b.lx / 2 ? 1 : 0);
    sector_of_ord_.push_back(static_cast<std::uint8_t>(s));
    sector_sites_[s].push_back(idx);
  }
}

void KmcEngine::finish_initialize(comm::Comm& comm) {
  {
    MMD_TRACE_SCOPE_CHARGE("kmc.ghost.init", comm_s_);
    ghosts_.initialize(comm, model_);
  }
  model_.clear_flips();
  std::fill(cache_valid_.begin(), cache_valid_.end(), 0);
  initialized_ = true;
}

void KmcEngine::initialize_random(comm::Comm& comm, double vacancy_concentration,
                                  double solute_fraction) {
  const util::Rng site_rng(cfg_.seed ^ 0x5eedf00dull);
  for (std::size_t idx : model_.owned_indices()) {
    util::Rng r = site_rng.split(
        static_cast<std::uint64_t>(model_.site_rank_of(idx)));
    SiteState s = SiteState::Fe;
    if (r.uniform() < vacancy_concentration) {
      s = SiteState::Vacancy;
    } else if (solute_fraction > 0.0 && r.uniform() < solute_fraction) {
      s = SiteState::Cu;
    }
    model_.set_state(idx, s);
  }
  finish_initialize(comm);
}

void KmcEngine::initialize_sites(comm::Comm& comm,
                                 std::span<const std::int64_t> owned_vacancies) {
  for (std::int64_t gid : owned_vacancies) {
    model_.set_state_global(gid, SiteState::Vacancy);
  }
  finish_initialize(comm);
}

KmcEngineState KmcEngine::engine_state() const {
  KmcEngineState s;
  s.events = stats_.events;
  s.cycles = stats_.cycles;
  s.mc_time = stats_.mc_time;
  s.last_max_rate = last_max_rate_;
  s.rng_state = base_rng_.state();
  return s;
}

void KmcEngine::restore_state(comm::Comm& comm, const KmcEngineState& s) {
  stats_.events = s.events;
  stats_.cycles = s.cycles;
  stats_.mc_time = s.mc_time;
  last_max_rate_ = s.last_max_rate;
  base_rng_.set_state(s.rng_state);
  finish_initialize(comm);
}

void KmcEngine::enumerate_candidates(std::size_t vac) {
  const lat::LocalBox& b = model_.box();
  const lat::LocalCoord c = b.coord_of(vac);
  const std::uint32_t ord = model_.owned_ordinal(vac);
  // A neighbour that holds no atom has no candidate: its slot stays 0.
  const std::size_t base = std::size_t{ord} * EventTable::kSlotsPerSite;
  std::fill_n(&rate_cache_[base], EventTable::kSlotsPerSite, 0.0);
  cache_valid_[ord] = 1;
  const auto& nn = model_.nn_offsets(c.sub);
  for (std::size_t k = 0; k < nn.size(); ++k) {
    const auto& o = nn[k];
    const lat::LocalCoord n{c.x + o.dx, c.y + o.dy, c.z + o.dz, o.to_sub};
    if (!b.in_storage(n)) continue;
    const std::size_t ni = b.entry_index(n);
    if (!is_atom(model_.state(ni))) continue;
    batch_.push_back({vac, ni});
    slots_.push_back(base + k);
  }
}

void KmcEngine::apply_batch(double* max_rate) {
  // Exchange energies: master-core path, or batched on the slave cores
  // (paper §2.2 — the same interpolation machinery as MD). Each dE is a pure
  // function of its candidate's neighborhood, so rating a dirty subset gives
  // bit-identical values to rating the full population.
  const std::vector<double>* dE;
  if (slave_rates_ != nullptr) {
    dE = &slave_rates_->exchange_dE_batch(model_, batch_);
  } else {
    de_scratch_.clear();
    de_scratch_.reserve(batch_.size());
    for (const EventCandidate& ev : batch_) {
      de_scratch_.push_back(model_.exchange_dE(ev.vac, ev.nb));
    }
    dE = &de_scratch_;
  }
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const double k = model_.rate((*dE)[i]);
    table_.set_rate(EventTable::site_of(slots_[i]),
                    EventTable::offset_of(slots_[i]), k);
    rate_cache_[slots_[i]] = k;
    if (max_rate != nullptr) *max_rate = std::max(*max_rate, k);
  }
  rates_recomputed_ += batch_.size();
}

void KmcEngine::drain_flips(int sector) {
  const lat::LocalBox& b = model_.box();
  // Shells are symmetric: the owned entries in a flipped entry's shell are
  // exactly the blocks whose rates read it (each local image journals alone).
  for (const std::size_t f : model_.flips()) {
    const lat::LocalCoord c = b.coord_of(f);
    for (const auto& o : model_.invalidation_offsets(c.sub)) {
      const lat::LocalCoord n{c.x + o.dx, c.y + o.dy, c.z + o.dz, o.to_sub};
      if (!b.owns(n)) continue;
      const std::size_t idx = b.entry_index(n);
      const std::uint32_t ord = model_.owned_ordinal(idx);
      cache_valid_[ord] = 0;
      if (dirty_mark_[ord] != 0 || sector_of_ord_[ord] != sector) continue;
      // Refresh an in-sector vacancy (rates or partners changed) or a block
      // holding stale slots (its site stopped being a vacancy).
      if (model_.state(idx) != SiteState::Vacancy && !table_.site_touched(ord)) continue;
      dirty_mark_[ord] = 1;
      dirty_sites_.push_back(idx);
    }
  }
  model_.clear_flips();
}

void KmcEngine::build_sector_table(int sector, double* max_rate) {
  MMD_TRACE_SCOPE("kmc.rates.build");
  if (cfg_.incremental) {
    drain_flips(-1);  // no sector is -1: invalidate only, collect nothing
  } else {
    model_.clear_flips();
  }
  table_.clear();
  batch_.clear();
  slots_.clear();
  for (const std::size_t idx : sector_sites_[sector]) {
    if (model_.state(idx) != SiteState::Vacancy) continue;
    const std::uint32_t ord = model_.owned_ordinal(idx);
    if (!cfg_.incremental || cache_valid_[ord] == 0) {
      enumerate_candidates(idx);
      continue;
    }
    // A cache hit is the double a fresh rating would give; it also feeds
    // max_rate, hence the next cycle's dt allreduce.
    const double* cached = &rate_cache_[std::size_t{ord} * EventTable::kSlotsPerSite];
    for (int k = 0; k < EventTable::kSlotsPerSite; ++k) {
      if (cached[k] == 0.0) continue;
      table_.set_rate(ord, k, cached[k]);
      *max_rate = std::max(*max_rate, cached[k]);
      ++rates_reused_;
    }
  }
  apply_batch(max_rate);
}

void KmcEngine::update_after_event(int sector, double* max_rate) {
  MMD_TRACE_SCOPE("kmc.rates.update");
  dirty_sites_.clear();
  drain_flips(sector);
  batch_.clear();
  slots_.clear();
  for (const std::size_t idx : dirty_sites_) {
    table_.clear_site(model_.owned_ordinal(idx));
    if (model_.state(idx) == SiteState::Vacancy) enumerate_candidates(idx);
  }
  apply_batch(max_rate);
  for (const std::size_t idx : dirty_sites_) {
    dirty_mark_[model_.owned_ordinal(idx)] = 0;
  }
  // Candidates that survived the event untouched — the rescan path would
  // have recomputed all of them. Every batch entry rates nonzero (rate() is
  // an exponential), so active-after minus the batch is exactly the reuse.
  rates_reused_ += table_.active_slots() - batch_.size();
}

std::vector<SiteUpdate> KmcEngine::execute_sector(int sector, double dt,
                                                  std::uint64_t cycle) {
  MMD_TRACE_SCOPE_CHARGE("kmc.execute", comp_s_);
  util::Rng rng = base_rng_.split(cycle * 8 + static_cast<std::uint64_t>(sector))
                      .split(static_cast<std::uint64_t>(model_.rank()) + 1);
  const lat::LocalBox& b = model_.box();
  double max_rate = 0.0;
  build_sector_table(sector, &max_rate);

  std::vector<std::int64_t> touched;
  double tau = 0.0;
  while (true) {
    const double total = table_.total();
    if (total <= 0.0) break;
    // BKL residence time: advance the sector clock before executing; if the
    // event would land beyond dt it is not executed this cycle.
    tau += -std::log(std::max(rng.uniform(), 1e-300)) / total;
    if (tau > dt) break;
    const double pick = rng.uniform() * total;
    const std::size_t slot = table_.sample(pick);
    if (slot == EventTable::npos) break;  // FP guard; total() > 0 above
    candidates_seen_ += table_.active_slots();
    // Decode the canonical slot back into the candidate it addresses: the
    // block's owned site is the vacancy, the in-block index its 1NN offset.
    const std::size_t vac = model_.owned_indices()[EventTable::site_of(slot)];
    const lat::LocalCoord cv = b.coord_of(vac);
    const auto& o = model_.nn_offsets(cv.sub)[static_cast<std::size_t>(
        EventTable::offset_of(slot))];
    const std::size_t nb =
        b.entry_index({cv.x + o.dx, cv.y + o.dy, cv.z + o.dz, o.to_sub});
    const std::int64_t gid_vac = model_.site_rank_of(vac);
    const std::int64_t gid_atom = model_.site_rank_of(nb);
    const SiteState atom = model_.state(nb);
    if (cfg_.record_events) event_log_.emplace_back(gid_vac, gid_atom);
    model_.set_state_global(gid_vac, atom);
    model_.set_state_global(gid_atom, SiteState::Vacancy);
    touched.push_back(gid_vac);
    touched.push_back(gid_atom);
    ++stats_.events;
    if (cfg_.incremental) {
      update_after_event(sector, &max_rate);
    } else {
      build_sector_table(sector, &max_rate);
    }
  }
  last_max_rate_ = std::max(last_max_rate_, max_rate);
  // The table is per-sector transient: leave it empty so the next sector
  // (and a checkpoint-resumed engine) starts from the same clean slate.
  table_.clear();

  // Final states of all touched sites (a site may have been swapped twice).
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::vector<SiteUpdate> updates;
  updates.reserve(touched.size());
  std::vector<std::size_t> images;
  for (std::int64_t gid : touched) {
    model_.images_of_global(gid, images);
    updates.push_back({gid, static_cast<std::int32_t>(model_.state(images[0])), 0});
  }
  return updates;
}

void KmcEngine::process_sector(comm::Comm& comm, int sector, double dt,
                               std::uint64_t cycle) {
  MMD_TRACE_SCOPE("kmc.sector");
  const std::uint64_t events_before = stats_.events;
  {
    MMD_TRACE_SCOPE_CHARGE("kmc.ghost.before", comm_s_);
    ghosts_.before_sector(comm, model_, sector);
  }
  const std::vector<SiteUpdate> updates = execute_sector(sector, dt, cycle);
  {
    MMD_TRACE_SCOPE_CHARGE("kmc.ghost.after", comm_s_);
    ghosts_.after_sector(comm, model_, sector, updates);
  }

  const std::uint64_t executed = stats_.events - events_before;
  if (executed > 0) telemetry::count("kmc.events", executed);
  telemetry::observe("kmc.sector_events", static_cast<double>(executed));
  // Event-table bookkeeping counters, accumulated per event and flushed once
  // per sector to keep registry lookups off the hot loop.
  if (rates_recomputed_ > 0) {
    telemetry::count("kmc.rates.recomputed", rates_recomputed_);
    rates_recomputed_ = 0;
  }
  if (rates_reused_ > 0) {
    telemetry::count("kmc.rates.reused", rates_reused_);
    rates_reused_ = 0;
  }
  if (candidates_seen_ > 0) {
    telemetry::count("kmc.events.candidates", candidates_seen_);
    candidates_seen_ = 0;
  }
}

std::uint64_t KmcEngine::run_cycles(comm::Comm& comm, int n) {
  const std::uint64_t before = stats_.events;
  // Upper bound on any single-event rate: barrier clamped at min_barrier.
  const double k_bound = cfg_.prefactor *
                         std::exp(-cfg_.min_barrier /
                                  (util::units::kBoltzmann * cfg_.temperature));
  for (int i = 0; i < n; ++i) {
    MMD_TRACE_SCOPE("kmc.cycle");
    // Time synchronization (paper: "collective operations used for time
    // synchronization"): dt derives from the fastest event seen globally in
    // the previous cycle, bounded by the analytic maximum.
    double k_max = 0.0;
    {
      MMD_TRACE_SCOPE_CHARGE("kmc.dt_sync", comm_s_);
      k_max = comm.allreduce_max(last_max_rate_);
    }
    if (k_max <= 0.0) k_max = k_bound;
    const double dt = cfg_.dt_scale / k_max;
    last_max_rate_ = 0.0;
    for (int sector = 0; sector < 8; ++sector) {
      process_sector(comm, sector, dt, stats_.cycles);
    }
    stats_.mc_time += dt;
    ++stats_.cycles;
    telemetry::count("kmc.cycles");
  }
  return stats_.events - before;
}

void KmcEngine::run_to_threshold(comm::Comm& comm) {
  while (stats_.mc_time < cfg_.t_threshold) {
    run_cycles(comm, 1);
  }
}

std::vector<std::int64_t> KmcEngine::gather_vacancies(comm::Comm& comm) const {
  const auto mine = model_.owned_vacancy_sites();
  auto all = comm.gather_to<std::int64_t>(0, mine, comm::tags::kKmcVacancyGather);
  std::sort(all.begin(), all.end());
  return all;
}

double KmcEngine::vacancy_concentration(comm::Comm& comm) const {
  const auto vac = comm.allreduce_sum_u64(
      static_cast<std::uint64_t>(model_.count_owned_vacancies()));
  return static_cast<double>(vac) /
         static_cast<double>(model_.geometry().num_sites());
}

}  // namespace mmd::kmc
