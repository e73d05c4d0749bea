#include "kmc/slave_rates.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "potential/table_access.h"
#include "telemetry/session.h"

namespace mmd::kmc {

SlaveRateCompute::SlaveRateCompute(const pot::EamTableSet& tables,
                                   sw::SlaveCorePool& pool)
    : tables_(&tables), pool_(&pool) {}

void SlaveRateCompute::run_pass(const KmcModel& model,
                                const std::vector<EventCandidate>& events,
                                Pass pass, std::vector<double>& before,
                                std::vector<double>& after) {
  before.assign(events.size(), 0.0);
  after.assign(events.size(), 0.0);
  const lat::LocalBox box = model.box();
  const SiteState* sites = model.raw_sites();

  // Contiguous fetch range covering every cutoff neighbor of a center.
  std::int64_t dmin = 0, dmax = 0;
  for (int sub = 0; sub <= 1; ++sub) {
    for (const std::int64_t d : model.cutoff_deltas(sub)) {
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
    }
  }
  const auto window_len = static_cast<std::size_t>(dmax - dmin + 1);

  pool_->parallel_for_chunks(events.size(), [&](sw::SlaveCtx& ctx,
                                                std::size_t lo_i,
                                                std::size_t hi_i) {
    // Per-core staging, allocated once: the state window plus the resident
    // majority-species (Fe-Fe) table of this pass — the paper's residency
    // policy; minority-pair lookups fall back to main memory.
    auto* window =
        static_cast<std::uint8_t*>(ctx.local_store->allocate(window_len, 1));
    if (window == nullptr) {
      throw std::runtime_error("SlaveRateCompute: window does not fit local store");
    }
    const pot::CompactTable& fe_table =
        pass == Pass::Density ? tables_->f(0, 0) : tables_->phi(0, 0);
    pot::CompactTableAccess fe_access(fe_table, *ctx.local_store, *ctx.dma, true);

    for (std::size_t i = lo_i; i < hi_i; ++i) {
      const EventCandidate ev = events[i];
      const auto t = static_cast<int>(model.state(ev.nb));

      auto accumulate = [&](std::size_t center, std::size_t exclude) {
        const lat::LocalCoord c = box.coord_of(center);
        // Stage the contiguous site-state range around the center: one DMA.
        const std::int64_t lo = static_cast<std::int64_t>(center) + dmin;
        ctx.dma->get(window, sites + lo, window_len);
        double sum = 0.0;
        const auto& offsets = model.cutoff_offsets(c.sub);
        const auto& deltas = model.cutoff_deltas(c.sub);
        for (std::size_t k = 0; k < offsets.size(); ++k) {
          const auto n = static_cast<std::size_t>(
              static_cast<std::int64_t>(center) + deltas[k]);
          if (n == exclude) continue;
          const auto s = static_cast<SiteState>(
              window[static_cast<std::int64_t>(n) - lo]);
          if (!is_atom(s)) continue;
          double v;
          if (t == 0 && static_cast<int>(s) == 0) {
            fe_access.eval(std::sqrt(offsets[k].dist2), &v, nullptr);
          } else if (pass == Pass::Density) {
            v = tables_->f(t, static_cast<int>(s)).value(std::sqrt(offsets[k].dist2));
          } else {
            v = tables_->phi(t, static_cast<int>(s)).value(std::sqrt(offsets[k].dist2));
          }
          sum += v;
        }
        return sum;
      };

      before[i] = accumulate(ev.nb, static_cast<std::size_t>(-1));
      // Pair pass: the hopping atom's old site is excluded from the new
      // environment. Density pass: keep it — the master-core epilogue
      // applies the pair-distance correction exactly as exchange_dE does.
      after[i] = accumulate(ev.vac, pass == Pass::Pair
                                        ? ev.nb
                                        : static_cast<std::size_t>(-1));
    }
  });
}

namespace {

sw::DmaStats dma_delta(const sw::DmaStats& after, const sw::DmaStats& before) {
  sw::DmaStats d;
  d.get_ops = after.get_ops - before.get_ops;
  d.put_ops = after.put_ops - before.put_ops;
  d.get_bytes = after.get_bytes - before.get_bytes;
  d.put_bytes = after.put_bytes - before.put_bytes;
  return d;
}

}  // namespace

const std::vector<double>& SlaveRateCompute::exchange_dE_batch(
    const KmcModel& model, const std::vector<EventCandidate>& events) {
  const sw::DmaStats at_start = pool_->aggregate_dma_stats();
  run_pass(model, events, Pass::Density, rho_before_, rho_after_);
  const sw::DmaStats after_density = pool_->aggregate_dma_stats();
  run_pass(model, events, Pass::Pair, pair_before_, pair_after_);
  const sw::DmaStats density = dma_delta(after_density, at_start);
  const sw::DmaStats pair =
      dma_delta(pool_->aggregate_dma_stats(), after_density);
  density_dma_ += density;
  pair_dma_ += pair;
  telemetry::count("kmc.rates.dma.density_bytes", density.total_bytes());
  telemetry::count("kmc.rates.dma.pair_bytes", pair.total_bytes());

  const auto& rho_before = rho_before_;
  const auto& rho_after = rho_after_;
  const auto& pair_before = pair_before_;
  const auto& pair_after = pair_after_;

  // Master-core epilogue: the pair-distance density correction (the hopping
  // atom no longer contributes to its own new host density) and the
  // embedding terms.
  const lat::LocalBox box = model.box();
  std::vector<double>& dE = de_;
  dE.assign(events.size(), 0.0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventCandidate ev = events[i];
    const auto t = static_cast<int>(model.state(ev.nb));
    const lat::LocalCoord cv = box.coord_of(ev.vac);
    double rho_corr = 0.0;
    const auto& offsets = model.cutoff_offsets(cv.sub);
    const auto& deltas = model.cutoff_deltas(cv.sub);
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      if (static_cast<std::size_t>(static_cast<std::int64_t>(ev.vac) +
                                   deltas[k]) == ev.nb) {
        rho_corr = tables_->f(t, t).value(std::sqrt(offsets[k].dist2));
        break;
      }
    }
    const auto& embed = tables_->embed_of(t);
    const double e_before = embed.value(rho_before[i]) + pair_before[i];
    const double e_after = embed.value(rho_after[i] - rho_corr) + pair_after[i];
    dE[i] = e_after - e_before;
  }
  return dE;
}

}  // namespace mmd::kmc
