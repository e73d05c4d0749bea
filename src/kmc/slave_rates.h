#pragma once

#include <cstdint>
#include <vector>

#include "kmc/model.h"
#include "sunway/slave_pool.h"

namespace mmd::kmc {

/// A candidate vacancy-exchange event (local storage indices).
struct EventCandidate {
  std::size_t vac = 0;
  std::size_t nb = 0;
};

/// Slave-core accelerated exchange-energy evaluation (paper §2.2: the KMC
/// EAM interpolation "is the same as MD and can be accelerated by the slave
/// cores").
///
/// Candidates are partitioned over the slave cores by
/// SlaveCorePool::parallel_for_chunks: a core without candidates is not
/// invoked, and an empty batch makes no launch. Each invoked core stages the
/// compacted table of the active pass in its local store and, per candidate,
/// DMAs the two (2h+1)^3-cell site-state windows around the vacancy and its
/// partner (a few hundred bytes each — KMC state is one byte per site, the
/// "data compaction" effect is even stronger than in MD). Two table passes
/// mirror the MD kernel:
///   pass f   (density table resident): host densities before/after the swap
///   pass phi (pair table resident)   : pair-energy sums before/after
/// The embedding terms (two lookups per candidate) are applied on the master
/// core. Results are bit-compatible with KmcModel::exchange_dE, and each
/// candidate's dE depends only on its own neighborhood — batch composition
/// (full rescan vs a dirty subset) never changes a value, which the
/// incremental event table relies on.
///
/// Scratch buffers (pass results + the dE epilogue) are members reused
/// across calls: the incremental engine calls this once per executed event
/// with a small dirty batch, so per-call allocation would dominate.
class SlaveRateCompute {
 public:
  SlaveRateCompute(const pot::EamTableSet& tables, sw::SlaveCorePool& pool);

  /// dE for every candidate, in order. The returned reference points at
  /// member scratch and is invalidated by the next call.
  const std::vector<double>& exchange_dE_batch(
      const KmcModel& model, const std::vector<EventCandidate>& events);

  sw::DmaStats dma_stats() const { return pool_->aggregate_dma_stats(); }
  void reset_stats() {
    pool_->reset_stats();
    density_dma_ = {};
    pair_dma_ = {};
  }

  /// DMA traffic attributed to each table pass across all batches since the
  /// last reset_stats() (also mirrored into the `kmc.rates.dma.*` telemetry
  /// counters). Attribution assumes this object's batches are not
  /// interleaved with other users of the same pool mid-call.
  const sw::DmaStats& density_dma_stats() const { return density_dma_; }
  const sw::DmaStats& pair_dma_stats() const { return pair_dma_; }

 private:
  enum class Pass { Density, Pair };

  void run_pass(const KmcModel& model, const std::vector<EventCandidate>& events,
                Pass pass, std::vector<double>& before,
                std::vector<double>& after);

  const pot::EamTableSet* tables_;
  sw::SlaveCorePool* pool_;
  // Reused scratch: pass outputs and the assembled per-candidate dE.
  std::vector<double> rho_before_, rho_after_, pair_before_, pair_after_;
  std::vector<double> de_;
  sw::DmaStats density_dma_;
  sw::DmaStats pair_dma_;
};

}  // namespace mmd::kmc
