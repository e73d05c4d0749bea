#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sunway/dma.h"
#include "sunway/local_store.h"

namespace mmd::telemetry {
class Tracer;
}

namespace mmd::sw {

/// Per-slave-core execution context handed to kernels: the core id within the
/// core group, its private local store, and its DMA engine.
struct SlaveCtx {
  std::size_t core_id = 0;
  LocalStore* local_store = nullptr;
  DmaEngine* dma = nullptr;
};

/// Athread-style fork/join pool over the 64 CPEs of one core group
/// (paper §2.1.2: "each process launches 64 threads ... using the Athread
/// multithreading library").
///
/// `num_slave_cores` logical CPEs are multiplexed onto at most
/// `max_os_threads` OS threads; each logical core keeps its own LocalStore
/// and DmaEngine across invocations so stats accumulate per core.
///
/// The OS threads are PERSISTENT: spawned once in the constructor and parked
/// on a condition variable between invocations, so each `run()` costs one
/// fork/join barrier instead of a spawn/join of every thread (an MD step
/// issues 2-3 kernel launches — at the old per-run spawn cost the dispatch
/// overhead was a measurable slice of small steps). The calling thread
/// participates as one executor, exactly as on the Sunway MPE. Exceptions
/// thrown by the kernel on any executor are captured and the first one is
/// rethrown from `run()` after the join; the pool stays usable afterwards.
///
/// EPOCH INTERLEAVING (campaign service mode): `run()` may be called from
/// any number of threads concurrently — epochs from different submitters are
/// serialized on an internal submit lock, FIFO-ish, so many jobs can share
/// one pool as their common executor. The moment one job's epoch joins, the
/// next waiting job's epoch is released: the pool never parks while any
/// submitter has runnable work. PoolActivity records how the sharing played
/// out (epoch count, epochs that had to wait behind another submitter, and
/// the summed busy time, which over a wall-clock interval yields pool
/// utilization).
class SlaveCorePool {
 public:
  static constexpr std::size_t kSunwayCoreGroupSize = 64;

  /// Cumulative fork/join activity since construction or reset_activity().
  struct PoolActivity {
    std::uint64_t epochs = 0;            ///< completed run() invocations
    /// Epochs that found the submit lock held — i.e. a second job had
    /// runnable work while the pool was busy. Nonzero proves interleaving.
    std::uint64_t contended_epochs = 0;
    double busy_seconds = 0.0;           ///< summed wall time of all epochs
  };

  explicit SlaveCorePool(std::size_t num_slave_cores = kSunwayCoreGroupSize,
                         std::size_t local_store_bytes = LocalStore::kSunwayCapacity,
                         DmaCostModel dma_cost = {},
                         std::size_t max_os_threads = 0);
  ~SlaveCorePool();

  SlaveCorePool(const SlaveCorePool&) = delete;
  SlaveCorePool& operator=(const SlaveCorePool&) = delete;

  std::size_t size() const { return cores_.size(); }

  /// Run `fn(ctx)` once on every logical slave core (athread spawn/join).
  /// Safe to call from multiple threads; concurrent epochs serialize on the
  /// submit lock (see the class comment).
  void run(const std::function<void(SlaveCtx&)>& fn);

  /// Static partition of tasks [0, n) over the slave cores; each core
  /// processes a contiguous chunk (the paper's slab decomposition). The
  /// callback is invoked through a std::function per ITEM — for hot loops
  /// prefer parallel_for_chunks, which dispatches once per core.
  void parallel_for(std::size_t n,
                    const std::function<void(SlaveCtx&, std::size_t)>& fn);

  /// Chunked variant of parallel_for: `fn(ctx, begin, end)` is invoked at
  /// most once per core with that core's contiguous slab [begin, end), so
  /// the per-item std::function dispatch is amortized over the whole chunk.
  /// Core c owns [c*chunk, min(n, (c+1)*chunk)) with chunk = ceil(n/size()).
  /// A core whose slab is empty is never invoked, so it stages nothing and
  /// moves no DMA bytes; the slave force and rate kernels rely on this.
  void parallel_for_chunks(
      std::size_t n,
      const std::function<void(SlaveCtx&, std::size_t, std::size_t)>& fn);

  /// Aggregate DMA statistics over all slave cores.
  DmaStats aggregate_dma_stats() const;

  /// Maximum modeled DMA time over cores (the critical path of a fork/join
  /// phase).
  double max_modeled_dma_time() const;

  void reset_stats();

  /// Fork/join activity snapshot (thread-safe).
  PoolActivity activity() const;
  void reset_activity();

  /// Direct access to one core's context (for tests and cost-model readers).
  SlaveCtx& core(std::size_t i) { return *ctxs_[i]; }
  const SlaveCtx& core(std::size_t i) const { return *ctxs_[i]; }

  /// Number of OS threads executing kernels (including the calling thread).
  std::size_t os_threads() const { return os_threads_; }

 private:
  struct Core {
    std::unique_ptr<LocalStore> store;
    std::unique_ptr<DmaEngine> dma;
  };

  /// Pull logical cores off the shared counter until the epoch's work is
  /// exhausted; called by the rank thread and every parked worker.
  void drain_cores();
  void worker_loop();

  std::vector<Core> cores_;
  std::vector<std::unique_ptr<SlaveCtx>> ctxs_;
  std::size_t os_threads_;

  // Submitter serialization + activity accounting. submit_mu_ is held for a
  // whole run() (publish, drain, join, telemetry fold) so concurrent jobs
  // interleave at epoch granularity; activity_ is guarded by it.
  mutable std::mutex submit_mu_;
  PoolActivity activity_;

  // Persistent-worker barrier state. `epoch_` names the current run();
  // workers park on work_cv_ until it advances, the caller parks on done_cv_
  // until every worker has drained the epoch.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  std::size_t workers_done_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;

  // The in-flight job (valid while an epoch is active). Kernel + telemetry
  // binding are published under mu_ before the epoch advances.
  const std::function<void(SlaveCtx&)>* job_ = nullptr;
  telemetry::Tracer* job_tracer_ = nullptr;
  int job_parent_rank_ = -1;
  std::atomic<std::size_t> next_core_{0};
};

}  // namespace mmd::sw
