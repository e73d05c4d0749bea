#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sunway/core_group.h"
#include "sunway/dma.h"
#include "sunway/local_store.h"
#include "sunway/slave_pool.h"

namespace mmd::sw {
namespace {

TEST(LocalStore, CapacityMatchesSunway) {
  LocalStore s;
  EXPECT_EQ(s.capacity(), 64u * 1024u);
  EXPECT_EQ(s.used(), 0u);
}

TEST(LocalStore, BumpAllocation) {
  LocalStore s(1024);
  void* a = s.allocate(100);
  ASSERT_NE(a, nullptr);
  void* b = s.allocate(100);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_GE(s.used(), 200u);
}

TEST(LocalStore, FailsBeyondCapacity) {
  LocalStore s(256);
  EXPECT_NE(s.allocate(200), nullptr);
  EXPECT_EQ(s.allocate(100), nullptr);  // does not fit
  EXPECT_TRUE(s.fits(40));              // 200 aligns to 208; 208+40 <= 256
  EXPECT_FALSE(s.fits(100));
}

TEST(LocalStore, TraditionalTableDoesNotFitCompactDoes) {
  // The paper's core capacity argument: 5000x7 doubles = 273 KB does not fit
  // a 64 KB local store; 5001 samples = 39 KB does.
  LocalStore s;
  EXPECT_FALSE(s.fits(5000 * 7 * sizeof(double)));
  EXPECT_TRUE(s.fits(5001 * sizeof(double)));
}

TEST(LocalStore, ResetReclaims) {
  LocalStore s(512);
  ASSERT_NE(s.allocate(400), nullptr);
  EXPECT_EQ(s.allocate(400), nullptr);
  s.reset();
  EXPECT_NE(s.allocate(400), nullptr);
  EXPECT_GE(s.high_water_mark(), 400u);
}

TEST(LocalStore, TypedAllocationAlignment) {
  LocalStore s(1024);
  ASSERT_NE(s.allocate(1), nullptr);
  double* d = s.allocate_array<double>(4);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
}

TEST(LocalStore, OverAlignedAllocationFromOddOffset) {
  // Regression: allocate() used to align the bump-pointer OFFSET instead of
  // the returned pointer, so over-aligned requests (align > the base
  // address's own alignment, typically 16) came back misaligned whenever the
  // vector's base was not itself 32/64-byte aligned. Several stores of
  // varied capacity shake the heap so at least some bases are not 64-aligned.
  for (std::size_t cap : {4096u, 4097u, 5000u, 8192u, 16384u}) {
    LocalStore s(cap);
    for (std::size_t align : {32u, 64u}) {
      ASSERT_NE(s.allocate(1, 1), nullptr);  // odd starting offset
      void* p = s.allocate(256, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "capacity " << cap << " align " << align;
    }
    double* arr = s.allocate_array<double>(16, 64);
    ASSERT_NE(arr, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arr) % 64, 0u);
  }
}

TEST(LocalStore, FitsAgreesWithAllocate) {
  // fits() must share allocate()'s rounding math exactly: probing then
  // allocating the same (bytes, align) request must agree, for every
  // alignment and for sizes straddling the capacity edge.
  LocalStore s(2048);
  ASSERT_NE(s.allocate(3, 1), nullptr);  // start misaligned
  for (std::size_t align : {1u, 8u, 16u, 32u, 64u}) {
    for (std::size_t bytes : {1u, 7u, 64u, 500u, 1000u, 2048u, 4096u}) {
      const bool predicted = s.fits(bytes, align);
      void* p = s.allocate(bytes, align);
      EXPECT_EQ(predicted, p != nullptr)
          << "bytes " << bytes << " align " << align << " used " << s.used();
      if (p != nullptr) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
      }
    }
  }
}

TEST(Dma, CountsOpsAndBytes) {
  DmaEngine dma;
  std::vector<double> main_mem(64, 1.5);
  double local[64];
  dma.get(local, main_mem.data(), 64 * sizeof(double));
  EXPECT_EQ(dma.stats().get_ops, 1u);
  EXPECT_EQ(dma.stats().get_bytes, 64u * sizeof(double));
  EXPECT_DOUBLE_EQ(local[63], 1.5);
  local[0] = 9.0;
  dma.put(main_mem.data(), local, sizeof(double));
  EXPECT_EQ(dma.stats().put_ops, 1u);
  EXPECT_DOUBLE_EQ(main_mem[0], 9.0);
}

TEST(Dma, BatchedGetIsOneOp) {
  DmaEngine dma;
  std::vector<int> src(100);
  std::iota(src.begin(), src.end(), 0);
  int dst[20];
  DmaEngine::Run runs[2] = {
      {dst, src.data(), 10 * sizeof(int)},
      {dst + 10, src.data() + 50, 10 * sizeof(int)},
  };
  dma.get_batched(runs, 2);
  EXPECT_EQ(dma.stats().get_ops, 1u);
  EXPECT_EQ(dma.stats().get_bytes, 20u * sizeof(int));
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(dst[10], 50);
}

TEST(Dma, ModeledTimeFollowsCostModel) {
  DmaCostModel cost{1e-6, 1e9};
  DmaEngine dma(cost);
  std::vector<char> buf(1000), local(1000);
  dma.get(local.data(), buf.data(), 1000);
  EXPECT_NEAR(dma.modeled_time(), 1e-6 + 1000.0 / 1e9, 1e-15);
  dma.reset_stats();
  EXPECT_EQ(dma.stats().total_ops(), 0u);
  EXPECT_DOUBLE_EQ(dma.modeled_time(), 0.0);
}

TEST(Dma, AsyncCompletesEagerly) {
  DmaEngine dma;
  double a = 1.0, b = 0.0;
  auto h = dma.get_async(&b, &a, sizeof(double));
  EXPECT_DOUBLE_EQ(b, 1.0);
  h.wait();
  EXPECT_TRUE(h.done());
}

TEST(SlavePool, RunsEveryCore) {
  SlaveCorePool pool(16, 4096);
  std::vector<std::atomic<int>> hits(16);
  pool.run([&](SlaveCtx& ctx) { hits[ctx.core_id].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

class SlavePoolParallelFor : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlavePoolParallelFor, CoversAllTasksExactlyOnce) {
  const std::size_t n = GetParam();
  SlaveCorePool pool(8, 4096);
  std::vector<std::atomic<int>> hits(n == 0 ? 1 : n);
  pool.parallel_for(n, [&](SlaveCtx&, std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SlavePoolParallelFor,
                         ::testing::Values(0, 1, 7, 8, 9, 64, 1000));

TEST(SlavePool, PerCoreStoresAreIndependent) {
  SlaveCorePool pool(4, 1024);
  pool.run([&](SlaveCtx& ctx) {
    // Each core can allocate its full store: no sharing.
    EXPECT_NE(ctx.local_store->allocate(1000), nullptr);
    EXPECT_EQ(ctx.local_store->allocate(1000), nullptr);
  });
  // run() resets stores between invocations.
  pool.run([&](SlaveCtx& ctx) {
    EXPECT_NE(ctx.local_store->allocate(1000), nullptr);
  });
}

TEST(SlavePool, AggregatesDmaStats) {
  SlaveCorePool pool(4, 4096);
  std::vector<double> main_mem(8, 0.0);
  pool.run([&](SlaveCtx& ctx) {
    double x = 1.0;
    ctx.dma->put(&main_mem[ctx.core_id], &x, sizeof(double));
  });
  EXPECT_EQ(pool.aggregate_dma_stats().put_ops, 4u);
  pool.reset_stats();
  EXPECT_EQ(pool.aggregate_dma_stats().put_ops, 0u);
}

class SlavePoolParallelForChunks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlavePoolParallelForChunks, CoversAllTasksExactlyOnceInContiguousChunks) {
  const std::size_t n = GetParam();
  constexpr std::size_t kCores = 8;
  SlaveCorePool pool(kCores, 4096);
  std::vector<std::atomic<int>> hits(n == 0 ? 1 : n);
  // Each core writes only its own slot, so these need no lock.
  std::vector<int> calls(kCores, 0);
  std::vector<std::pair<std::size_t, std::size_t>> slabs(kCores);
  pool.parallel_for_chunks(n, [&](SlaveCtx& ctx, std::size_t begin, std::size_t end) {
    ++calls[ctx.core_id];
    slabs[ctx.core_id] = {begin, end};
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // The slab partition the slave kernels rely on: core c owns exactly
  // [c*chunk, min(n, (c+1)*chunk)), and a core whose slab is empty is never
  // invoked (it would otherwise stage tables for nothing).
  const std::size_t chunk = (n + kCores - 1) / kCores;
  for (std::size_t c = 0; c < kCores; ++c) {
    const std::size_t begin = std::min(n, c * chunk);
    const std::size_t end = std::min(n, (c + 1) * chunk);
    if (begin < end) {
      EXPECT_EQ(calls[c], 1) << "core " << c;
      EXPECT_EQ(slabs[c], std::make_pair(begin, end)) << "core " << c;
    } else {
      EXPECT_EQ(calls[c], 0) << "core " << c << " has an empty slab";
    }
  }
  const int invocations = std::accumulate(calls.begin(), calls.end(), 0);
  EXPECT_EQ(static_cast<std::size_t>(invocations),
            n == 0 ? 0 : (n + chunk - 1) / chunk);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SlavePoolParallelForChunks,
                         ::testing::Values(0, 1, 7, 8, 9, 64, 1000));

TEST(SlavePool, ManySuccessiveRunsOnPersistentWorkers) {
  // The workers are spawned once; 500 fork/join cycles must all cover every
  // core and keep per-core DMA stats accumulating.
  SlaveCorePool pool(16, 4096);
  std::vector<std::atomic<int>> hits(16);
  std::vector<double> main_mem(16, 0.0);
  const int kRuns = 500;
  for (int r = 0; r < kRuns; ++r) {
    pool.run([&](SlaveCtx& ctx) {
      hits[ctx.core_id].fetch_add(1);
      double x = 1.0;
      ctx.dma->put(&main_mem[ctx.core_id], &x, sizeof(double));
    });
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), kRuns);
  // Stats fold per core across invocations.
  EXPECT_EQ(pool.aggregate_dma_stats().put_ops,
            static_cast<std::uint64_t>(kRuns) * 16u);
  for (std::size_t c = 0; c < pool.size(); ++c) {
    EXPECT_EQ(pool.core(c).dma->stats().put_ops,
              static_cast<std::uint64_t>(kRuns))
        << "core " << c;
  }
}

TEST(SlavePool, KernelExceptionsPropagateAndPoolStaysUsable) {
  SlaveCorePool pool(8, 4096);
  EXPECT_THROW(
      pool.run([&](SlaveCtx& ctx) {
        if (ctx.core_id == 5) throw std::runtime_error("kernel fault");
      }),
      std::runtime_error);
  // Even when every core throws, exactly one exception surfaces.
  EXPECT_THROW(pool.run([&](SlaveCtx&) { throw std::runtime_error("all"); }),
               std::runtime_error);
  // The pool remains fully operational after a failed epoch.
  std::vector<std::atomic<int>> hits(8);
  pool.run([&](SlaveCtx& ctx) { hits[ctx.core_id].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SlavePool, ConstCoreAccessorReadsStats) {
  SlaveCorePool pool(2, 4096);
  std::vector<double> main_mem(2, 0.0);
  pool.run([&](SlaveCtx& ctx) {
    double x = 1.0;
    ctx.dma->put(&main_mem[ctx.core_id], &x, sizeof(double));
  });
  const SlaveCorePool& cpool = pool;
  EXPECT_EQ(cpool.core(0).dma->stats().put_ops, 1u);
  EXPECT_EQ(cpool.core(1).dma->stats().put_ops, 1u);
  EXPECT_GE(cpool.os_threads(), 1u);
  EXPECT_LE(cpool.os_threads(), 2u);
}

TEST(SlavePool, ConcurrentSubmittersInterleaveSafely) {
  // Campaign service mode: several jobs share one pool and submit epochs
  // concurrently. Epochs serialize on the submit lock, every epoch covers
  // every core exactly once, and per-submitter sums stay exact.
  constexpr int kSubmitters = 4;
  constexpr int kEpochsEach = 50;
  constexpr std::size_t kCores = 8;
  SlaveCorePool pool(kCores, 4096);
  pool.reset_activity();
  std::vector<std::atomic<std::uint64_t>> per_submitter(kSubmitters);
  std::vector<std::thread> jobs;
  for (int s = 0; s < kSubmitters; ++s) {
    jobs.emplace_back([&, s] {
      for (int e = 0; e < kEpochsEach; ++e) {
        std::atomic<std::uint64_t> covered{0};
        pool.run([&](SlaveCtx& ctx) {
          covered.fetch_add(ctx.core_id + 1);  // sum 1..kCores
        });
        EXPECT_EQ(covered.load(), kCores * (kCores + 1) / 2);
        per_submitter[s].fetch_add(covered.load());
      }
    });
  }
  for (auto& t : jobs) t.join();
  for (int s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(per_submitter[s].load(),
              static_cast<std::uint64_t>(kEpochsEach) * kCores * (kCores + 1) / 2);
  }
  const auto act = pool.activity();
  EXPECT_EQ(act.epochs, static_cast<std::uint64_t>(kSubmitters) * kEpochsEach);
  EXPECT_GT(act.busy_seconds, 0.0);
  // contended_epochs is timing-dependent; it only ever counts real waits.
  EXPECT_LE(act.contended_epochs, act.epochs);
}

TEST(SlavePool, ActivityCountsEpochsAndResets) {
  SlaveCorePool pool(4, 1024);
  pool.reset_activity();
  for (int i = 0; i < 3; ++i) pool.run([](SlaveCtx&) {});
  auto act = pool.activity();
  EXPECT_EQ(act.epochs, 3u);
  EXPECT_EQ(act.contended_epochs, 0u);  // single submitter never waits
  EXPECT_GE(act.busy_seconds, 0.0);
  pool.reset_activity();
  act = pool.activity();
  EXPECT_EQ(act.epochs, 0u);
  EXPECT_DOUBLE_EQ(act.busy_seconds, 0.0);
}

TEST(CoreGroup, DefaultShapeIsSunway) {
  CoreGroup cg;
  EXPECT_EQ(cg.slaves().size(), 64u);
  EXPECT_EQ(cg.config().local_store_bytes, 64u * 1024u);
}

}  // namespace
}  // namespace mmd::sw
