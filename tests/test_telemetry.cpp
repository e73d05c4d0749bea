#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/world.h"
#include "sunway/slave_pool.h"
#include "telemetry/export.h"
#include "telemetry/registry.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"

namespace mmd::telemetry {
namespace {

TEST(MetricsRegistry, PerRankSlotsAndAggregate) {
  MetricsRegistry reg(3);
  reg.add(0, "events", 5);
  reg.add(1, "events", 7);
  reg.add(2, "events");  // default +1
  reg.set_gauge(0, "seconds", 1.5);
  reg.set_gauge(1, "seconds", 3.0);
  reg.set_gauge(2, "seconds", 2.0);
  reg.observe(0, "batch", 1.0);
  reg.observe(1, "batch", 3.0);
  reg.observe(2, "batch", 2.0);

  const auto agg = reg.aggregate();
  EXPECT_EQ(agg.counter("events"), 13u);
  EXPECT_EQ(agg.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(agg.gauge_maximum("seconds"), 3.0);
  EXPECT_DOUBLE_EQ(agg.gauge_sum.at("seconds"), 6.5);
  const auto& d = agg.dists.at("batch");
  EXPECT_EQ(d.count(), 3u);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 3.0);
}

TEST(MetricsRegistry, OutOfRangeRankIsDropped) {
  MetricsRegistry reg(2);
  reg.add(-1, "x", 1);
  reg.add(2, "x", 1);
  reg.set_gauge(7, "g", 1.0);
  reg.observe(7, "d", 1.0);
  EXPECT_EQ(reg.aggregate().counter("x"), 0u);
}

TEST(MetricsRegistry, AggregationAcrossConcurrentRankWriters) {
  // The RankTraffic discipline: each rank's thread writes only its own slot,
  // lock-free; aggregation after join sees every write.
  constexpr int kRanks = 8;
  constexpr int kWrites = 10000;
  MetricsRegistry reg(kRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&reg, r] {
      for (int i = 0; i < kWrites; ++i) {
        reg.add(r, "ops");
        reg.observe(r, "value", static_cast<double>(i));
      }
      reg.set_gauge(r, "rank_id", static_cast<double>(r));
    });
  }
  for (auto& t : threads) t.join();

  const auto agg = reg.aggregate();
  EXPECT_EQ(agg.counter("ops"), static_cast<std::uint64_t>(kRanks) * kWrites);
  EXPECT_DOUBLE_EQ(agg.gauge_maximum("rank_id"), kRanks - 1.0);
  const auto& d = agg.dists.at("value");
  EXPECT_EQ(d.count(), static_cast<std::size_t>(kRanks) * kWrites);
  EXPECT_DOUBLE_EQ(d.min(), 0.0);
  EXPECT_DOUBLE_EQ(d.max(), kWrites - 1.0);
  EXPECT_NEAR(d.mean(), (kWrites - 1.0) / 2.0, 1e-9);
}

TEST(MetricsRegistry, SnapshotAndResetPreventsCrossJobBleed) {
  // Campaign service mode reuses one registry across jobs; the snapshot must
  // carry everything the job wrote, and the next job must start from zero.
  MetricsRegistry reg(2);
  reg.add(0, "kmc.events", 10);
  reg.add(1, "kmc.events", 5);
  reg.set_gauge(0, "md.wall_seconds", 2.0);
  reg.observe(0, "ckpt.write_seconds", 0.5);

  const auto first = reg.snapshot_and_reset();
  EXPECT_EQ(first.counter("kmc.events"), 15u);
  EXPECT_DOUBLE_EQ(first.gauge_maximum("md.wall_seconds"), 2.0);
  EXPECT_EQ(first.dists.at("ckpt.write_seconds").count(), 1u);

  // Second "job" writes a disjoint and an overlapping name; nothing of job 1
  // may appear — in particular the stale gauge must be gone, not kept at its
  // old value.
  reg.add(0, "kmc.events", 3);
  const auto second = reg.snapshot_and_reset();
  EXPECT_EQ(second.counter("kmc.events"), 3u);
  EXPECT_EQ(second.gauge_max.count("md.wall_seconds"), 0u);
  EXPECT_EQ(second.dists.count("ckpt.write_seconds"), 0u);

  // And after both snapshots the registry is empty.
  const auto empty = reg.aggregate();
  EXPECT_TRUE(empty.counters.empty());
  EXPECT_TRUE(empty.gauge_max.empty());
  EXPECT_TRUE(empty.dists.empty());
}

TEST(MetricsRegistry, AggregateMergeMatchesCrossRankSemantics) {
  // merge() is the fleet rollup: counters sum, gauge maxima max, gauge sums
  // add, distributions merge exactly (same moments as observing everything
  // into one registry).
  MetricsRegistry a(1), b(1);
  a.add(0, "jobs", 2);
  a.set_gauge(0, "busy", 1.0);
  a.observe(0, "lat", 1.0);
  a.observe(0, "lat", 3.0);
  b.add(0, "jobs", 5);
  b.add(0, "extra", 1);
  b.set_gauge(0, "busy", 4.0);
  b.observe(0, "lat", 5.0);

  auto fleet = a.aggregate();
  fleet.merge(b.aggregate());
  EXPECT_EQ(fleet.counter("jobs"), 7u);
  EXPECT_EQ(fleet.counter("extra"), 1u);
  EXPECT_DOUBLE_EQ(fleet.gauge_maximum("busy"), 4.0);
  EXPECT_DOUBLE_EQ(fleet.gauge_sum.at("busy"), 5.0);
  const auto& d = fleet.dists.at("lat");
  EXPECT_EQ(d.count(), 3u);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 5.0);

  // Merging an empty aggregate is the identity.
  auto copy = fleet;
  copy.merge(MetricsRegistry(1).aggregate());
  EXPECT_EQ(copy.counter("jobs"), 7u);
  EXPECT_DOUBLE_EQ(copy.gauge_maximum("busy"), 4.0);
}

TEST(Session, ThreadScopeOverridesCurrentPerThread) {
  Session global(1);
  ASSERT_TRUE(global.installed());
  EXPECT_EQ(Session::current(), &global);

  Session::Options opt;
  opt.install_global = false;
  opt.lanes_per_rank = 1;
  opt.events_per_track = 16;
  Session scoped(1, opt);
  EXPECT_FALSE(scoped.installed());

  {
    Session::ThreadScope scope(&scoped);
    EXPECT_EQ(Session::current(), &scoped);
    // Another thread without an override still sees the global session.
    Session* other_thread_view = nullptr;
    std::thread([&] { other_thread_view = Session::current(); }).join();
    EXPECT_EQ(other_thread_view, &global);
    {
      Session::ThreadScope inner(nullptr);  // "no telemetry here"
      EXPECT_EQ(Session::current(), nullptr);
    }
    EXPECT_EQ(Session::current(), &scoped);
  }
  EXPECT_EQ(Session::current(), &global);
}

TEST(Session, WorldRunPropagatesSubmitterScopeToRankThreads) {
  // Two concurrent "jobs", each a World under its own thread-scoped session:
  // every rank's writes must land in its own job's registry, none in the
  // other's and none in the global fallback.
  Session global(1);
  auto run_job = [](Session& s, std::uint64_t amount) {
    Session::ThreadScope scope(&s);
    comm::World world(2);
    world.run([&](comm::Comm& comm) {
      count("job.steps", amount + static_cast<std::uint64_t>(comm.rank()));
      comm.barrier();
    });
  };
  Session::Options opt;
  opt.install_global = false;
  opt.lanes_per_rank = 1;
  opt.events_per_track = 64;
  Session job_a(2, opt), job_b(2, opt);
  std::thread ta([&] { run_job(job_a, 100); });
  std::thread tb([&] { run_job(job_b, 500); });
  ta.join();
  tb.join();
  EXPECT_EQ(job_a.metrics().aggregate().counter("job.steps"), 201u);
  EXPECT_EQ(job_b.metrics().aggregate().counter("job.steps"), 1001u);
  EXPECT_EQ(global.metrics().aggregate().counter("job.steps"), 0u);
}

TEST(Tracer, SpansAreNoopsOnUnattachedThreads) {
  Tracer tracer(1, 1, 16);
  { MMD_TRACE_SCOPE("orphan"); }
  EXPECT_EQ(tracer.track(0), nullptr);
}

TEST(Tracer, RecordsScopedSpans) {
  Tracer tracer(2, 2, 16);
  tracer.attach_calling_thread(1, 0);
  {
    MMD_TRACE_SCOPE("outer");
    MMD_TRACE_SCOPE("inner");
  }
  Tracer::detach_calling_thread();

  const Tracer::Track* t = tracer.track(1 * 2 + 0);
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->recorded, 2u);
  // Inner scope closes first.
  EXPECT_STREQ(t->ring[0].name, "inner");
  EXPECT_STREQ(t->ring[1].name, "outer");
  EXPECT_GE(t->ring[1].t1_ns, t->ring[1].t0_ns);
  // Outer began before inner and ended after it.
  EXPECT_LE(t->ring[1].t0_ns, t->ring[0].t0_ns);
  EXPECT_GE(t->ring[1].t1_ns, t->ring[0].t1_ns);
}

TEST(Tracer, ChargedSpanAddsItsRecordedLength) {
  Tracer tracer(1, 1, 16);
  tracer.attach_calling_thread(0, 0);
  double seconds = 0.25;
  {
    MMD_TRACE_SCOPE_CHARGE("charged", seconds);
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + 1.0;
  }
  Tracer::detach_calling_thread();

  const Tracer::Track* t = tracer.track(0);
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->recorded, 1u);
  const TraceEvent& ev = t->ring[0];
  EXPECT_STREQ(ev.name, "charged");
  EXPECT_GT(ev.t1_ns, ev.t0_ns);
  EXPECT_EQ(seconds, 0.25 + 1e-9 * static_cast<double>(ev.t1_ns - ev.t0_ns));
}

TEST(Tracer, ChargedSpanChargesWithoutTracer) {
  Tracer tracer(1, 1, 16);
  tracer.attach_calling_thread(0, 0);
  { MMD_TRACE_SCOPE("recorded"); }
  Tracer::detach_calling_thread();
  double seconds = 0.0;
  {
    MMD_TRACE_SCOPE_CHARGE("untraced", seconds);
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + 1.0;
  }
  EXPECT_GT(seconds, 0.0);
  EXPECT_EQ(tracer.track(0)->recorded, 1u);
}

TEST(Tracer, RingWrapsAndCountsDrops) {
  Tracer tracer(1, 1, 4);
  tracer.attach_calling_thread(0, 0);
  for (int i = 0; i < 10; ++i) {
    MMD_TRACE_SCOPE("span");
  }
  Tracer::detach_calling_thread();

  const Tracer::Track* t = tracer.track(0);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->recorded, 10u);
  EXPECT_EQ(t->live(), 4u);
  EXPECT_EQ(t->dropped(), 6u);
  EXPECT_EQ(tracer.total_dropped(), 6u);
}

TEST(Tracer, RingHoldsOnlyRecordedSpans) {
  // A large capacity is reserved, not filled: the ring grows with the spans.
  Tracer tracer(1, 1, 1 << 16);
  tracer.attach_calling_thread(0, 0);
  for (int i = 0; i < 3; ++i) {
    MMD_TRACE_SCOPE("span");
  }
  Tracer::detach_calling_thread();

  const Tracer::Track* t = tracer.track(0);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->ring.size(), 3u);
  EXPECT_EQ(t->live(), 3u);
  EXPECT_EQ(t->dropped(), 0u);
}

TEST(Tracer, OutOfRangeAttachDetaches) {
  Tracer tracer(2, 2, 16);
  tracer.attach_calling_thread(0, 0);
  tracer.attach_calling_thread(5, 0);  // out of range
  EXPECT_EQ(Tracer::calling_thread_tracer(), nullptr);
  { MMD_TRACE_SCOPE("dropped"); }
  const Tracer::Track* t = tracer.track(0);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->recorded, 0u);
}

TEST(Session, InstallsAsCurrentAndUninstalls) {
  EXPECT_EQ(Session::current(), nullptr);
  {
    Session s(2);
    EXPECT_TRUE(s.installed());
    EXPECT_EQ(Session::current(), &s);
    // A nested session stays usable but is not current.
    Session nested(1);
    EXPECT_FALSE(nested.installed());
    EXPECT_EQ(Session::current(), &s);
  }
  EXPECT_EQ(Session::current(), nullptr);
}

TEST(Session, WorldRunAttachesRanksAndFoldsTraffic) {
  Session session(3);
  comm::World world(3);
  world.run([](comm::Comm& c) {
    // Every rank thread is attached at its own master lane...
    EXPECT_EQ(attached_metrics_rank(), c.rank());
    { MMD_TRACE_SCOPE("phase.a"); }
    count("work_items", static_cast<std::uint64_t>(c.rank() + 1));
    // ... and comm traffic is folded into the registry after the run.
    c.send_value((c.rank() + 1) % c.size(), 1, c.rank());
    c.recv(comm::kAnySource, 1);
    c.barrier();
  });

  const auto agg = session.metrics().aggregate();
  EXPECT_EQ(agg.counter("work_items"), 1u + 2u + 3u);
  EXPECT_EQ(agg.counter("comm.p2p.msgs"), 3u);
  EXPECT_EQ(agg.counter("comm.p2p.bytes"), 3u * sizeof(int));
  EXPECT_EQ(agg.counter("comm.collectives"), 3u);
  // Registry totals agree with the World's own RankTraffic accounting.
  EXPECT_EQ(agg.counter("comm.p2p.bytes"), world.total_traffic().p2p_bytes_sent);

  for (int r = 0; r < 3; ++r) {
    const Tracer::Track* t =
        session.tracer().track(r * session.tracer().lanes_per_rank());
    ASSERT_NE(t, nullptr);
    ASSERT_GE(t->recorded, 1u);
    EXPECT_STREQ(t->ring[0].name, "phase.a");
  }
}

TEST(Session, SlaveCorePoolEmitsPerCpeSpansAndFoldsDma) {
  Session session(1);
  session.tracer().attach_calling_thread(0, 0);

  sw::SlaveCorePool pool(4, 1024);
  std::vector<double> main_mem(64, 1.0);
  pool.parallel_for(main_mem.size(), [&](sw::SlaveCtx& ctx, std::size_t i) {
    double x = 0.0;
    ctx.dma->get(&x, &main_mem[i], sizeof(double));
    x *= 2.0;
    ctx.dma->put(&main_mem[i], &x, sizeof(double));
  });

  // The caller's master-lane binding is restored after the fork/join.
  EXPECT_EQ(attached_metrics_rank(), 0);
  Tracer::detach_calling_thread();

  const auto agg = session.metrics().aggregate();
  EXPECT_EQ(agg.counter("sw.dma.get_ops"), 64u);
  EXPECT_EQ(agg.counter("sw.dma.put_ops"), 64u);
  EXPECT_EQ(agg.counter("sw.dma.get_bytes"), 64u * sizeof(double));
  EXPECT_EQ(agg.counter("sw.dma.put_bytes"), 64u * sizeof(double));

  // One span per logical CPE, on that CPE's lane, tagged with its DMA load.
  std::uint64_t span_ops = 0;
  int lanes_with_spans = 0;
  for (int lane = 1; lane <= 4; ++lane) {
    const Tracer::Track* t = session.tracer().track(lane);
    if (t == nullptr || t->recorded == 0) continue;
    ++lanes_with_spans;
    for (std::size_t e = 0; e < t->live(); ++e) {
      EXPECT_STREQ(t->ring[e].name, "cpe.kernel");
      span_ops += t->ring[e].dma_ops;
    }
  }
  EXPECT_EQ(lanes_with_spans, 4);
  EXPECT_EQ(span_ops, 128u);  // 64 gets + 64 puts
}

TEST(Export, ChromeTraceIsWellFormedJson) {
  Session session(2);
  comm::World world(2);
  world.run([](comm::Comm& c) {
    { MMD_TRACE_SCOPE("md.force"); }
    { MMD_TRACE_SCOPE("kmc.sector"); }
    c.barrier();
  });

  std::ostringstream os;
  write_chrome_trace(os, session.tracer());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"md.force\""), std::string::npos);
  EXPECT_NE(json.find("\"kmc.sector\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  // Balanced braces/brackets => loads in chrome://tracing / Perfetto.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Export, MetricsJsonContainsAggregateAndRanks) {
  MetricsRegistry reg(2);
  reg.add(0, "kmc.events", 40);
  reg.add(1, "kmc.events", 2);
  reg.set_gauge(0, "md.compute_seconds", 0.25);
  reg.observe(1, "kmc.sector_events", 4.0);

  std::ostringstream os;
  write_metrics_json(os, reg);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"nranks\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kmc.events\":42"), std::string::npos);
  EXPECT_NE(json.find("\"md.compute_seconds\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"distributions\""), std::string::npos);
  EXPECT_NE(json.find("\"ranks\":["), std::string::npos);
}

}  // namespace
}  // namespace mmd::telemetry
