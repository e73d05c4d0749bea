// BENCH_md_step — end-to-end MD step on the simulated core group: the
// integration + ghost exchange + slave-core EAM force pipeline that PR 4's
// fused-sweep kernel optimizes. One metric per force path (fused single-sweep
// vs the two-pass pair/density reference shape) so mmd_perf_diff can track
// the whole-step win, plus the force-phase DMA get traffic that drives it.
// The `reference` shape runs the same step with no slave kernel attached:
// the master-core ReferenceForce path that accel=reference runs.
//
// Config notes: 12^3 cells (3456 atoms) keeps a timed step near a
// millisecond; table_segments=1500 gives two 12 KB compact tables so the
// fused sweep can stage BOTH resident in the 64 KB local store (the
// authentic 5000-segment tables force the per-segment fallback, which
// bench/fig09 and the tests cover).

#include <array>

#include "bench_common.h"
#include "harness.h"
#include "md/engine.h"
#include "md/slave_force.h"
#include "telemetry/session.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace mmd;

int main() {
  bench::title("BENCH_md_step",
               "end-to-end MD step, slave-core and reference force paths");
  bench::BenchHarness h("md_step");

  md::MdConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 12;
  cfg.temperature = 400.0;
  cfg.table_segments = 1500;
  const md::MdSetup setup(cfg, 1);
  const auto tables = pot::EamTableSet::build(
      pot::EamModel::iron(cfg.lattice_constant, cfg.cutoff), cfg.table_segments);

  struct Mode {
    const char* key;
    bool fused;
    bool simd;
  };
  // fused_scalar isolates the SIMD win from the SoA-staging win: it runs the
  // same fused sweep with the AVX2 kernels disabled (md.simd=off path).
  constexpr std::array<Mode, 3> kModes = {{{"fused", true, true},
                                           {"fused_scalar", true, false},
                                           {"two_pass", false, true}}};

  const int warm = std::max(1, h.options().warmup);
  const int reps = h.options().repeats;
  // Wall time of `reps` single steps of an initialized, warmed engine.
  auto time_steps = [&](md::MdEngine& engine, comm::Comm& comm) {
    std::vector<double> wall_ms;
    wall_ms.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      util::Timer t;
      engine.run(comm, 1);
      wall_ms.push_back(1e3 * t.elapsed());
    }
    return wall_ms;
  };

  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    {
      // Global throwaway warmup so the first measured mode does not absorb
      // the process cold start (first-touch pages, CPU frequency ramp).
      md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
      sw::SlaveCorePool pool(64);
      md::SlaveForceCompute kernel(tables, pool,
                                   md::AccelStrategy::CompactedReuse);
      engine.use_slave_kernel(&kernel);
      engine.initialize(comm);
      engine.run(comm, std::max(2, warm));
    }
    for (const Mode& mode : kModes) {
      md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
      sw::SlaveCorePool pool(64);
      md::SlaveForceCompute kernel(tables, pool,
                                   md::AccelStrategy::CompactedReuse);
      kernel.set_fused(mode.fused);
      kernel.set_simd(mode.simd);
      engine.use_slave_kernel(&kernel);
      engine.initialize(comm);
      engine.run(comm, warm);

      kernel.reset_stats();
      const std::vector<double> wall_ms = time_steps(engine, comm);
      const sw::DmaStats dma = kernel.dma_stats();
      const std::string key(mode.key);
      h.add_samples(key + "_step_ms", "ms", wall_ms);
      h.add_value(key + "_modeled_ms_per_step", "ms",
                  1e3 * kernel.modeled_time() / reps);
      h.add_value(key + "_dma_get_mb_per_step", "MB",
                  static_cast<double>(dma.get_bytes) / reps / 1e6);
      h.add_value(key + "_dma_ops_per_step", "ops",
                  static_cast<double>(dma.total_ops()) / reps);
      bench::note("%-8s median %.3f ms/step, %.2f MB DMA-get/step",
                  mode.key, util::median(wall_ms),
                  static_cast<double>(dma.get_bytes) / reps / 1e6);
    }
    {
      md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
      engine.initialize(comm);
      engine.run(comm, warm);
      const std::vector<double> wall_ms = time_steps(engine, comm);
      h.add_samples("reference_step_ms", "ms", wall_ms);
      bench::note("%-8s median %.3f ms/step (master-core force)", "reference",
                  util::median(wall_ms));
    }
  });

  // Recorder overhead: the same fused step under a telemetry session with
  // the comm flight recorder off vs on. The ratio is the observability tax
  // per step; perf-smoke gates it at <= 3% against a hand-written unity
  // baseline (bench/baselines/BENCH_md_step_traced_gate.json), so recording
  // can never silently become expensive enough to perturb what it measures.
  struct Traced {
    const char* key;
    std::size_t ring;
  };
  constexpr std::array<Traced, 2> kTraced = {
      {{"fused_session", 0}, {"fused_traced", std::size_t{1} << 16}}};
  std::array<double, 2> traced_median{};
  for (std::size_t i = 0; i < kTraced.size(); ++i) {
    telemetry::Session::Options opt;
    opt.comm_events_per_rank = kTraced[i].ring;
    telemetry::Session session(1, opt);
    comm::World traced_world(1);
    std::vector<double> wall_ms;
    traced_world.run([&](comm::Comm& comm) {
      md::MdEngine engine(cfg, setup.geo, setup.dd, tables, comm.rank());
      sw::SlaveCorePool pool(64);
      md::SlaveForceCompute kernel(tables, pool,
                                   md::AccelStrategy::CompactedReuse);
      engine.use_slave_kernel(&kernel);
      engine.initialize(comm);
      engine.run(comm, warm);
      wall_ms = time_steps(engine, comm);
    });
    h.add_samples(std::string(kTraced[i].key) + "_step_ms", "ms", wall_ms);
    traced_median[i] = util::median(wall_ms);
    bench::note("%-13s median %.3f ms/step%s", kTraced[i].key,
                traced_median[i],
                kTraced[i].ring != 0 ? " (flight recorder on)" : "");
  }
  h.add_value("traced_overhead_ratio", "x", traced_median[1] / traced_median[0]);
  bench::note("recorder overhead: %.2f%%",
              100.0 * (traced_median[1] / traced_median[0] - 1.0));

  return h.write();
}
