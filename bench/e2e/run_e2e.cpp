// run_e2e — end-to-end benchmark of the public core::Simulation facade
// (README.md has the workloads, metrics, bounds and rules).
//
// Closed loop, one job at a time, from one process: each round runs every
// selected workload once, round-robin, so slow drift of the host hits all
// workloads alike. Timed runs install no telemetry session, so run() records
// into its private default one exactly as shipped. Every run's output is
// checked. A separate traced pass reads the program's own spans, stage gauges
// and registry counters through telemetry::analyze for the per-layer numbers;
// it adds no instrumentation of its own.
//
//   run_e2e                          all workloads: 1 warmup + 9 timed rounds,
//                                    then the traced pass and serial baseline
//   run_e2e --workload=cascade       one workload (the flag repeats)
//   run_e2e --workload anneal --seed 7 --seconds 20 --trace 0
//
// --seed overrides the scenario seed (default 42, the seed of the goldens in
// expected/). --seconds replaces the fixed round count by a time budget for
// the timed rounds. --trace 0 skips the traced pass and serial baseline.
// MMD_BENCH_REPEATS / MMD_BENCH_WARMUP override the round counts. Writes
// BENCH_run_e2e.json into --out (default: the working directory) and prints
// a one-line JSON summary last: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1, both without the flag. Exits 0 when every
// check passed, 1 when one failed, 2 on a usage error.

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "perf/bench_report.h"
#include "telemetry/analysis.h"
#include "telemetry/session.h"
#include "util/crc32.h"
#include "util/key_value.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

namespace fs = std::filesystem;
using namespace mmd;

const std::vector<std::string> kAllWorkloads = {"cascade", "cascade_slave",
                                                "anneal", "sampled_anneal"};
constexpr std::uint64_t kGoldenSeed = 42;
constexpr int kTracedRuns = 3;
constexpr int kSerialRounds = 5;
constexpr int kMinBudgetRounds = 3;
// One Simulation setup takes well under a millisecond, too short to time
// alone; batch it to at least this long per sample, like
// BenchHarness::time_per_op.
constexpr double kMinSetupSampleS = 0.02;
constexpr double kSlowRunFactor = 1.5;

// BENCHMARK.json's gated sets, which the summary line prints. The traced-pass
// times of layers a workload bypasses (sunway.cpe_busy_s, kmc.scd_s,
// io.ckpt_s) read 0 there, so those layers are gated through their counts.
const std::vector<std::string> kEndToEnd = {"run_s", "setup_s", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "core.md_stage_s",      "core.kmc_stage_s",
    "core.unattributed_frac",
    "md.steps",             "md.step_s",
    "md.step_p95_us",       "md.force_eam_s",
    "md.force_rho_s",       "md.ghost_exchange_s",
    "md.comm_wait_s",       "md.dt_sync_s",
    "md.force_imbalance",
    "sunway.dma_get_bytes", "sunway.dma_put_bytes",
    "sunway.table_fallbacks",
    "kmc.cycles",           "kmc.events",
    "kmc.events_per_s",     "kmc.cycle_s",
    "kmc.cycle_p95_us",     "kmc.ghost_after_s",
    "kmc.rates_build_s",    "kmc.rates_update_s",
    "kmc.dt_sync_s",        "kmc.rates_reuse_frac",
    "kmc.scd_events",       "kmc.scd_strides",
    "io.ckpt_epochs",       "io.ckpt_bytes",
    "comm.p2p_msgs",        "comm.p2p_bytes",
    "comm.onesided_puts",   "comm.onesided_bytes",
    "comm.collectives",     "comm.wait_s",
    "telemetry.dropped_spans", "telemetry.trace_overhead_frac",
};

bool is_count(std::string_view unit) { return unit == "count" || unit == "bytes"; }

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 0.0;  // 0: fixed round count
  int trace = -1;        // -1: flag absent
  fs::path out = ".";
};

struct Workload {
  std::string name;
  util::KeyValueConfig scenario;
  std::uint64_t setup_batch = 0;  // calibrated on first use
  std::vector<double> run_s, setup_s, peak_rss_mb, serial_run_s;
  bool rss_ok = true;
  int attempted = 0;
  int failed = 0;
  std::map<int, std::string> reference;  // rank count -> expected output
  std::vector<perf::BenchMetric> metrics;
};

int env_int(const char* name, int fallback, int floor) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::max(std::atoi(s), floor);
}

// --- output check -----------------------------------------------------------

/// A run's output without its wall-clock timings: the report text with the
/// "(... s)" stage times stripped, plus the CRC-32 of the final vacancy list
/// computed as serve::CampaignRunner does (decimal text, comma-terminated).
std::string fingerprint(const core::SimulationReport& r) {
  static const std::regex kTiming(R"( \([^()]* s\))");
  std::ostringstream sites;
  for (const std::int64_t s : r.final_vacancies) sites << s << ',';
  return std::regex_replace(core::to_string(r), kTiming, "") +
         "\nvacancies_crc32 = " + std::to_string(util::crc32(sites.str())) +
         "\n";
}

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

std::string line_diff(const std::string& want, const std::string& got) {
  const auto a = lines_of(want);
  const auto b = lines_of(got);
  std::string out;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    const std::string* x = i < a.size() ? &a[i] : nullptr;
    const std::string* y = i < b.size() ? &b[i] : nullptr;
    if (x != nullptr && y != nullptr && *x == *y) continue;
    if (x != nullptr) out += "    - " + *x + "\n";
    if (y != nullptr) out += "    + " + *y + "\n";
  }
  return out;
}

/// Check one run: vacancies are conserved through KMC, and the output equals
/// the golden (at the golden seed) or else the first run at this rank count.
void check_run(Workload& w, int ranks, const core::SimulationReport& r) {
  ++w.attempted;
  std::string error;
  const std::string got = fingerprint(r);
  const auto [it, first] = w.reference.try_emplace(ranks, got);
  if (r.final_vacancies.size() != r.md_defects.vacancies) {
    error = "vacancies not conserved: " +
            std::to_string(r.md_defects.vacancies) + " after MD, " +
            std::to_string(r.final_vacancies.size()) + " after KMC\n";
  } else if (!first && got != it->second) {
    error = "output differs from the expected one:\n" + line_diff(it->second, got);
  }
  if (!error.empty()) {
    ++w.failed;
    std::printf("  CHECK FAILED: %s at %d rank(s): %s", w.name.c_str(), ranks,
                error.c_str());
  }
}

// --- one run ----------------------------------------------------------------

/// Checkpoint directory of one run: fresh at construction, removed at the end.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// The workload's scenario at the bench's seed; `ranks` > 0 overrides the
/// rank count (serial baseline).
core::SimulationConfig config_for(const Workload& w, const Options& opt,
                                  const ScratchDir& dir, int ranks = 0) {
  util::KeyValueConfig kv = w.scenario;
  kv.set("seed", std::to_string(opt.seed));
  if (ranks > 0) kv.set("ranks", std::to_string(ranks));
  if (kv.get_int("checkpoint.every", 0) > 0) kv.set("checkpoint.dir", dir.path().string());
  return core::scenario_from_kv(kv);
}

fs::path scratch_root(const Options& opt) { return opt.out / "run_e2e.tmp"; }

/// One setup_s sample: Simulation::build_assets plus the constructor.
double time_setup(Workload& w, const core::SimulationConfig& cfg) {
  const auto batch_seconds = [&](std::uint64_t n) {
    util::Timer t;
    for (std::uint64_t i = 0; i < n; ++i) {
      core::Simulation sim(cfg, core::Simulation::build_assets(cfg));
    }
    return t.elapsed();
  };
  if (w.setup_batch == 0) {
    w.setup_batch = 1;
    while (batch_seconds(w.setup_batch) < kMinSetupSampleS) w.setup_batch *= 2;
  }
  return batch_seconds(w.setup_batch) / static_cast<double>(w.setup_batch);
}

/// Reset the peak-RSS watermark (VmHWM) to the current RSS, after returning
/// what free heap malloc_trim can to the OS.
bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM in MB, or -1 when /proc/self/status does not report it.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return -1.0;
}

/// A timed run: no session installed, exactly what a user of run() gets.
void timed_run(Workload& w, const Options& opt, bool record) {
  const ScratchDir dir(scratch_root(opt) / w.name);
  const core::SimulationConfig cfg = config_for(w, opt, dir);
  const double setup = time_setup(w, cfg);
  const bool rss_reset = reset_peak_rss();
  core::Simulation sim(cfg);
  util::Timer t;
  const core::SimulationReport report = sim.run();
  const double wall = t.elapsed();
  const double rss = peak_rss_mb();
  check_run(w, cfg.nranks, report);
  if (!record) return;
  w.run_s.push_back(wall);
  w.setup_s.push_back(setup);
  w.peak_rss_mb.push_back(rss);
  w.rss_ok = w.rss_ok && rss_reset && rss > 0.0;
}

/// Serial baseline: the same inputs at one rank.
void serial_run(Workload& w, const Options& opt) {
  const ScratchDir dir(scratch_root(opt) / w.name);
  const core::SimulationConfig cfg = config_for(w, opt, dir, 1);
  core::Simulation sim(cfg);
  util::Timer t;
  const core::SimulationReport report = sim.run();
  w.serial_run_s.push_back(t.elapsed());
  check_run(w, 1, report);
}

// --- traced pass ------------------------------------------------------------

/// Summed duration of the leaf spans on each rank's master lane. A leaf holds
/// no other span of its track. Spans of one track are scopes of one thread, so
/// they nest: sorted by start (longest first on ties), a span has a child
/// exactly when the next span starts before it ends.
std::vector<double> leaf_seconds(const telemetry::Tracer& tracer) {
  std::vector<double> out(static_cast<std::size_t>(tracer.nranks()), 0.0);
  for (int i = 0; i < tracer.num_tracks(); ++i) {
    const telemetry::Tracer::Track* t = tracer.track(i);
    if (t == nullptr || t->lane != telemetry::Tracer::kMasterLane) continue;
    std::vector<telemetry::TraceEvent> spans(
        t->ring.begin(), t->ring.begin() + static_cast<std::ptrdiff_t>(t->live()));
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.t1_ns > b.t1_ns;
    });
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const bool parent = k + 1 < spans.size() && spans[k + 1].t0_ns < spans[k].t1_ns;
      if (!parent) {
        out[static_cast<std::size_t>(t->rank)] +=
            1e-9 * static_cast<double>(spans[k].t1_ns - spans[k].t0_ns);
      }
    }
  }
  return out;
}

perf::BenchMetric metric(std::string name, std::string unit,
                         std::vector<double> samples, bool lower_is_better = true) {
  perf::BenchMetric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.lower_is_better = lower_is_better;
  m.samples = std::move(samples);
  return m;
}

/// The per-layer metrics of one traced run whose run() took `wall_s`, one
/// sample each, in report order.
std::vector<perf::BenchMetric> layer_metrics(const telemetry::Session& session,
                                             double wall_s) {
  const telemetry::PerfReport perf =
      telemetry::analyze(session.tracer(), session.metrics());
  const auto agg = session.metrics().aggregate();
  const auto phase = [&](std::string_view name) -> const telemetry::PhaseStats* {
    for (const auto& p : perf.phases) {
      if (p.name == name) return &p;
    }
    return nullptr;
  };
  const auto crit_s = [&](std::string_view name) {
    const auto* p = phase(name);
    return p != nullptr ? p->total_max_s : 0.0;
  };
  const auto p95_us = [&](std::string_view name) {
    const auto* p = phase(name);
    return p != nullptr ? 1e6 * p->span_s.p95() : 0.0;
  };
  const auto count = [&](std::string_view name) {
    return static_cast<double>(agg.counter(name));
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<perf::BenchMetric> m;
  const auto add = [&](const char* name, const char* unit, double value,
                       bool lower_is_better = true) {
    m.push_back(metric(name, unit, {value}, lower_is_better));
  };

  const double kmc_stage_s = std::max(agg.gauge_maximum("stage.kmc.seconds"),
                                      agg.gauge_maximum("stage.sampling.seconds"));
  double unattributed = 0.0;
  for (const double leaves : leaf_seconds(session.tracer())) {
    unattributed = std::max(unattributed, (wall_s - leaves) / wall_s);
  }
  add("core.md_stage_s", "s", agg.gauge_maximum("stage.md_cascade.seconds"));
  add("core.kmc_stage_s", "s", kmc_stage_s);
  add("core.unattributed_frac", "ratio", unattributed);

  const auto* eam = phase("md.force.eam");
  add("md.steps", "count", count("md.steps"));
  add("md.step_s", "s", crit_s("md.step"));
  add("md.step_p95_us", "us", p95_us("md.step"));
  add("md.force_eam_s", "s", crit_s("md.force.eam"));
  add("md.force_rho_s", "s", crit_s("md.force.rho"));
  add("md.ghost_exchange_s", "s", crit_s("md.ghost.exchange"));
  add("md.comm_wait_s", "s", crit_s("comm.wait"));
  add("md.dt_sync_s", "s", crit_s("md.dt_sync"));
  add("md.force_imbalance", "ratio", eam != nullptr ? eam->imbalance : 1.0);

  add("sunway.cpe_busy_s", "s", perf.cpe_busy_s);
  add("sunway.dma_get_bytes", "bytes", count("sw.dma.get_bytes"));
  add("sunway.dma_put_bytes", "bytes", count("sw.dma.put_bytes"));
  add("sunway.table_fallbacks", "count", count("sw.table.fallback"));

  const double reused = count("kmc.rates.reused");
  add("kmc.cycles", "count", count("kmc.cycles"));
  add("kmc.events", "count", count("kmc.events"));
  add("kmc.events_per_s", "1/s", ratio(count("kmc.events"), kmc_stage_s), false);
  add("kmc.cycle_s", "s", crit_s("kmc.cycle"));
  add("kmc.cycle_p95_us", "us", p95_us("kmc.cycle"));
  add("kmc.ghost_after_s", "s", crit_s("kmc.ghost.after"));
  add("kmc.rates_build_s", "s", crit_s("kmc.rates.build"));
  add("kmc.rates_update_s", "s", crit_s("kmc.rates.update"));
  add("kmc.dt_sync_s", "s", crit_s("kmc.dt_sync"));
  add("kmc.rates_reuse_frac", "ratio",
      ratio(reused, reused + count("kmc.rates.recomputed")), false);
  add("kmc.scd_s", "s", crit_s("sim.scd"));
  add("kmc.scd_events", "count", count("scd.events"));
  add("kmc.scd_strides", "count", agg.gauge_maximum("sample.windows"));

  add("io.ckpt_epochs", "count", count("ckpt.epochs"));
  add("io.ckpt_bytes", "bytes", count("ckpt.bytes"));
  add("io.ckpt_s", "s", crit_s("sim.checkpoint"));

  double wait_ns = 0.0;
  for (int r = 0; r < session.metrics().nranks(); ++r) {
    const auto& counters = session.metrics().rank(r).counters;
    const auto it = counters.find("comm.wait.ns");
    if (it != counters.end()) wait_ns = std::max(wait_ns, static_cast<double>(it->second));
  }
  add("comm.p2p_msgs", "count", count("comm.p2p.msgs"));
  add("comm.p2p_bytes", "bytes", count("comm.p2p.bytes"));
  add("comm.onesided_puts", "count", count("comm.onesided.puts"));
  add("comm.onesided_bytes", "bytes", count("comm.onesided.bytes"));
  add("comm.collectives", "count", count("comm.collectives"));
  add("comm.wait_s", "s", 1e-9 * wait_ns);
  add("telemetry.dropped_spans", "count", static_cast<double>(perf.dropped_spans));
  return m;
}

struct TracedRun {
  double wall_s = 0.0;
  std::size_t max_recorded = 0;
  std::vector<perf::BenchMetric> layers;
};

/// One run into a bench-owned session that never becomes the process-wide
/// one, so it cannot leak into timed runs.
TracedRun traced_run(Workload& w, const Options& opt, std::size_t ring) {
  const ScratchDir dir(scratch_root(opt) / w.name);
  const core::SimulationConfig cfg = config_for(w, opt, dir);
  telemetry::Session::Options so;
  so.install_global = false;
  so.events_per_track = ring;
  telemetry::Session session(cfg.nranks, so);
  const telemetry::Session::ThreadScope scope(&session);
  core::Simulation sim(cfg);
  util::Timer t;
  const core::SimulationReport report = sim.run();
  TracedRun out;
  out.wall_s = t.elapsed();
  check_run(w, cfg.nranks, report);
  for (int i = 0; i < session.tracer().num_tracks(); ++i) {
    if (const auto* track = session.tracer().track(i)) {
      out.max_recorded = std::max(out.max_recorded, track->recorded);
    }
  }
  out.layers = layer_metrics(session, out.wall_s);
  return out;
}

/// The traced pass: one throwaway run sizes the span ring so nothing drops,
/// then kTracedRuns measured runs. Returns false when a count differs between
/// the runs or spans were dropped.
bool traced_pass(Workload& w, const Options& opt) {
  const std::size_t ring =
      std::bit_ceil(std::max<std::size_t>(1, traced_run(w, opt, 1 << 14).max_recorded));
  std::vector<TracedRun> runs;
  for (int i = 0; i < kTracedRuns; ++i) runs.push_back(traced_run(w, opt, ring));

  bool ok = true;
  for (std::size_t i = 0; i < runs.front().layers.size(); ++i) {
    perf::BenchMetric m = runs.front().layers[i];
    for (std::size_t r = 1; r < runs.size(); ++r) {
      m.samples.push_back(runs[r].layers[i].samples.front());
    }
    if (is_count(m.unit)) {
      if (std::adjacent_find(m.samples.begin(), m.samples.end(),
                             std::not_equal_to<>()) != m.samples.end()) {
        std::printf("  CHECK FAILED: %s: count %s differs between traced runs\n",
                    w.name.c_str(), m.name.c_str());
        ok = false;
      }
      m.samples.resize(1);
    }
    if (m.name == "telemetry.dropped_spans" && m.samples.front() != 0.0) {
      std::printf("  CHECK FAILED: %s: traced pass dropped spans (ring %zu)\n",
                  w.name.c_str(), ring);
      ok = false;
    }
    w.metrics.push_back(std::move(m));
  }
  std::vector<double> traced_wall;
  for (const TracedRun& r : runs) traced_wall.push_back(r.wall_s);
  w.metrics.push_back(
      metric("telemetry.trace_overhead_frac", "ratio",
             {util::median(traced_wall) / util::median(w.run_s) - 1.0}));
  return ok;
}

// --- reporting --------------------------------------------------------------

/// End-to-end metrics and the ungated stability / scaling diagnostics.
void add_run_metrics(Workload& w) {
  const double run_median = util::median(w.run_s);
  const auto add_metric = [&](const char* name, const char* unit,
                              std::vector<double> samples, bool lower_is_better = true) {
    w.metrics.push_back(metric(name, unit, std::move(samples), lower_is_better));
  };
  add_metric("run_s", "s", w.run_s);
  add_metric("setup_s", "s", w.setup_s);
  // Memory a run frees can stay resident (malloc_trim leaves the top of
  // per-thread arenas alone) and count toward the next run's peak. That only
  // ever adds, so the least affected run is the closest to the run's own peak.
  if (w.rss_ok) {
    add_metric("peak_rss_mb", "MB",
               {*std::min_element(w.peak_rss_mb.begin(), w.peak_rss_mb.end())});
  }
  add_metric("fail_frac", "ratio",
             {static_cast<double>(w.failed) / static_cast<double>(w.attempted)});
  add_metric("stability.run_mad_frac", "ratio",
             {util::median_abs_deviation(w.run_s) / run_median});
  add_metric("stability.slow_runs", "count",
             {static_cast<double>(std::count_if(
                 w.run_s.begin(), w.run_s.end(),
                 [&](double s) { return s > kSlowRunFactor * run_median; }))});
  if (!w.serial_run_s.empty()) {
    const double serial = util::median(w.serial_run_s);
    add_metric("scaling.serial_run_s", "s", w.serial_run_s);
    add_metric("scaling.speedup", "x", {serial / run_median}, false);
  }
}

void print_summary(const std::vector<Workload>& ws, const Options& opt, bool correct) {
  std::vector<std::string> names;
  if (opt.trace != 1) names.insert(names.end(), kEndToEnd.begin(), kEndToEnd.end());
  if (opt.trace != 0) names.insert(names.end(), kPerLayer.begin(), kPerLayer.end());
  int attempted = 0;
  int failed = 0;
  std::string metrics;
  for (const Workload& w : ws) {
    attempted += w.attempted;
    failed += w.failed;
    for (const std::string& name : names) {
      const auto it = std::find_if(w.metrics.begin(), w.metrics.end(),
                                   [&](const auto& m) { return m.name == name; });
      if (it == w.metrics.end()) continue;
      const std::string key = ws.size() == 1 ? name : w.name + "." + name;
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", key.c_str(), it->median,
                    it->unit.c_str());
      metrics += buf;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
}

// --- command line -----------------------------------------------------------

void print_usage() {
  std::fprintf(stderr,
               "usage: run_e2e [--workload=NAME]... [--seed=N] [--seconds=S] "
               "[--trace=0|1] [--out=DIR]\n"
               "workloads: cascade cascade_slave anneal sampled_anneal\n");
}

/// Accepts --key=value and --key value. Returns false on a usage error.
bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (key == "--workload") {
        if (std::find(kAllWorkloads.begin(), kAllWorkloads.end(), value) ==
            kAllWorkloads.end()) {
          return false;
        }
        opt.workloads.push_back(value);
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace" && (value == "0" || value == "1")) {
        opt.trace = value == "1" ? 1 : 0;
      } else if (key == "--out") {
        opt.out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  if (opt.workloads.empty()) opt.workloads = kAllWorkloads;
  return opt.seconds >= 0.0;
}

Workload load_workload(const std::string& name, const Options& opt) {
  const fs::path dir = MMD_E2E_DIR;
  Workload w;
  w.name = name;
  w.scenario = util::KeyValueConfig::parse_file((dir / "workloads" / (name + ".mmd")).string());
  // Reads every key once so typos fail here, before any run.
  core::scenario_from_kv(w.scenario);
  w.scenario.reject_unknown_keys();
  if (opt.seed == kGoldenSeed) {
    std::ifstream golden(dir / "expected" / (name + ".txt"));
    std::stringstream text;
    text << golden.rdbuf();
    w.reference[static_cast<int>(w.scenario.get_int("ranks", 1))] = text.str();
  }
  return w;
}

int run(const Options& opt) {
  const int repeats = env_int("MMD_BENCH_REPEATS", 9, 1);
  const int warmup = env_int("MMD_BENCH_WARMUP", 1, 0);
  std::vector<Workload> ws;
  for (const std::string& name : opt.workloads) ws.push_back(load_workload(name, opt));
  fs::create_directories(scratch_root(opt));

  std::printf("run_e2e: seed %llu, %d warmup + %s timed rounds of:",
              static_cast<unsigned long long>(opt.seed), warmup,
              opt.seconds > 0.0 ? "time-budgeted" : std::to_string(repeats).c_str());
  for (const Workload& w : ws) std::printf(" %s", w.name.c_str());
  std::printf("\n");

  util::Timer budget;
  for (int round = -warmup;; ++round) {
    if (round == 0) budget.reset();
    if (round >= 0 && (opt.seconds > 0.0
                           ? round >= kMinBudgetRounds && budget.elapsed() >= opt.seconds
                           : round >= repeats)) {
      break;
    }
    // Each round starts one workload later, so no workload always follows
    // the same one (cascade_slave leaves the most memory resident).
    std::string line;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      Workload& w = ws[(i + static_cast<std::size_t>(round + warmup)) % ws.size()];
      timed_run(w, opt, round >= 0);
      if (round >= 0) line += " " + w.name + " " + std::to_string(w.run_s.back()) + " s";
    }
    std::printf("  %s %d:%s\n", round < 0 ? "warmup" : "round",
                round < 0 ? -round : round + 1, line.c_str());
    std::fflush(stdout);
  }
  const int timed_rounds = static_cast<int>(ws.front().run_s.size());

  if (opt.trace != 0) {
    for (int round = 0; round < std::min(kSerialRounds, timed_rounds); ++round) {
      for (Workload& w : ws) serial_run(w, opt);
    }
  }
  bool traces_ok = true;
  for (Workload& w : ws) {
    add_run_metrics(w);
    if (opt.trace != 0) traces_ok = traced_pass(w, opt) && traces_ok;
  }
  fs::remove_all(scratch_root(opt));

  perf::BenchReport report;
  report.name = "run_e2e";
  report.env = perf::capture_bench_env();
  report.warmup = warmup;
  report.repeats = timed_rounds;
  bool all_passed = traces_ok;
  std::printf("\n  %-44s %14s %-6s %4s\n", "metric", "median", "unit", "n");
  for (Workload& w : ws) {
    all_passed = all_passed && w.failed == 0;
    for (perf::BenchMetric& m : w.metrics) {
      m.finalize();
      std::printf("  %-44s %14.6g %-6s %4zu\n", (w.name + "." + m.name).c_str(),
                  m.median, m.unit.c_str(), m.samples.size());
      perf::BenchMetric prefixed = m;
      prefixed.name = w.name + "." + m.name;
      report.metrics.push_back(std::move(prefixed));
    }
    if (!w.rss_ok) {
      std::printf("  %-44s %14s (VmHWM reset unavailable)\n",
                  (w.name + ".peak_rss_mb").c_str(), "missing");
    }
  }
  std::printf("  wrote %s\n", report.write_file(opt.out.string()).c_str());
  print_summary(ws, opt, all_passed);
  return all_passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    print_usage();
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_e2e: %s\n", e.what());
    return 1;
  }
}
