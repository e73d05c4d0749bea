// mmd_run — configuration-file driver for the coupled MD-KMC damage
// simulation. The whole pipeline of core::Simulation exposed through a
// key=value file, with optional XYZ trajectory output for visualization.
//
//   mmd_run config.mmd
//   mmd_run config.mmd --trace-out=trace.json --metrics-out=metrics.json
//   mmd_run config.mmd --comm-trace-out=run.mmdtrace
//   mmd_run config.mmd --perf-report
//   mmd_run config.mmd --perf-report=perf.json
//   mmd_run config.mmd --checkpoint-dir=ckpt --checkpoint-every=10
//   mmd_run config.mmd --checkpoint-dir=ckpt --resume
//   mmd_run --print-defaults > config.mmd
//   mmd_run --help
//
// --trace-out writes a Chrome-trace JSON (load in chrome://tracing or
// ui.perfetto.dev) with per-rank MD/KMC phase spans; --metrics-out writes the
// flat metrics JSON (comm volumes, DMA traffic, timing split).
// --comm-trace-out enables the comm flight recorder and writes the binary
// per-message trace (replayable with mmd_trace_replay; equivalently set the
// comm.trace scenario key). With both --trace-out and the recorder enabled,
// messages appear as flow arrows between rank timelines. --perf-report
// analyzes the run's spans + metrics (per-phase critical path over ranks,
// load-imbalance factor, p50/p95/p99 span tails, DMA-vs-compute overlap) and
// prints the human-readable report; with =FILE it also writes the versioned
// JSON form. All output files that cannot be opened fail the run with a
// nonzero exit. Without any of these flags (or the comm.trace key) the run
// opens no telemetry session and records nothing. See docs/OBSERVABILITY.md.
//
// --checkpoint-dir/--checkpoint-every enable periodic per-rank checkpoints
// of the full coupled state; --resume restarts from the newest committed
// epoch (falling back past corrupt ones), producing a report identical to an
// uninterrupted run. See docs/CHECKPOINTING.md. The flags override the
// checkpoint.dir / checkpoint.every configuration keys.
//
// Example configuration:
//
//   box           = 12        # unit cells per axis
//   ranks         = 4
//   temperature   = 600
//   md.time_ps    = 0.08
//   pka.count     = 4
//   pka.energy_ev = 100
//   kmc.cycles    = 60
//   kmc.strategy  = on-demand # traditional | on-demand | on-demand-2sided
//   xyz           = damage.xyz

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "lattice/geometry.h"
#include "telemetry/analysis.h"
#include "telemetry/comm_trace.h"
#include "telemetry/export.h"
#include "telemetry/session.h"
#include "util/key_value.h"

using namespace mmd;

namespace {

void print_defaults() {
  std::printf(
      "# mmd_run configuration (defaults shown)\n"
      "%s"
      "xyz           =          # optional: write final KMC sites as .xyz\n",
      core::scenario_defaults_text().c_str());
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: mmd_run <config-file> [--trace-out=FILE] "
               "[--metrics-out=FILE]\n"
               "               [--comm-trace-out=FILE] [--perf-report[=FILE]]\n"
               "               [--checkpoint-dir=DIR] "
               "[--checkpoint-every=CYCLES] [--resume]\n"
               "       mmd_run --print-defaults\n"
               "       mmd_run --help\n");
}

void print_help() {
  print_usage(stdout);
  std::printf(
      "\nRun the coupled MD-KMC metal-damage simulation described by the\n"
      "key=value <config-file> (see --print-defaults for the schema and\n"
      "docs/SAMPLING.md for the sampled long-time mode, sample.*).\n"
      "\noptions:\n"
      "  --trace-out=FILE         Chrome-trace JSON of per-rank phase spans\n"
      "  --metrics-out=FILE       flat metrics JSON (counters/gauges/timings)\n"
      "  --comm-trace-out=FILE    comm flight-recorder binary trace\n"
      "  --perf-report[=FILE]     per-phase critical-path analysis (stdout;\n"
      "                           with =FILE also the versioned JSON form)\n"
      "  --checkpoint-dir=DIR     per-rank checkpoint directory\n"
      "  --checkpoint-every=N     KMC cycles between checkpoint epochs\n"
      "  --resume                 restart from the newest committed epoch\n"
      "  --print-defaults         print the configuration schema and exit\n"
      "  --help                   this text\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string trace_out;
  std::string metrics_out;
  std::string comm_trace_out;
  std::string checkpoint_dir;
  int checkpoint_every = -1;  // -1: not given on the command line
  bool resume = false;
  bool perf_report = false;
  std::string perf_report_out;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-defaults") {
      print_defaults();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg.rfind("--comm-trace-out=", 0) == 0) {
      comm_trace_out = arg.substr(17);
    } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      checkpoint_dir = arg.substr(17);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      checkpoint_every = std::stoi(arg.substr(19));
    } else if (arg == "--perf-report") {
      perf_report = true;
    } else if (arg.rfind("--perf-report=", 0) == 0) {
      perf_report = true;
      perf_report_out = arg.substr(14);
    } else if (arg == "--resume") {
      resume = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage_error = true;
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      usage_error = true;
    }
  }
  if (usage_error || config_path.empty()) {
    print_usage(stderr);
    return 2;
  }

  try {
    const auto cfg_file = util::KeyValueConfig::parse_file(config_path);

    core::SimulationConfig cfg = core::scenario_from_kv(cfg_file);
    const std::string xyz_path = cfg_file.get_string("xyz", "");
    // A typo'd key would silently fall through to its default; fail loudly
    // with the offending file:line instead.
    cfg_file.reject_unknown_keys();
    if (!checkpoint_dir.empty()) cfg.checkpoint_dir = checkpoint_dir;
    if (checkpoint_every >= 0) cfg.checkpoint_every = checkpoint_every;
    cfg.resume = resume;
    if (cfg.resume && cfg.checkpoint_dir.empty()) {
      std::fprintf(stderr, "error: --resume requires --checkpoint-dir or "
                           "checkpoint.dir\n");
      return 2;
    }

    // The flag overrides the comm.trace scenario key, mirroring checkpoints.
    if (!comm_trace_out.empty()) cfg.comm_trace = comm_trace_out;

    const int box = cfg.md.nx;
    std::printf("mmd_run: %d^3 cells (%d atoms), %d ranks, T = %.0f K\n", box,
                2 * box * box * box, cfg.nranks, cfg.md.temperature);
    // A session costs span rings and registry writes; open one only when
    // the run exports what it records. Without one the run is untraced.
    std::optional<telemetry::Session> session;
    if (!trace_out.empty() || !metrics_out.empty() || perf_report ||
        !cfg.comm_trace.empty()) {
      telemetry::Session::Options session_opt;
      if (!cfg.comm_trace.empty()) {
        session_opt.comm_events_per_rank = std::size_t{1} << 16;
      }
      session.emplace(cfg.nranks, session_opt);
    }
    core::Simulation sim(cfg);
    const auto report = sim.run();
    // stderr, so stdout stays byte-comparable between a full run and a
    // kill-and-resume run (the CI restart-equivalence check diffs it).
    if (cfg.resume) {
      if (report.resumed) {
        std::fprintf(stderr, "mmd_run: resumed from checkpoint at KMC cycle %llu\n",
                     static_cast<unsigned long long>(report.resumed_from_cycle));
      } else {
        std::fprintf(stderr,
                     "mmd_run: no usable checkpoint in '%s'; started fresh\n",
                     cfg.checkpoint_dir.c_str());
      }
    }
    std::printf("%s\n", core::to_string(report).c_str());

    if (!trace_out.empty()) {
      // With the flight recorder on, comm messages ride along as flow arrows.
      if (!telemetry::write_chrome_trace_file(trace_out, session->tracer(),
                                              session->comm_recorder())) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("wrote %s (Chrome trace; load in chrome://tracing or Perfetto)\n",
                  trace_out.c_str());
    }
    if (!cfg.comm_trace.empty()) {
      const auto agg = session->metrics().aggregate();
      const auto counter = [&](const char* name) -> std::uint64_t {
        const auto it = agg.counters.find(name);
        return it == agg.counters.end() ? 0 : it->second;
      };
      const auto nranks_u = static_cast<std::uint64_t>(cfg.nranks);
      // Per-rank step count: every rank walks the same MD + KMC loop, so the
      // replay's per-step normalization divides the aggregate by nranks.
      const std::uint64_t steps =
          (counter("md.steps") + counter("kmc.cycles")) / nranks_u;
      std::map<std::string, std::string> meta;
      meta["scenario"] = config_path;
      meta["ranks"] = std::to_string(cfg.nranks);
      meta["box"] = std::to_string(box);
      meta["atoms"] = std::to_string(2 * box * box * box);
      meta["steps"] = std::to_string(steps > 0 ? steps : 1);
      meta["md_steps"] = std::to_string(counter("md.steps") / nranks_u);
      meta["kmc_cycles"] = std::to_string(counter("kmc.cycles") / nranks_u);
      const auto trace = telemetry::trace_from_recorder(
          *session->comm_recorder(), std::move(meta));
      std::string err;
      if (!telemetry::write_comm_trace_file(cfg.comm_trace, trace, &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
      }
      std::printf("wrote %s (comm trace: %llu events, %llu dropped)\n",
                  cfg.comm_trace.c_str(),
                  static_cast<unsigned long long>(trace.total_stored()),
                  static_cast<unsigned long long>(trace.total_dropped()));
    }
    if (!metrics_out.empty()) {
      if (!telemetry::write_metrics_json_file(metrics_out, session->metrics())) {
        std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
        return 1;
      }
      std::printf("wrote %s (metrics registry)\n", metrics_out.c_str());
    }

    if (perf_report) {
      const auto perf =
          telemetry::analyze(session->tracer(), session->metrics());
      write_perf_report_text(std::cout, perf);
      if (!perf_report_out.empty()) {
        if (!telemetry::write_perf_report_json_file(perf_report_out, perf)) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       perf_report_out.c_str());
          return 1;
        }
        std::printf("wrote %s (perf report)\n", perf_report_out.c_str());
      }
    }

    if (!xyz_path.empty()) {
      // Final vacancy field as pseudo-atom XYZ for OVITO/VMD.
      std::ofstream os(xyz_path);
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", xyz_path.c_str());
        return 1;
      }
      const lat::BccGeometry geo(box, box, box, cfg.md.lattice_constant);
      os << report.final_vacancies.size() << "\n";
      os << "Lattice=\"" << geo.box_length().x << " 0 0 0 " << geo.box_length().y
         << " 0 0 0 " << geo.box_length().z
         << "\" Properties=species:S:1:pos:R:3 final KMC vacancies\n";
      for (const std::int64_t gid : report.final_vacancies) {
        const util::Vec3 r = geo.position(geo.site_coord(gid));
        os << "X " << r.x << ' ' << r.y << ' ' << r.z << '\n';
      }
      std::printf("wrote %s (%zu vacancies)\n", xyz_path.c_str(),
                  report.final_vacancies.size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
