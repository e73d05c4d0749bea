// mmd_perf_diff — compare two BENCH_*.json files (perf::BenchReport schema)
// and grade every shared metric pass / warn / fail against a noise threshold
// derived from the recorded MAD of both runs.
//
//   mmd_perf_diff baseline.json candidate.json
//   mmd_perf_diff --warn-only bench/baselines/BENCH_micro_comm.json BENCH_micro_comm.json
//
// Differing hardware_threads, compiler, flags or build_type print
// "warning: env mismatch: <field> <base> vs <cand>" on stderr and in the
// header; they never change the exit code.
//
// Exit codes (distinct so CI can gate on them):
//   0  every metric passed
//   3  at least one warning (regression between the noise gate and the fail
//      threshold, a new/vanished metric, or --warn-only demotions)
//   4  at least one failure
//   2  usage error, unreadable file, or schema mismatch
//
// Options:
//   --warn-only          demote failures to warnings (seed baselines recorded
//                        on different hardware)
//   --rel-floor=F        ignore relative regressions below F       (default 0.02)
//   --noise-sigmas=S     noise gate width in robust sigmas          (default 3)
//   --fail-rel=F         fail beyond this relative regression       (default 0.10)

#include <cstdio>
#include <iostream>
#include <string>

#include "perf/bench_report.h"

using namespace mmd;

namespace {

constexpr int kExitPass = 0;
constexpr int kExitUsage = 2;
constexpr int kExitWarn = 3;
constexpr int kExitFail = 4;

int usage() {
  std::fprintf(stderr,
               "usage: mmd_perf_diff [--warn-only] [--rel-floor=F] "
               "[--noise-sigmas=S] [--fail-rel=F]\n"
               "                     <baseline.json> <candidate.json>\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  perf::DiffOptions opt;
  std::string paths[2];
  int npaths = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--warn-only") {
        opt.warn_only = true;
      } else if (arg.rfind("--rel-floor=", 0) == 0) {
        opt.rel_floor = std::stod(arg.substr(12));
      } else if (arg.rfind("--noise-sigmas=", 0) == 0) {
        opt.noise_sigmas = std::stod(arg.substr(15));
      } else if (arg.rfind("--fail-rel=", 0) == 0) {
        opt.fail_rel = std::stod(arg.substr(11));
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
        return usage();
      } else if (npaths < 2) {
        paths[npaths++] = arg;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: bad value in '%s'\n", arg.c_str());
      return kExitUsage;
    }
  }
  if (npaths != 2) return usage();

  try {
    const perf::BenchReport baseline = perf::BenchReport::load_file(paths[0]);
    const perf::BenchReport candidate = perf::BenchReport::load_file(paths[1]);
    if (baseline.name != candidate.name) {
      std::fprintf(stderr,
                   "warning: comparing different benches ('%s' vs '%s')\n",
                   baseline.name.c_str(), candidate.name.c_str());
    }
    std::printf("mmd_perf_diff: %s\n  baseline : %s  (%s, %s, %s)\n"
                "  candidate: %s  (%s, %s, %s)\n",
                baseline.name.c_str(), paths[0].c_str(),
                baseline.env.git_sha.c_str(), baseline.env.compiler.c_str(),
                baseline.env.timestamp_utc.c_str(), paths[1].c_str(),
                candidate.env.git_sha.c_str(), candidate.env.compiler.c_str(),
                candidate.env.timestamp_utc.c_str());
    // Not fatal: CI perf-smoke diffs against baselines from other hosts.
    for (const std::string& m : perf::env_mismatches(baseline.env, candidate.env)) {
      std::fprintf(stderr, "warning: env mismatch: %s\n", m.c_str());
      std::printf("  warning: env mismatch: %s\n", m.c_str());
    }
    const perf::DiffReport diff = perf::diff_reports(baseline, candidate, opt);
    perf::write_diff_text(std::cout, diff);
    switch (diff.overall()) {
      case perf::Verdict::Pass: return kExitPass;
      case perf::Verdict::Warn: return kExitWarn;
      case perf::Verdict::Fail: return kExitFail;
    }
    return kExitFail;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  }
}
