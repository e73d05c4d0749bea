#pragma once

// BENCH_<name>.json — the stable, versioned schema every bench binary emits
// and tools/mmd_perf_diff consumes. One report per binary; one metric per
// measured quantity, carrying robust statistics (median/MAD/min) over the
// timed repeats plus the raw samples, so a later diff can derive its noise
// threshold from the recorded spread instead of a guessed percentage.
// Schema documented in docs/OBSERVABILITY.md; bump kSchemaVersion on any
// incompatible change.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mmd::util::json {
class Value;
}

namespace mmd::perf {

/// Where the numbers came from: enough to tell two BENCH files apart when a
/// diff looks suspicious (different compiler? different box? stale build?).
struct BenchEnv {
  std::string git_sha;        // configure-time HEAD, "unknown" outside a repo
  std::string compiler;       // e.g. "gcc 13.2.0"
  std::string flags;          // CMAKE_CXX_FLAGS + per-config flags
  std::string build_type;     // e.g. "Release"
  int hardware_threads = 0;   // std::thread::hardware_concurrency
  std::string timestamp_utc;  // run time, ISO-8601 Z
};

/// Environment of the running binary (compile-time defines + runtime probes).
BenchEnv capture_bench_env();

/// One measured quantity. `samples` holds one value per timed repeat (a
/// deterministic quantity — a byte count, a modeled time — is a single
/// sample); the derived fields are filled by finalize().
struct BenchMetric {
  std::string name;
  std::string unit;             // "ns/op", "ms", "bytes", "ratio", ...
  bool lower_is_better = true;  // diff direction
  std::vector<double> samples;

  // Derived by finalize():
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation of the samples
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  int outliers = 0;  // samples beyond median +/- 3 * 1.4826 * MAD

  void finalize();
};

struct BenchReport {
  static constexpr int kSchemaVersion = 1;

  std::string name;  // bench binary name; file becomes BENCH_<name>.json
  BenchEnv env;
  int warmup = 0;   // untimed repeats discarded before sampling
  int repeats = 0;  // timed repeats per metric (deterministic metrics: 1)
  std::vector<BenchMetric> metrics;

  BenchMetric* find(std::string_view metric);
  const BenchMetric* find(std::string_view metric) const;

  void write_json(std::ostream& os) const;
  /// Write `<dir>/BENCH_<name>.json`; returns the path written. Throws
  /// std::runtime_error naming the path when the file cannot be written.
  std::string write_file(const std::string& dir = ".") const;

  /// Throws util::json::Error on schema violations (wrong version included).
  static BenchReport from_json(const util::json::Value& v);
  static BenchReport load_file(const std::string& path);
};

// --- regression diffing -----------------------------------------------------

enum class Verdict { Pass = 0, Warn = 1, Fail = 2 };
std::string_view to_string(Verdict v);

struct DiffOptions {
  /// Relative deltas below this are always a pass (measurement floor).
  double rel_floor = 0.02;
  /// Noise gate: regressions within `noise_sigmas` robust standard
  /// deviations (1.4826 * MAD of either side's samples, relative to the
  /// baseline median) are a pass.
  double noise_sigmas = 3.0;
  /// Regressions beyond both the noise gate and this relative delta fail;
  /// between the gate and this, they warn.
  double fail_rel = 0.10;
  /// Demote every Fail to Warn (CI seed baselines from different hardware).
  bool warn_only = false;
};

struct MetricDiff {
  std::string name;
  std::string unit;
  double base_median = 0.0;
  double cand_median = 0.0;
  /// Signed regression: positive = candidate worse, whatever the metric's
  /// direction (higher-is-better metrics are sign-flipped).
  double regression_rel = 0.0;
  /// The threshold that was actually applied (max of floor and noise gate).
  double threshold_rel = 0.0;
  Verdict verdict = Verdict::Pass;
  /// Metric present in only one of the two reports (always a Warn).
  bool missing_in_baseline = false;
  bool missing_in_candidate = false;
};

struct DiffReport {
  std::vector<MetricDiff> metrics;
  Verdict overall() const;
};

DiffReport diff_reports(const BenchReport& baseline, const BenchReport& candidate,
                        const DiffOptions& opt = {});

/// Human-readable verdict table (one line per metric + overall).
void write_diff_text(std::ostream& os, const DiffReport& diff);

/// Environment fields that make two reports hard to compare, one entry per
/// differing field as "<field> <baseline> vs <candidate>": hardware_threads,
/// compiler, flags and build_type (git_sha and timestamp always differ).
std::vector<std::string> env_mismatches(const BenchEnv& baseline,
                                        const BenchEnv& candidate);

}  // namespace mmd::perf
