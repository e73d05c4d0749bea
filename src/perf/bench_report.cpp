#include "perf/bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "util/json.h"
#include "util/stats.h"

namespace mmd::perf {

namespace {

// Configure-time facts arrive as compile definitions (see src/perf/CMakeLists);
// fall back loudly rather than failing the build when they are absent.
#ifndef MMD_GIT_SHA
#define MMD_GIT_SHA "unknown"
#endif
#ifndef MMD_BUILD_TYPE
#define MMD_BUILD_TYPE "unknown"
#endif
#ifndef MMD_CXX_FLAGS
#define MMD_CXX_FLAGS ""
#endif
#ifndef MMD_SOURCE_DIR
#define MMD_SOURCE_DIR ""
#endif

/// Resolve the source tree's HEAD at BENCH RUNTIME. The configure-time SHA
/// (MMD_GIT_SHA) goes stale the moment a commit lands without re-running
/// CMake — a baseline refreshed from such a build points perf regressions at
/// the wrong commit. Runtime resolution asks git directly; the baked-in SHA
/// remains only as the fallback for tarball builds or stripped environments.
std::string resolve_git_sha() {
  const char* dir = MMD_SOURCE_DIR;
  if (dir[0] != '\0') {
    const std::string cmd =
        std::string("git -C \"") + dir + "\" rev-parse --short=12 HEAD 2>/dev/null";
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
      char buf[64] = {};
      const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
      const int status = pclose(pipe);
      if (got && status == 0) {
        std::string sha(buf);
        while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
          sha.pop_back();
        }
        const bool hex =
            sha.size() >= 7 && sha.size() <= 40 &&
            std::all_of(sha.begin(), sha.end(), [](char c) {
              return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
            });
        if (hex) return sha;
      }
    }
  }
  return MMD_GIT_SHA;
}

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "0";  // JSON has no inf/nan; a bench metric should never produce one
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

BenchEnv capture_bench_env() {
  BenchEnv env;
  env.git_sha = resolve_git_sha();
  env.compiler = compiler_string();
  env.flags = MMD_CXX_FLAGS;
  env.build_type = MMD_BUILD_TYPE;
  env.hardware_threads = static_cast<int>(std::thread::hardware_concurrency());
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  env.timestamp_utc = buf;
  return env;
}

void BenchMetric::finalize() {
  if (samples.empty()) {
    median = mad = min = max = mean = 0.0;
    outliers = 0;
    return;
  }
  median = util::median(samples);
  mad = util::median_abs_deviation(samples);
  min = *std::min_element(samples.begin(), samples.end());
  max = *std::max_element(samples.begin(), samples.end());
  double sum = 0.0;
  for (double s : samples) sum += s;
  mean = sum / static_cast<double>(samples.size());
  outliers = 0;
  const double gate = 3.0 * 1.4826 * mad;
  if (gate > 0.0) {
    for (double s : samples) {
      if (std::abs(s - median) > gate) ++outliers;
    }
  }
}

BenchMetric* BenchReport::find(std::string_view metric) {
  for (auto& m : metrics) {
    if (m.name == metric) return &m;
  }
  return nullptr;
}

const BenchMetric* BenchReport::find(std::string_view metric) const {
  return const_cast<BenchReport*>(this)->find(metric);
}

void BenchReport::write_json(std::ostream& os) const {
  os << "{\"schema\":\"mmd.bench\",\"schema_version\":" << kSchemaVersion
     << ",\"name\":";
  write_escaped(os, name);
  os << ",\n\"env\":{\"git_sha\":";
  write_escaped(os, env.git_sha);
  os << ",\"compiler\":";
  write_escaped(os, env.compiler);
  os << ",\"flags\":";
  write_escaped(os, env.flags);
  os << ",\"build_type\":";
  write_escaped(os, env.build_type);
  os << ",\"hardware_threads\":" << env.hardware_threads << ",\"timestamp_utc\":";
  write_escaped(os, env.timestamp_utc);
  os << "},\n\"harness\":{\"warmup\":" << warmup << ",\"repeats\":" << repeats
     << "},\n\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const BenchMetric& m = metrics[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":";
    write_escaped(os, m.name);
    os << ",\"unit\":";
    write_escaped(os, m.unit);
    os << ",\"lower_is_better\":" << (m.lower_is_better ? "true" : "false")
       << ",\"median\":";
    write_number(os, m.median);
    os << ",\"mad\":";
    write_number(os, m.mad);
    os << ",\"min\":";
    write_number(os, m.min);
    os << ",\"max\":";
    write_number(os, m.max);
    os << ",\"mean\":";
    write_number(os, m.mean);
    os << ",\"outliers\":" << m.outliers << ",\"samples\":[";
    for (std::size_t s = 0; s < m.samples.size(); ++s) {
      if (s > 0) os << ",";
      write_number(os, m.samples[s]);
    }
    os << "]}";
  }
  os << "\n]}\n";
}

std::string BenchReport::write_file(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open '" + path + "' for writing");
  write_json(os);
  os.flush();
  if (!os) throw std::runtime_error("short write to '" + path + "'");
  return path;
}

BenchReport BenchReport::from_json(const util::json::Value& v) {
  if (const util::json::Value* schema = v.find("schema");
      schema == nullptr || schema->str() != "mmd.bench") {
    throw util::json::Error("not an mmd.bench document (missing schema tag)");
  }
  const int version = static_cast<int>(v.at("schema_version").number());
  if (version != kSchemaVersion) {
    throw util::json::Error("unsupported mmd.bench schema_version " +
                            std::to_string(version) + " (expected " +
                            std::to_string(kSchemaVersion) + ")");
  }
  BenchReport r;
  r.name = v.at("name").str();
  const util::json::Value& env = v.at("env");
  r.env.git_sha = env.at("git_sha").str();
  r.env.compiler = env.at("compiler").str();
  r.env.flags = env.at("flags").str();
  r.env.build_type = env.at("build_type").str();
  r.env.hardware_threads = static_cast<int>(env.at("hardware_threads").number());
  r.env.timestamp_utc = env.at("timestamp_utc").str();
  const util::json::Value& harness = v.at("harness");
  r.warmup = static_cast<int>(harness.at("warmup").number());
  r.repeats = static_cast<int>(harness.at("repeats").number());
  for (const util::json::Value& jm : v.at("metrics").array()) {
    BenchMetric m;
    m.name = jm.at("name").str();
    m.unit = jm.at("unit").str();
    m.lower_is_better = jm.at("lower_is_better").boolean();
    m.median = jm.at("median").number();
    m.mad = jm.at("mad").number();
    m.min = jm.at("min").number();
    m.max = jm.at("max").number();
    m.mean = jm.at("mean").number();
    m.outliers = static_cast<int>(jm.at("outliers").number());
    for (const util::json::Value& s : jm.at("samples").array()) {
      m.samples.push_back(s.number());
    }
    r.metrics.push_back(std::move(m));
  }
  return r;
}

BenchReport BenchReport::load_file(const std::string& path) {
  return from_json(util::json::parse_file(path));
}

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::Pass: return "pass";
    case Verdict::Warn: return "warn";
    case Verdict::Fail: return "FAIL";
  }
  return "?";
}

std::vector<std::string> env_mismatches(const BenchEnv& baseline,
                                        const BenchEnv& candidate) {
  std::vector<std::string> out;
  const auto check = [&](const char* field, const std::string& b,
                         const std::string& c) {
    if (b != c) out.push_back(std::string(field) + " " + b + " vs " + c);
  };
  check("hardware_threads", std::to_string(baseline.hardware_threads),
        std::to_string(candidate.hardware_threads));
  check("compiler", baseline.compiler, candidate.compiler);
  check("flags", baseline.flags, candidate.flags);
  check("build_type", baseline.build_type, candidate.build_type);
  return out;
}

Verdict DiffReport::overall() const {
  Verdict worst = Verdict::Pass;
  for (const auto& m : metrics) {
    if (static_cast<int>(m.verdict) > static_cast<int>(worst)) worst = m.verdict;
  }
  return worst;
}

DiffReport diff_reports(const BenchReport& baseline, const BenchReport& candidate,
                        const DiffOptions& opt) {
  DiffReport out;
  for (const BenchMetric& b : baseline.metrics) {
    MetricDiff d;
    d.name = b.name;
    d.unit = b.unit;
    d.base_median = b.median;
    const BenchMetric* c = candidate.find(b.name);
    if (c == nullptr) {
      d.missing_in_candidate = true;
      d.verdict = Verdict::Warn;
      out.metrics.push_back(std::move(d));
      continue;
    }
    d.cand_median = c->median;
    if (b.median == 0.0) {
      // No baseline magnitude to scale against: equal is a pass, anything
      // else is worth a look but cannot be graded.
      d.verdict = c->median == 0.0 ? Verdict::Pass : Verdict::Warn;
      out.metrics.push_back(std::move(d));
      continue;
    }
    const double delta_rel = (c->median - b.median) / std::abs(b.median);
    d.regression_rel = b.lower_is_better ? delta_rel : -delta_rel;
    // Noise gate from the recorded spread of both sides: a robust sigma of
    // the repeat-to-repeat jitter, relative to the baseline magnitude.
    const double sigma = 1.4826 * std::max(b.mad, c->mad);
    const double noise_rel = opt.noise_sigmas * sigma / std::abs(b.median);
    d.threshold_rel = std::max(opt.rel_floor, noise_rel);
    if (d.regression_rel <= d.threshold_rel) {
      d.verdict = Verdict::Pass;
    } else if (d.regression_rel <= std::max(opt.fail_rel, 2.0 * d.threshold_rel)) {
      d.verdict = Verdict::Warn;
    } else {
      d.verdict = opt.warn_only ? Verdict::Warn : Verdict::Fail;
    }
    out.metrics.push_back(std::move(d));
  }
  for (const BenchMetric& c : candidate.metrics) {
    if (baseline.find(c.name) != nullptr) continue;
    MetricDiff d;
    d.name = c.name;
    d.unit = c.unit;
    d.cand_median = c.median;
    d.missing_in_baseline = true;
    d.verdict = Verdict::Warn;
    out.metrics.push_back(std::move(d));
  }
  return out;
}

void write_diff_text(std::ostream& os, const DiffReport& diff) {
  char line[256];
  std::snprintf(line, sizeof(line), "  %-44s %14s %14s %9s %9s  %s\n", "metric",
                "baseline", "candidate", "delta", "noise", "verdict");
  os << line;
  for (const MetricDiff& m : diff.metrics) {
    if (m.missing_in_candidate || m.missing_in_baseline) {
      std::snprintf(line, sizeof(line), "  %-44s %14s %14s %9s %9s  %s (%s)\n",
                    m.name.c_str(),
                    m.missing_in_baseline ? "-" : "present",
                    m.missing_in_candidate ? "-" : "present", "", "",
                    std::string(to_string(m.verdict)).c_str(),
                    m.missing_in_baseline ? "new metric" : "metric disappeared");
      os << line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  %-44s %14.4g %14.4g %+8.1f%% %8.1f%%  %s\n", m.name.c_str(),
                  m.base_median, m.cand_median, 100.0 * m.regression_rel,
                  100.0 * m.threshold_rel,
                  std::string(to_string(m.verdict)).c_str());
    os << line;
  }
  os << "  overall: " << to_string(diff.overall()) << "\n";
}

}  // namespace mmd::perf
