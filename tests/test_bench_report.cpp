#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perf/bench_report.h"
#include "util/json.h"

namespace mmd::perf {
namespace {

BenchReport make_report(const std::string& name,
                        std::vector<std::pair<std::string, std::vector<double>>> metrics,
                        bool lower_is_better = true) {
  BenchReport r;
  r.name = name;
  r.env = capture_bench_env();
  r.warmup = 1;
  r.repeats = 3;
  for (auto& [mname, samples] : metrics) {
    BenchMetric m;
    m.name = mname;
    m.unit = "ms";
    m.lower_is_better = lower_is_better;
    m.samples = std::move(samples);
    m.finalize();
    r.metrics.push_back(std::move(m));
  }
  return r;
}

TEST(BenchMetric, FinalizeRobustStats) {
  BenchMetric m;
  m.samples = {1.0, 2.0, 3.0, 4.0, 100.0};
  m.finalize();
  EXPECT_DOUBLE_EQ(m.median, 3.0);
  EXPECT_DOUBLE_EQ(m.mad, 1.0);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 100.0);
  EXPECT_DOUBLE_EQ(m.mean, 22.0);
  // Outlier gate: median +/- 3 * 1.4826 * MAD = 3 +/- 4.45 — only 100 is out.
  EXPECT_EQ(m.outliers, 1);
}

TEST(BenchReport, EnvCaptureIsPopulated) {
  const BenchEnv env = capture_bench_env();
  EXPECT_FALSE(env.git_sha.empty());
  // The SHA is resolved at runtime from the source checkout (configure-time
  // value only as fallback): always either abbreviated-hex or "unknown".
  if (env.git_sha != "unknown") {
    EXPECT_GE(env.git_sha.size(), 7u);
    EXPECT_LE(env.git_sha.size(), 40u);
    for (const char c : env.git_sha) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
          << "non-hex char in git_sha: " << env.git_sha;
    }
  }
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.build_type.empty());
  EXPECT_GE(env.hardware_threads, 1);
  // ISO-8601 Zulu, e.g. 2026-08-06T08:05:48Z
  ASSERT_EQ(env.timestamp_utc.size(), 20u);
  EXPECT_EQ(env.timestamp_utc[10], 'T');
  EXPECT_EQ(env.timestamp_utc.back(), 'Z');
}

TEST(BenchReport, JsonRoundTrip) {
  const BenchReport r = make_report("roundtrip", {{"alpha", {1.0, 2.0, 3.0}},
                                                  {"beta", {5.0}}});
  std::ostringstream os;
  r.write_json(os);
  const auto v = util::json::parse(os.str());
  EXPECT_EQ(v.at("schema").str(), "mmd.bench");
  EXPECT_DOUBLE_EQ(v.at("schema_version").number(), BenchReport::kSchemaVersion);

  const BenchReport back = BenchReport::from_json(v);
  EXPECT_EQ(back.name, "roundtrip");
  EXPECT_EQ(back.warmup, 1);
  EXPECT_EQ(back.repeats, 3);
  EXPECT_EQ(back.env.git_sha, r.env.git_sha);
  ASSERT_EQ(back.metrics.size(), 2u);
  const BenchMetric* alpha = back.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_DOUBLE_EQ(alpha->median, 2.0);
  EXPECT_EQ(alpha->samples, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(alpha->lower_is_better);
}

TEST(BenchReport, WriteFileAndLoadFile) {
  const BenchReport r = make_report("filetest", {{"m", {1.0, 2.0, 3.0}}});
  const std::string path = r.write_file(testing::TempDir());
  EXPECT_NE(path.find("BENCH_filetest.json"), std::string::npos);
  const BenchReport back = BenchReport::load_file(path);
  EXPECT_EQ(back.name, "filetest");
  ASSERT_NE(back.find("m"), nullptr);
  EXPECT_DOUBLE_EQ(back.find("m")->median, 2.0);
}

TEST(BenchReport, WriteFileThrowsOnBadDir) {
  const BenchReport r = make_report("nodir", {{"m", {1.0}}});
  EXPECT_THROW((void)r.write_file("/nonexistent-mmd-dir/sub"), std::runtime_error);
}

TEST(BenchReport, FromJsonRejectsWrongSchema) {
  EXPECT_THROW(BenchReport::from_json(util::json::parse(
                   R"({"schema":"other","schema_version":1})")),
               util::json::Error);
  EXPECT_THROW(BenchReport::from_json(util::json::parse(
                   R"({"schema":"mmd.bench","schema_version":999,"name":"x",)"
                   R"("env":{},"harness":{"warmup":0,"repeats":1},"metrics":[]})")),
               util::json::Error);
}

TEST(BenchDiff, IdenticalReportsPass) {
  const BenchReport r = make_report("b", {{"m", {10.0, 10.1, 9.9}}});
  const DiffReport d = diff_reports(r, r);
  EXPECT_EQ(d.overall(), Verdict::Pass);
  ASSERT_EQ(d.metrics.size(), 1u);
  EXPECT_EQ(d.metrics[0].verdict, Verdict::Pass);
  EXPECT_DOUBLE_EQ(d.metrics[0].regression_rel, 0.0);
}

TEST(BenchDiff, SmallRegressionWarnsLargeFails) {
  // Zero-MAD samples: the noise gate collapses and only the relative floors
  // apply (floor 2%, fail 10%).
  const BenchReport base = make_report("b", {{"m", {10.0, 10.0, 10.0}}});
  const BenchReport warn = make_report("b", {{"m", {10.5, 10.5, 10.5}}});
  const BenchReport fail = make_report("b", {{"m", {15.0, 15.0, 15.0}}});
  EXPECT_EQ(diff_reports(base, warn).overall(), Verdict::Warn);
  EXPECT_EQ(diff_reports(base, fail).overall(), Verdict::Fail);
  // Improvements never regress the verdict.
  const BenchReport faster = make_report("b", {{"m", {5.0, 5.0, 5.0}}});
  EXPECT_EQ(diff_reports(base, faster).overall(), Verdict::Pass);
}

TEST(BenchDiff, NoiseGateAbsorbsJitter) {
  // MAD of {9,10,11} is 1 → robust sigma 1.4826, gate 3σ ≈ 44% of the
  // median. A +20% shift is inside the gate: pass, not warn/fail.
  const BenchReport base = make_report("b", {{"m", {9.0, 10.0, 11.0}}});
  const BenchReport cand = make_report("b", {{"m", {11.0, 12.0, 13.0}}});
  const DiffReport d = diff_reports(base, cand);
  EXPECT_EQ(d.overall(), Verdict::Pass);
  EXPECT_GT(d.metrics[0].threshold_rel, 0.2);
}

TEST(BenchDiff, HigherIsBetterFlipsDirection) {
  const BenchReport base = make_report("b", {{"mbps", {100.0, 100.0, 100.0}}},
                                       /*lower_is_better=*/false);
  const BenchReport slower = make_report("b", {{"mbps", {80.0, 80.0, 80.0}}},
                                         /*lower_is_better=*/false);
  const BenchReport higher = make_report("b", {{"mbps", {150.0, 150.0, 150.0}}},
                                         /*lower_is_better=*/false);
  EXPECT_EQ(diff_reports(base, slower).overall(), Verdict::Fail);
  EXPECT_EQ(diff_reports(base, higher).overall(), Verdict::Pass);
}

TEST(BenchDiff, MissingMetricsWarn) {
  const BenchReport base = make_report("b", {{"old", {1.0}}, {"kept", {1.0}}});
  const BenchReport cand = make_report("b", {{"kept", {1.0}}, {"new", {1.0}}});
  const DiffReport d = diff_reports(base, cand);
  EXPECT_EQ(d.overall(), Verdict::Warn);
  int missing_cand = 0, missing_base = 0;
  for (const MetricDiff& m : d.metrics) {
    missing_cand += m.missing_in_candidate ? 1 : 0;
    missing_base += m.missing_in_baseline ? 1 : 0;
  }
  EXPECT_EQ(missing_cand, 1);  // "old"
  EXPECT_EQ(missing_base, 1);  // "new"
}

TEST(BenchDiff, WarnOnlyDemotesFail) {
  const BenchReport base = make_report("b", {{"m", {10.0, 10.0, 10.0}}});
  const BenchReport fail = make_report("b", {{"m", {20.0, 20.0, 20.0}}});
  DiffOptions opt;
  opt.warn_only = true;
  EXPECT_EQ(diff_reports(base, fail, opt).overall(), Verdict::Warn);
}

TEST(BenchDiff, TextTableMentionsEveryMetric) {
  const BenchReport base = make_report("b", {{"m1", {1.0}}, {"m2", {2.0}}});
  const DiffReport d = diff_reports(base, base);
  std::ostringstream os;
  write_diff_text(os, d);
  EXPECT_NE(os.str().find("m1"), std::string::npos);
  EXPECT_NE(os.str().find("m2"), std::string::npos);
  EXPECT_NE(os.str().find("overall: pass"), std::string::npos);
}

TEST(BenchDiff, EnvMismatchesNameEachDifferingField) {
  BenchEnv base;
  base.git_sha = "aaa";
  base.compiler = "gcc 13.2.0";
  base.flags = "-O3";
  base.build_type = "Release";
  base.hardware_threads = 1;
  BenchEnv cand = base;
  cand.git_sha = "bbb";  // expected to differ: not a mismatch
  EXPECT_TRUE(env_mismatches(base, cand).empty());

  cand.hardware_threads = 4;
  cand.build_type = "Debug";
  const std::vector<std::string> m = env_mismatches(base, cand);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], "hardware_threads 1 vs 4");
  EXPECT_EQ(m[1], "build_type Release vs Debug");
}

}  // namespace
}  // namespace mmd::perf
