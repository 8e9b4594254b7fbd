/// Tests of the benchmark's own helpers: statistics, the result
/// comparator, the tracer's self time, and that a run reports exactly the
/// metrics BENCHMARK.json declares, for every workload it names.
///
///   cmake -S tpchbench -B build-tpchbench -DTPCHBENCH_TESTS=ON
///   cmake --build build-tpchbench -j 4 && build-tpchbench/test_tpchbench

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_lib.h"
#include "runner.h"
#include "trace.h"

namespace tpchbench {
namespace {

using modularis::Field;
using modularis::RowVector;
using modularis::RowVectorPtr;
using modularis::Schema;

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(Stats, HighestPercentileLeavesTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 30; i >= 1; --i) v.push_back(i);  // unsorted input
  TailPercentile t = HighestPercentile(v);
  ASSERT_TRUE(t.valid);
  EXPECT_EQ(t.samples, 30u);
  EXPECT_DOUBLE_EQ(t.value, 20);  // 21..30 lie beyond it
  EXPECT_NEAR(t.percentile, 100.0 * 20 / 30, 1e-9);

  v.resize(11);  // 30..20
  t = HighestPercentile(v);
  ASSERT_TRUE(t.valid);
  EXPECT_DOUBLE_EQ(t.value, 20);
  EXPECT_NEAR(t.percentile, 100.0 / 11, 1e-9);

  v.resize(10);
  t = HighestPercentile(v);
  EXPECT_FALSE(t.valid);
  EXPECT_EQ(t.samples, 10u);
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(Geomean({1, 100}), 10, 1e-12);
  EXPECT_NEAR(Geomean({2, 8}), 4, 1e-12);
  EXPECT_NEAR(Geomean({5}), 5, 1e-12);
  EXPECT_DOUBLE_EQ(Geomean({}), 0);
  EXPECT_DOUBLE_EQ(Geomean({3, 0}), 0);
  EXPECT_DOUBLE_EQ(Geomean({3, -1}), 0);
}

RowVectorPtr MakeRows(int64_t key, double value, const std::string& name) {
  auto rows = RowVector::Make(Schema(
      {Field::I64("key"), Field::F64("value"), Field::Str("name", 16)}));
  for (int i = 0; i < 3; ++i) {
    auto w = rows->AppendRow();
    w.SetInt64(0, key + i);
    w.SetFloat64(1, value * (i + 1));
    w.SetString(2, name);
  }
  return rows;
}

TEST(Compare, AcceptsEqualAndTolerance) {
  auto want = MakeRows(7, 1234.5, "abc");
  EXPECT_EQ(CompareResults(*MakeRows(7, 1234.5, "abc"), *want), "");
  // 1e-9 relative is inside the 1e-6 tolerance.
  EXPECT_EQ(CompareResults(*MakeRows(7, 1234.5 * (1 + 1e-9), "abc"), *want),
            "");
}

TEST(Compare, RejectsPerturbedCells) {
  auto want = MakeRows(7, 1234.5, "abc");
  EXPECT_NE(CompareResults(*MakeRows(8, 1234.5, "abc"), *want), "");
  EXPECT_NE(CompareResults(*MakeRows(7, 1234.5 * (1 + 1e-5), "abc"), *want),
            "");
  EXPECT_NE(CompareResults(*MakeRows(7, 1234.5, "abd"), *want), "");
}

TEST(Compare, RejectsShapeDifferences) {
  auto want = MakeRows(7, 1234.5, "abc");
  auto fewer = RowVector::Make(want->schema());
  fewer->AppendRaw(want->row(0).data());
  EXPECT_NE(CompareResults(*fewer, *want), "");
  auto other = RowVector::Make(Schema({Field::I64("key")}));
  EXPECT_NE(CompareResults(*other, *want), "");
}

TEST(Trace, SelfTimeExcludesChildren) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", Tracer::kNewTrace);
    { ScopedSpan inner(&tracer, "inner"); }
    { ScopedSpan inner(&tracer, "inner"); }
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].trace_id, spans[0].id);
  EXPECT_EQ(spans[2].trace_id, spans[0].id);
  const auto self = tracer.SelfTimesUs();
  const double outer = spans[0].end_us - spans[0].start_us;
  const double kids = (spans[1].end_us - spans[1].start_us) +
                      (spans[2].end_us - spans[2].start_us);
  EXPECT_NEAR(self[0], outer - kids, 1e-6);
  const auto totals = tracer.Summarize();
  EXPECT_EQ(totals.at("inner").count, 2);
  const std::string json = tracer.ChromeTraceJson("{}");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Report completeness against BENCHMARK.json
// ---------------------------------------------------------------------------

std::string ReadBenchmarkJson() {
  std::ifstream in(std::string(TPCHBENCH_DIR) + "/../BENCHMARK.json");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The string values of `field` in the objects of the JSON array under
/// `key` (BENCHMARK.json's flat layout: no nested arrays).
std::vector<std::string> FieldUnder(const std::string& json,
                                    const std::string& key,
                                    const std::string& field) {
  std::vector<std::string> values;
  size_t pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return values;
  const size_t end = json.find(']', pos);
  for (;;) {
    pos = json.find("\"" + field + "\"", pos);
    if (pos == std::string::npos || pos > end) break;
    const size_t open = json.find('"', json.find(':', pos) + 1);
    const size_t close = json.find('"', open + 1);
    values.push_back(json.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return values;
}

std::vector<std::string> MetricNames(const RunReport& report) {
  std::vector<std::string> names;
  for (const Metric& m : report.metrics) names.push_back(m.name);
  return names;
}

std::vector<std::string> MetricUnits(const RunReport& report) {
  std::vector<std::string> units;
  for (const Metric& m : report.metrics) units.push_back(m.unit);
  return units;
}

TEST(Report, ContainsEveryDeclaredMetricForEveryWorkload) {
  const std::string json = ReadBenchmarkJson();
  ASSERT_FALSE(json.empty());
  const auto workloads = FieldUnder(json, "workloads", "name");
  const auto end_to_end = FieldUnder(json, "end_to_end", "name");
  const auto per_layer = FieldUnder(json, "per_layer", "name");
  const auto end_to_end_units = FieldUnder(json, "end_to_end", "unit");
  const auto per_layer_units = FieldUnder(json, "per_layer", "unit");
  ASSERT_FALSE(workloads.empty());
  ASSERT_FALSE(end_to_end.empty());
  ASSERT_FALSE(per_layer.empty());

  for (const std::string& name : workloads) {
    for (bool trace : {false, true}) {
      RunConfig config;
      ASSERT_TRUE(MakeWorkload(name, &config.workload)) << name;
      // A small, unthrottled copy of the workload: same platform, plan
      // and report path, none of the modelled waiting.
      config.workload.scale_factor = 0.01;
      config.workload.opts = Unthrottled(config.workload.opts);
      config.seconds = 0.001;
      config.trace = trace;
      FILE* log = std::fopen("/dev/null", "w");
      ASSERT_NE(log, nullptr);
      RunReport report = RunBenchmark(config, log);
      std::fclose(log);
      EXPECT_EQ(report.failed, 0) << name;
      EXPECT_GT(report.attempted, 0) << name;
      EXPECT_EQ(MetricNames(report), trace ? per_layer : end_to_end)
          << name << (trace ? " traced" : " untraced");
      EXPECT_EQ(MetricUnits(report),
                trace ? per_layer_units : end_to_end_units)
          << name;
      const std::string line = ReportJsonLine(report);
      for (const std::string& m : trace ? per_layer : end_to_end) {
        EXPECT_NE(line.find("\"" + m + "\": {\"value\": "),
                  std::string::npos)
            << m;
      }
    }
  }
}

}  // namespace
}  // namespace tpchbench
