#ifndef TPCHBENCH_RUNNER_H_
#define TPCHBENCH_RUNNER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "tpch/queries.h"

/// \file runner.h
/// The TPC-H end-to-end benchmark: one closed-loop client runs passes of
/// the eight evaluated queries through tpch::PrepareTpch /
/// tpch::RunTpchQuery on one named workload, checks every result against
/// tpch::RunReferenceQuery, and reports end-to-end metrics (untraced run)
/// or per-layer metrics (traced run). See METRICS.md for the catalog.

namespace tpchbench {

/// The eight evaluated queries, in pass order.
inline const std::vector<int>& Queries() {
  static const std::vector<int> queries = {1, 3, 4, 6, 12, 14, 18, 19};
  return queries;
}

struct WorkloadConfig {
  std::string name;
  double scale_factor = 0;
  modularis::tpch::TpchRunOptions opts;
};

/// Workload names, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// Fills `out` for a known workload name; false for an unknown one.
bool MakeWorkload(const std::string& name, WorkloadConfig* out);

/// `opts` with every modelled wait (fabric, Lambda invocation, S3 and
/// storage transfer, S3 Select scan) switched off; plans and results are
/// unchanged. The S3 Select scan wait is fixed when PrepareTpch builds the
/// context's S3SelectEngine, so it only switches off when these options
/// are also the ones passed to PrepareTpch.
modularis::tpch::TpchRunOptions Unthrottled(
    modularis::tpch::TpchRunOptions opts);

struct RunConfig {
  WorkloadConfig workload;
  uint64_t seed = 1;
  /// Measurement budget: another pass starts while the elapsed time plus
  /// half the median pass time so far is below it, so a run measures about
  /// round(seconds / pass time) passes; at least one (two when traced).
  double seconds = 10;
  /// false: end-to-end metrics, nothing traced. true: per-layer metrics;
  /// traced passes alternate with untraced ones for trace.overhead.
  bool trace = false;
  /// Chrome trace output path of a traced run ("" = not written).
  std::string trace_out;
  /// Run metadata passed through to the report.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics a run reports: end-to-end ones untraced, per-layer ones traced.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunReport {
  /// Every result matched its reference and every workload assertion held.
  bool correct = false;
  /// Query executions attempted / failed (non-OK or mismatched),
  /// warm-up passes included.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
};

/// Runs the benchmark; diagnostics go to `log`.
RunReport RunBenchmark(const RunConfig& config, FILE* log);

/// The report's one-line JSON object: correct, attempted, failed, metrics.
std::string ReportJsonLine(const RunReport& report);

}  // namespace tpchbench

#endif  // TPCHBENCH_RUNNER_H_
