/// \file tpch_bench.cc
/// TPC-H end-to-end benchmark driver.
///
///   tpch_bench --workload tpch-rdma --seed 1 --seconds 15 --trace 0
///              [--trace-out trace.json] [--commit SHA]
///              [--source-digest HEX]
///
/// Prints run metadata, per-query diagnostics and every metric by name
/// with its unit; the last line is the JSON report. Exits 0 only when
/// every result matched the reference and every workload claim held.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr, "tpch_bench: %s\n", msg);
  std::fprintf(stderr,
               "usage: tpch_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--commit SHA] "
               "[--source-digest HEX]\nworkloads:");
  for (const std::string& w : tpchbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tpchbench::RunConfig config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else if (arg == "--commit") {
      config.commit = value;
    } else if (arg == "--source-digest") {
      config.source_digest = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!tpchbench::MakeWorkload(workload, &config.workload)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  tpchbench::RunReport report = tpchbench::RunBenchmark(config, stdout);
  std::printf("%s\n", tpchbench::ReportJsonLine(report).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
