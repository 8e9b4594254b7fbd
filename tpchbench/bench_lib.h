#ifndef TPCHBENCH_BENCH_LIB_H_
#define TPCHBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/row_vector.h"

/// \file bench_lib.h
/// Statistics, result comparison and host probes of the TPC-H end-to-end
/// benchmark. Pure helpers: nothing here touches the engine's execution
/// path, so tests can pin their behaviour down exactly.

namespace tpchbench {

/// Median of `values` (mean of the two middle elements for an even count).
/// Returns 0 for an empty input.
double Median(std::vector<double> values);

/// Geometric mean of strictly positive `values`; 0 when empty or when any
/// value is not positive.
double Geomean(const std::vector<double>& values);

/// The highest percentile of a sample set that still has at least ten
/// samples above it: sorted ascending, the element with exactly ten
/// elements after it. `percentile` is the share of samples at or below
/// it, in percent. `valid` is false when the set has no more than ten
/// samples.
struct TailPercentile {
  bool valid = false;
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};
TailPercentile HighestPercentile(std::vector<double> values);

/// Compares a query result with the reference result: same schema and
/// row count, integers, dates and strings exact, f64 within 1e-6
/// relative (of max(1, |x|, |y|)). Returns an empty string on a match,
/// otherwise a description of the first difference.
std::string CompareResults(const modularis::RowVector& got,
                           const modularis::RowVector& want);

/// Reads the process's resident-set high-water mark (VmHWM) in bytes from
/// /proc/self/status; 0 when unavailable.
int64_t PeakRssBytes();

/// One-minute load average from /proc/loadavg; -1 when unavailable.
double LoadAverage1m();

/// Aggregate CPU time counters of /proc/stat's "cpu" line, in clock ticks.
struct CpuTicks {
  bool valid = false;
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Escapes `s` for use inside a JSON string literal.
std::string JsonEscape(const std::string& s);

/// Formats a double for JSON with full precision (17 significant digits);
/// non-finite values become 0.
std::string JsonNumber(double v);

}  // namespace tpchbench

#endif  // TPCHBENCH_BENCH_LIB_H_
