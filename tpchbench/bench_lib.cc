#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace tpchbench {

using modularis::AtomType;
using modularis::RowRef;
using modularis::RowVector;

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

TailPercentile HighestPercentile(std::vector<double> values) {
  constexpr size_t kMinBeyond = 10;
  TailPercentile tail;
  tail.samples = values.size();
  if (values.size() <= kMinBeyond) return tail;
  std::sort(values.begin(), values.end());
  const size_t at = values.size() - kMinBeyond - 1;
  tail.valid = true;
  tail.value = values[at];
  tail.percentile = 100.0 * static_cast<double>(at + 1) /
                    static_cast<double>(values.size());
  return tail;
}

std::string CompareResults(const RowVector& got, const RowVector& want) {
  if (!got.schema().Equals(want.schema())) {
    return "schema " + got.schema().ToString() + " != " +
           want.schema().ToString();
  }
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) +
           " != " + std::to_string(want.size());
  }
  const size_t num_cols = want.schema().num_fields();
  for (size_t i = 0; i < want.size(); ++i) {
    RowRef g = got.row(i);
    RowRef w = want.row(i);
    for (size_t c = 0; c < num_cols; ++c) {
      const int col = static_cast<int>(c);
      bool equal = true;
      switch (want.schema().field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          equal = g.GetInt32(col) == w.GetInt32(col);
          break;
        case AtomType::kInt64:
          equal = g.GetInt64(col) == w.GetInt64(col);
          break;
        case AtomType::kFloat64: {
          const double x = g.GetFloat64(col);
          const double y = w.GetFloat64(col);
          const double tol =
              1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
          equal = std::fabs(x - y) <= tol;
          break;
        }
        case AtomType::kString:
          equal = g.GetString(col) == w.GetString(col);
          break;
      }
      if (!equal) {
        return "row " + std::to_string(i) + " column " + std::to_string(c) +
               " (" + want.schema().field(c).name + ") differs";
      }
    }
  }
  return "";
}

int64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      int64_t kib = 0;
      fields >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

double LoadAverage1m() {
  std::ifstream in("/proc/loadavg");
  double load = -1;
  if (!(in >> load)) return -1;
  return load;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user/nice.
  uint64_t field[8] = {};
  for (uint64_t& f : field) {
    if (!(in >> f)) return ticks;
  }
  for (uint64_t f : field) ticks.total += f;
  ticks.steal = field[7];
  ticks.valid = true;
  return ticks;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace tpchbench
