#ifndef TPCHBENCH_TRACE_H_
#define TPCHBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file trace.h
/// In-memory span recorder of the benchmark's traced run. Spans are
/// opened and closed by the benchmark's own code around its calls into
/// the engine's public functions; nothing inside the engine is traced.
/// Single-threaded: the benchmark drives the engine from one client
/// thread. Spans stay in memory until the run ends and are then exported
/// as Chrome trace-event JSON (viewable in Perfetto).

namespace tpchbench {

struct Span {
  std::string name;
  int64_t id = 0;
  /// Enclosing span (0 = top level).
  int64_t parent = 0;
  /// Shared by every span of one query execution (0 = none).
  int64_t trace_id = 0;
  double start_us = 0;
  double end_us = -1;  // -1 while open
  /// Arguments exported with the span; values are JSON literals.
  std::vector<std::pair<std::string, std::string>> args;
};

/// Per-name totals over all closed spans.
struct SpanTotals {
  int64_t count = 0;
  double total_us = 0;
  /// Duration minus the part of the span's interval its children cover.
  double self_us = 0;
};

class Tracer {
 public:
  Tracer();

  /// Trace-id arguments of Begin: inherit the parent's, or start a new
  /// trace whose id is the span's own id. Any positive value joins that
  /// trace.
  static constexpr int64_t kInherit = -1;
  static constexpr int64_t kNewTrace = 0;

  /// Opens a span as a child of the innermost open span.
  int64_t Begin(const std::string& name, int64_t trace_id = kInherit);
  /// Closes span `id`, which must be the innermost open span.
  void End(int64_t id);
  /// Attaches an argument; `json_value` is a JSON literal.
  void AddArg(int64_t id, const std::string& key, std::string json_value);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<double> SelfTimesUs() const;
  std::map<std::string, SpanTotals> Summarize() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond
  /// timestamps). `metadata_json` is a JSON object placed under
  /// "otherData".
  std::string ChromeTraceJson(const std::string& metadata_json) const;

 private:
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_, innermost last
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             int64_t trace_id = Tracer::kInherit)
      : tracer_(tracer),
        id_(tracer == nullptr ? 0 : tracer->Begin(name, trace_id)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void AddArg(const std::string& key, std::string json_value) {
    if (tracer_ != nullptr) tracer_->AddArg(id_, key, std::move(json_value));
  }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace tpchbench

#endif  // TPCHBENCH_TRACE_H_
