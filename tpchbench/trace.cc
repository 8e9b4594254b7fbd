#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "bench_lib.h"

namespace tpchbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const std::string& name, int64_t trace_id) {
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  if (!open_.empty()) {
    const Span& parent = spans_[open_.back()];
    span.parent = parent.id;
    span.trace_id = parent.trace_id;
  }
  if (trace_id == kNewTrace) {
    span.trace_id = span.id;
  } else if (trace_id > 0) {
    span.trace_id = trace_id;
  }
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  const double now = NowUs();
  // Spans close in LIFO order; closing an outer span also closes any
  // inner one left open.
  while (!open_.empty()) {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end_us = now;
    if (span.id == id) break;
  }
}

void Tracer::AddArg(int64_t id, const std::string& key,
                    std::string json_value) {
  if (id <= 0 || id > static_cast<int64_t>(spans_.size())) return;
  spans_[id - 1].args.emplace_back(key, std::move(json_value));
}

std::vector<double> Tracer::SelfTimesUs() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent > 0 && s.end_us >= 0) {
      children[s.parent - 1].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> Tracer::Summarize() const {
  const std::vector<double> self = SelfTimesUs();
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_us += s.end_us - s.start_us;
    t.self_us += self[i];
  }
  return totals;
}

std::string Tracer::ChromeTraceJson(const std::string& metadata_json) const {
  const std::vector<double> self = SelfTimesUs();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += metadata_json.empty() ? "{}" : metadata_json;
  out += ",\"traceEvents\":[\n";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + JsonEscape(s.name) +
           "\",\"cat\":\"tpchbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    out += ",\"ts\":" + JsonNumber(s.start_us);
    out += ",\"dur\":" + JsonNumber(s.end_us - s.start_us);
    out += ",\"args\":{\"span_id\":" + std::to_string(s.id);
    out += ",\"parent_id\":" + std::to_string(s.parent);
    out += ",\"trace_id\":" + std::to_string(s.trace_id);
    out += ",\"self_us\":" + JsonNumber(self[i]);
    for (const auto& [key, value] : s.args) {
      out += ",\"" + JsonEscape(key) + "\":" + value;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace tpchbench
