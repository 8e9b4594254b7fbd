#include "runner.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "bench_lib.h"
#include "planner/lower.h"
#include "planner/passes.h"
#include "trace.h"

namespace tpchbench {

namespace tpch = modularis::tpch;
using modularis::RowVectorPtr;
using modularis::StatsRegistry;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool IsJoinQuery(int q) { return q != 1 && q != 6; }

/// Untimed passes before measurement. They warm the process (allocator,
/// code, first-run effects) and run with Unthrottled() options; only the
/// S3 Select scan wait, fixed at PrepareTpch, stays on.
constexpr int kWarmupPasses = 3;
/// PrepareTpch repetitions; setup_s is their median.
constexpr int kSetupReps = 9;

/// One RunTpchQuery call and what it exported.
struct Execution {
  int query = 0;
  RowVectorPtr result;
  std::string error;  // non-OK status or reference mismatch
  double seconds = 0;
  std::map<std::string, double> times;
  std::map<std::string, int64_t> counters;
  int64_t store_puts = 0;
  int64_t store_gets = 0;
  double plan_ms = 0;   // traced passes only
  double lower_ms = 0;  // traced passes only
  int64_t trace_id = 0;
  int64_t execute_span = 0;
};

struct Pass {
  bool traced = false;
  double seconds = 0;
  std::vector<Execution> execs;
};

/// Static facts of a prepared run the per-layer ratios need.
struct RunFacts {
  int world = 1;
  double lineitem_rows = 0;
  double lineitem_bytes = 0;
};

// ---------------------------------------------------------------------------
// Planner spans: the public planner calls RunTpchQuery makes, repeated by
// the benchmark so their cost is visible on its own.
// ---------------------------------------------------------------------------

modularis::planner::ScanLeafKind ScanLeafFor(tpch::Platform platform) {
  switch (platform) {
    case tpch::Platform::kRdma:
      return modularis::planner::ScanLeafKind::kMemoryRows;
    case tpch::Platform::kRdmaDisc:
    case tpch::Platform::kLambda:
      return modularis::planner::ScanLeafKind::kColumnFile;
    case tpch::Platform::kS3Select:
      return modularis::planner::ScanLeafKind::kS3Select;
  }
  return modularis::planner::ScanLeafKind::kMemoryRows;
}

/// Plans and lowers `query` under spans "plan" and "lower"; returns an
/// error message or "".
std::string TracePlanner(int query, const tpch::TpchContext& ctx,
                         const tpch::TpchRunOptions& opts, Tracer* tracer,
                         Execution* exec) {
  namespace planner = modularis::planner;
  planner::DriverSpec driver;
  {
    ScopedSpan span(tracer, "plan");
    const double t0 = Now();
    auto root = tpch::TpchLogicalPlan(query);
    if (!root.ok()) return root.status().ToString();
    planner::PlannerOptions popts;
    popts.catalog = tpch::TpchCatalog(ctx.table_rows);
    auto optimized = planner::Optimize(root.TakeValue(), popts,
                                       /*stats=*/nullptr);
    auto split = planner::SplitAtDriver(std::move(optimized));
    if (!split.ok()) return split.status().ToString();
    driver = split.TakeValue();
    exec->plan_ms = (Now() - t0) * 1e3;
  }
  {
    ScopedSpan span(tracer, "lower");
    const double t0 = Now();
    planner::LoweringContext lctx;
    lctx.scan_leaf = ScanLeafFor(opts.platform);
    lctx.serverless = opts.platform == tpch::Platform::kLambda ||
                      opts.platform == tpch::Platform::kS3Select;
    lctx.fused = opts.exec.enable_fusion;
    lctx.world = opts.world_size;
    lctx.exec = opts.exec;
    lctx.tag = "bench-lower";
    modularis::PipelinePlan scratch;
    auto lowered = planner::LowerRankPlan(*driver.rank_root, &scratch, &lctx);
    if (!lowered.ok()) return lowered.status().ToString();
    exec->lower_ms = (Now() - t0) * 1e3;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Workload claims: each workload must exercise the layer it was chosen
// for and bypass the ones it claims to bypass.
// ---------------------------------------------------------------------------

std::string CheckWorkloadClaim(const WorkloadConfig& w, const Execution& e) {
  auto counter = [&](const char* key) -> int64_t {
    auto it = e.counters.find(key);
    return it == e.counters.end() ? 0 : it->second;
  };
  auto time = [&](const char* key) -> double {
    auto it = e.times.find(key);
    return it == e.times.end() ? 0 : it->second;
  };
  const std::string q = "Q" + std::to_string(e.query) + ": ";
  switch (w.opts.platform) {
    case tpch::Platform::kRdma:
    case tpch::Platform::kRdmaDisc:
      if (w.opts.exec.memory_limit_bytes > 0) {
        if (e.query == 1 && counter("spill.bytes") <= 0) {
          return q + "expected Q1 to spill under the memory budget";
        }
      } else if (counter("spill.bytes") != 0) {
        return q + "spilled without a memory budget";
      }
      if (counter("s3.requests") != 0) return q + "issued S3 requests";
      break;
    case tpch::Platform::kLambda:
      if (counter("net.bytes_sent") != 0) return q + "used the fabric";
      if (counter("s3.requests") <= 0) return q + "issued no S3 requests";
      break;
    case tpch::Platform::kS3Select:
      if (counter("net.bytes_sent") != 0) return q + "used the fabric";
      if (e.query == 1 && !(time("phase.s3select") > 0)) {
        return q + "did not scan through S3 Select";
      }
      break;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Per-layer values of one traced pass.
// ---------------------------------------------------------------------------

std::map<std::string, double> LayerValues(const Pass& pass,
                                          const RunFacts& facts) {
  auto sum_time = [&](const std::string& key) {
    double s = 0;
    for (const Execution& e : pass.execs) {
      auto it = e.times.find(key);
      if (it != e.times.end()) s += it->second;
    }
    return s;
  };
  auto sum_counter = [&](const std::string& key) {
    double s = 0;
    for (const Execution& e : pass.execs) {
      auto it = e.counters.find(key);
      if (it != e.counters.end()) s += static_cast<double>(it->second);
    }
    return s;
  };
  auto sum_prefix = [&](const std::string& prefix) {
    double s = 0;
    for (const Execution& e : pass.execs) {
      for (const auto& [k, v] : e.counters) {
        if (k.rfind(prefix, 0) == 0) s += static_cast<double>(v);
      }
    }
    return s;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  std::map<std::string, double> v;
  double plan_ms = 0, lower_ms = 0, exec_s = 0, puts = 0, gets = 0;
  double peak = 0, q1_rank_total = 0;
  for (const Execution& e : pass.execs) {
    plan_ms += e.plan_ms;
    lower_ms += e.lower_ms;
    exec_s += e.seconds;
    puts += static_cast<double>(e.store_puts);
    gets += static_cast<double>(e.store_gets);
    auto it = e.counters.find("mem.peak_bytes");
    if (it != e.counters.end()) {
      peak = std::max(peak, static_cast<double>(it->second));
    }
    if (e.query == 1) {
      auto rt = e.times.find("phase.rank_total");
      if (rt != e.times.end()) q1_rank_total = rt->second;
    }
  }
  v["planner.plan_ms"] = plan_ms;
  v["planner.lower_ms"] = lower_ms;
  for (const char* key :
       {"phase.reduce_by_key", "phase.build_probe", "phase.local_partition",
        "phase.topk", "phase.driver_merge", "phase.driver_sort",
        "phase.driver_topk", "phase.rank_total", "phase.network_partition",
        "phase.global_histogram", "phase.scan", "phase.s3_exchange",
        "phase.s3select", "net.charged_seconds", "net.stall_seconds",
        "s3.charged"}) {
    v[key] = sum_time(key);
  }
  for (const char* key :
       {"net.bytes_sent", "net.msgs_sent", "mem.denials", "spill.bytes",
        "spill.chunks", "spill.passes", "s3.requests", "s3.bytes",
        "scan.row_groups_pruned", "retry.attempts", "retry.giveups"}) {
    v[key] = sum_counter(key);
  }
  v["rank.share"] = ratio(v["phase.rank_total"], exec_s);
  v["agg.rows_per_s_per_rank"] =
      ratio(facts.lineitem_rows / facts.world, q1_rank_total);
  v["expr.bc_fallback"] = sum_prefix("expr.bc_fallback.");
  v["vectorized.default_adapter"] = sum_prefix("vectorized.default_adapter.");
  v["exchange.hidden_frac"] =
      v["net.charged_seconds"] > 0
          ? 1 - v["net.stall_seconds"] / v["net.charged_seconds"]
          : 0;
  v["mem.peak_bytes"] = peak;
  v["spill.bytes_per_input_byte"] =
      ratio(v["spill.bytes"], facts.lineitem_bytes);
  v["store.puts"] = puts;
  v["store.gets"] = gets;
  v["s3.wait_share"] = ratio(v["s3.charged"], sum_time("phase.worker_total"));
  return v;
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

std::string MetadataJson(const RunConfig& c, double load_start) {
  const WorkloadConfig& w = c.workload;
  std::string j = "{";
  j += "\"workload\":\"" + JsonEscape(w.name) + "\"";
  j += ",\"commit\":\"" + JsonEscape(c.commit) + "\"";
  j += ",\"source_digest\":\"" + JsonEscape(c.source_digest) + "\"";
#ifdef TPCHBENCH_COMPILER
  j += ",\"compiler\":\"" + JsonEscape(TPCHBENCH_COMPILER) + "\"";
#endif
#ifdef TPCHBENCH_BUILD_TYPE
  j += ",\"build_type\":\"" + JsonEscape(TPCHBENCH_BUILD_TYPE) + "\"";
#endif
  j += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  j += ",\"seed\":" + std::to_string(c.seed);
  j += ",\"scale_factor\":" + JsonNumber(w.scale_factor);
  j += ",\"platform\":\"" +
       std::string(tpch::PlatformName(w.opts.platform)) + "\"";
  j += ",\"world\":" + std::to_string(w.opts.world_size);
  j += ",\"threads\":" + std::to_string(w.opts.exec.ResolvedNumThreads());
  j += ",\"memory_limit_bytes\":" +
       std::to_string(w.opts.exec.memory_limit_bytes);
  j += ",\"seconds\":" + JsonNumber(c.seconds);
  j += ",\"trace\":" + std::string(c.trace ? "true" : "false");
  j += ",\"loadavg_1m_start\":" + JsonNumber(load_start);
  j += "}";
  return j;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workloads and metric catalog
// ---------------------------------------------------------------------------

std::vector<std::string> WorkloadNames() {
  return {"tpch-rdma", "tpch-rdma-spill", "tpch-lambda", "tpch-s3select"};
}

bool MakeWorkload(const std::string& name, WorkloadConfig* out) {
  WorkloadConfig w;
  w.name = name;
  if (name == "tpch-rdma" || name == "tpch-rdma-spill") {
    w.scale_factor = 0.2;
    w.opts = tpch::TpchRunOptions::Rdma(4);
    if (name == "tpch-rdma-spill") w.opts.exec.memory_limit_bytes = 4'000'000;
  } else if (name == "tpch-lambda") {
    w.scale_factor = 0.05;
    w.opts = tpch::TpchRunOptions::Lambda(4);
  } else if (name == "tpch-s3select") {
    w.scale_factor = 0.05;
    w.opts = tpch::TpchRunOptions::S3Select(4);
  } else {
    return false;
  }
  // One morsel worker per rank: 4 ranks x 1 thread = 4 cores.
  w.opts.exec.num_threads = 4;
  *out = w;
  return true;
}

tpch::TpchRunOptions Unthrottled(tpch::TpchRunOptions opts) {
  opts.fabric.throttle = false;
  opts.lambda.throttle = false;
  opts.storage.throttle = false;
  opts.s3select.throttle = false;
  return opts;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},      {"suite_s", "s"},  {"geomean_ms", "ms"},
      {"scan_agg_ms", "ms"}, {"join_ms", "ms"}, {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup.generate_s", "s"},
      {"setup.prepare_s", "s"},
      {"load.store_bytes", "bytes"},
      {"planner.plan_ms", "ms"},
      {"planner.lower_ms", "ms"},
      {"phase.reduce_by_key", "s"},
      {"phase.build_probe", "s"},
      {"phase.local_partition", "s"},
      {"phase.topk", "s"},
      {"phase.driver_merge", "s"},
      {"phase.driver_sort", "s"},
      {"phase.driver_topk", "s"},
      {"phase.rank_total", "s"},
      {"rank.share", "ratio"},
      {"agg.rows_per_s_per_rank", "rows/s"},
      {"expr.bc_fallback", "count"},
      {"vectorized.default_adapter", "count"},
      {"net.bytes_sent", "bytes"},
      {"net.msgs_sent", "count"},
      {"net.charged_seconds", "s"},
      {"net.stall_seconds", "s"},
      {"exchange.hidden_frac", "ratio"},
      {"phase.network_partition", "s"},
      {"phase.global_histogram", "s"},
      {"mem.peak_bytes", "bytes"},
      {"mem.denials", "count"},
      {"spill.bytes", "bytes"},
      {"spill.chunks", "count"},
      {"spill.passes", "count"},
      {"spill.bytes_per_input_byte", "ratio"},
      {"store.puts", "count"},
      {"store.gets", "count"},
      {"s3.requests", "count"},
      {"s3.bytes", "bytes"},
      {"s3.charged", "s"},
      {"s3.wait_share", "ratio"},
      {"phase.scan", "s"},
      {"phase.s3_exchange", "s"},
      {"scan.row_groups_pruned", "count"},
      {"retry.attempts", "count"},
      {"retry.giveups", "count"},
      {"phase.s3select", "s"},
      {"trace.overhead", "ratio"},
      {"self.pass_ms", "ms"},
      {"self.query_ms", "ms"},
      {"self.plan_ms", "ms"},
      {"self.lower_ms", "ms"},
      {"self.execute_ms", "ms"},
      {"self.check_ms", "ms"},
  };
  return specs;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

RunReport RunBenchmark(const RunConfig& config, FILE* log) {
  const WorkloadConfig& w = config.workload;
  const tpch::TpchRunOptions& opts = w.opts;
  RunReport report;
  std::unique_ptr<Tracer> tracer_owner;
  if (config.trace) tracer_owner = std::make_unique<Tracer>();
  Tracer* tracer = tracer_owner.get();

  const double load_start = LoadAverage1m();
  const CpuTicks cpu_start = ReadCpuTicks();
  const std::string meta = MetadataJson(config, load_start);
  std::fprintf(log, "meta %s\n", meta.c_str());

  // --- Set-up: input synthesis, reference answers, platform load. ---------
  tpch::GeneratorOptions gen;
  gen.scale_factor = w.scale_factor;
  gen.seed = config.seed;
  double generate_s = 0;
  tpch::TpchTables db;
  {
    ScopedSpan span(tracer, "setup.generate");
    const double t0 = Now();
    db = tpch::GenerateTpch(gen);
    generate_s = Now() - t0;
  }
  std::map<int, RowVectorPtr> reference;
  for (int q : Queries()) {
    auto ref = tpch::RunReferenceQuery(q, db);
    if (!ref.ok()) {
      report.errors.push_back("reference Q" + std::to_string(q) + ": " +
                              ref.status().ToString());
      return report;
    }
    reference[q] = ref.TakeValue();
  }
  RunFacts facts;
  facts.world = opts.world_size;
  facts.lineitem_rows = static_cast<double>(db.lineitem->num_rows());
  facts.lineitem_bytes =
      facts.lineitem_rows * db.lineitem->schema().row_size();

  std::vector<double> prepare_s;
  std::unique_ptr<tpch::TpchContext> ctx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctx.reset();  // one prepared copy alive at a time
    ScopedSpan span(tracer, "setup.prepare");
    const double t0 = Now();
    auto prepared = tpch::PrepareTpch(db, opts);
    prepare_s.push_back(Now() - t0);
    if (!prepared.ok()) {
      report.errors.push_back("PrepareTpch: " + prepared.status().ToString());
      return report;
    }
    ctx = prepared.TakeValue();
  }
  std::fprintf(log, "setup generate %.3f s, prepare", generate_s);
  for (double t : prepare_s) std::fprintf(log, " %.3f", t);
  std::fprintf(log, " s\n");
  double store_bytes = 0;
  for (const auto& table : ctx->frags) {
    for (const RowVectorPtr& frag : table) {
      store_bytes += static_cast<double>(frag->byte_size());
    }
  }
  for (const auto& table : ctx->paths) {
    for (const std::string& path : table) {
      auto blob = ctx->store->Get(path);
      if (blob.ok()) store_bytes += static_cast<double>((*blob)->size());
    }
  }

  // --- Passes ---------------------------------------------------------------
  auto run_pass = [&](bool traced, const tpch::TpchRunOptions& run_opts) {
    Pass pass;
    pass.traced = traced;
    Tracer* t = traced ? tracer : nullptr;
    const double p0 = Now();
    {
      ScopedSpan pass_span(t, "pass");
      for (int q : Queries()) {
        Execution e;
        e.query = q;
        ScopedSpan query_span(t, "query", Tracer::kNewTrace);
        query_span.AddArg("query", std::to_string(q));
        e.trace_id = query_span.id();
        if (traced) {
          std::string err = TracePlanner(q, *ctx, run_opts, t, &e);
          if (!err.empty()) e.error = "planner: " + err;
        }
        StatsRegistry stats;
        const int64_t puts0 = ctx->store->num_puts();
        const int64_t gets0 = ctx->store->num_gets();
        {
          ScopedSpan exec_span(t, "execute");
          e.execute_span = exec_span.id();
          const double t0 = Now();
          auto result = tpch::RunTpchQuery(q, *ctx, run_opts, &stats);
          e.seconds = Now() - t0;
          if (result.ok()) {
            e.result = result.TakeValue();
          } else if (e.error.empty()) {
            e.error = result.status().ToString();
          }
        }
        e.store_puts = ctx->store->num_puts() - puts0;
        e.store_gets = ctx->store->num_gets() - gets0;
        e.times = stats.times();
        e.counters = stats.counters();
        pass.execs.push_back(std::move(e));
      }
    }
    pass.seconds = Now() - p0;
    // Correctness checks run outside the timed pass.
    for (Execution& e : pass.execs) {
      ScopedSpan check_span(t, "check", traced ? e.trace_id : 0);
      if (e.error.empty()) {
        e.error = CompareResults(*e.result, *reference[e.query]);
        if (!e.error.empty()) e.error = "result mismatch: " + e.error;
      }
      ++report.attempted;
      if (!e.error.empty()) {
        ++report.failed;
        report.errors.push_back("Q" + std::to_string(e.query) + ": " +
                                e.error);
      }
      std::string claim = CheckWorkloadClaim(w, e);
      if (!claim.empty()) report.errors.push_back("workload claim " + claim);
      e.result.reset();
      if (traced) {
        // Keep every query's exported counters in the trace.
        std::string args = "{";
        for (const auto& [k, v] : e.times) {
          if (args.size() > 1) args += ",";
          args += "\"" + JsonEscape(k) + "\":" + JsonNumber(v);
        }
        for (const auto& [k, v] : e.counters) {
          if (args.size() > 1) args += ",";
          args += "\"" + JsonEscape(k) + "\":" + std::to_string(v);
        }
        args += "}";
        tracer->AddArg(e.execute_span, "stats", std::move(args));
      }
    }
    return pass;
  };

  const tpch::TpchRunOptions warmup_opts = Unthrottled(opts);
  for (int i = 0; i < kWarmupPasses; ++i) {
    run_pass(/*traced=*/false, warmup_opts);
  }

  std::vector<Pass> passes;
  const int min_passes = config.trace ? 2 : 1;
  const double m0 = Now();
  for (;;) {
    // Traced runs alternate traced and untraced passes.
    const bool traced = config.trace && passes.size() % 2 == 0;
    passes.push_back(run_pass(traced, opts));
    std::vector<double> pass_s;
    for (const Pass& p : passes) pass_s.push_back(p.seconds);
    const double elapsed = Now() - m0;
    if (static_cast<int>(passes.size()) >= min_passes &&
        elapsed + Median(pass_s) / 2 >= config.seconds) {
      break;
    }
  }
  const double measure_s = Now() - m0;

  // --- Diagnostics: per-query medians, tails and sample counts ------------
  std::map<int, std::vector<double>> latency_ms;
  std::vector<double> untraced_pass_s, traced_pass_s;
  for (const Pass& p : passes) {
    (p.traced ? traced_pass_s : untraced_pass_s).push_back(p.seconds);
    for (const Execution& e : p.execs) {
      if (e.error.empty() && !p.traced) {
        latency_ms[e.query].push_back(e.seconds * 1e3);
      }
    }
  }
  std::map<int, double> median_ms;
  for (int q : Queries()) {
    median_ms[q] = Median(latency_ms[q]);
    TailPercentile tail = HighestPercentile(latency_ms[q]);
    if (tail.valid) {
      std::fprintf(log, "query Q%-2d median %.3f ms  p%.1f %.3f ms  n=%zu\n",
                   q, median_ms[q], tail.percentile, tail.value,
                   tail.samples);
    } else {
      std::fprintf(log,
                   "query Q%-2d median %.3f ms  (no tail: n=%zu <= 10)\n", q,
                   median_ms[q], tail.samples);
    }
  }
  std::fprintf(log, "passes %zu (%zu traced) in %.3f s after %d warm-up:",
               passes.size(), traced_pass_s.size(), measure_s,
               kWarmupPasses);
  for (const Pass& p : passes) {
    std::fprintf(log, " %.3f%s", p.seconds, p.traced ? "t" : "");
  }
  std::fprintf(log, " s\n");

  const CpuTicks cpu_end = ReadCpuTicks();
  if (cpu_start.valid && cpu_end.valid) {
    const double steal = static_cast<double>(cpu_end.steal - cpu_start.steal);
    const double total = static_cast<double>(cpu_end.total - cpu_start.total);
    std::fprintf(log,
                 "meta_end {\"cpu_steal_ticks\":%.0f,\"cpu_steal_share\":%s,"
                 "\"loadavg_1m_end\":%s}\n",
                 steal, JsonNumber(total > 0 ? steal / total : 0).c_str(),
                 JsonNumber(LoadAverage1m()).c_str());
  }

  report.correct = report.failed == 0 && report.errors.empty();
  const double fail_ratio =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::fprintf(log, "fail_ratio %s ratio (%lld of %lld executions)\n",
               JsonNumber(fail_ratio).c_str(),
               static_cast<long long>(report.failed),
               static_cast<long long>(report.attempted));

  // --- Metrics --------------------------------------------------------------
  std::map<std::string, double> values;
  if (!config.trace) {
    std::vector<double> all, scan_agg, join;
    for (int q : Queries()) {
      all.push_back(median_ms[q]);
      (IsJoinQuery(q) ? join : scan_agg).push_back(median_ms[q]);
    }
    values["setup_s"] = Median(prepare_s);
    values["suite_s"] = Median(untraced_pass_s);
    values["geomean_ms"] = Geomean(all);
    values["scan_agg_ms"] = Geomean(scan_agg);
    values["join_ms"] = Geomean(join);
    values["peak_rss_mb"] = static_cast<double>(PeakRssBytes()) / 1e6;
  } else {
    std::map<std::string, std::vector<double>> per_pass;
    for (const Pass& p : passes) {
      if (!p.traced) continue;
      for (const auto& [k, v] : LayerValues(p, facts)) per_pass[k].push_back(v);
    }
    for (const auto& [k, vs] : per_pass) values[k] = Median(vs);
    values["setup.generate_s"] = generate_s;
    values["setup.prepare_s"] = Median(prepare_s);
    values["load.store_bytes"] = store_bytes;
    const double untraced = Median(untraced_pass_s);
    values["trace.overhead"] =
        untraced > 0 ? Median(traced_pass_s) / untraced - 1 : 0;
    const auto totals = tracer->Summarize();
    const double n_traced = static_cast<double>(traced_pass_s.size());
    for (const char* span :
         {"pass", "query", "plan", "lower", "execute", "check"}) {
      auto it = totals.find(span);
      values[std::string("self.") + span + "_ms"] =
          it == totals.end() ? 0 : it->second.self_us / 1e3 / n_traced;
    }
    std::fprintf(log, "%-16s %8s %14s %14s\n", "span", "count", "total_ms",
                 "self_ms");
    for (const auto& [name, t] : totals) {
      std::fprintf(log, "%-16s %8lld %14.3f %14.3f\n", name.c_str(),
                   static_cast<long long>(t.count), t.total_us / 1e3,
                   t.self_us / 1e3);
    }
    if (!config.trace_out.empty()) {
      std::ofstream out(config.trace_out);
      out << tracer->ChromeTraceJson(meta);
      if (!out) {
        report.errors.push_back("cannot write trace " + config.trace_out);
        report.correct = false;
      } else {
        std::fprintf(log, "trace written to %s\n", config.trace_out.c_str());
      }
    }
  }

  const auto& specs = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricSpec& s : specs) {
    report.metrics.push_back({s.name, s.unit, values[s.name]});
    std::fprintf(log, "metric %-28s %.6g %s\n", s.name, values[s.name],
                 s.unit);
  }
  const size_t kMaxErrorLines = 20;
  for (size_t i = 0; i < report.errors.size() && i < kMaxErrorLines; ++i) {
    std::fprintf(log, "error %s\n", report.errors[i].c_str());
  }
  if (report.errors.size() > kMaxErrorLines) {
    std::fprintf(log, "error ... %zu more\n",
                 report.errors.size() - kMaxErrorLines);
  }
  return report;
}

std::string ReportJsonLine(const RunReport& report) {
  std::string j = "{\"correct\": ";
  j += report.correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(report.attempted);
  j += ", \"failed\": " + std::to_string(report.failed);
  j += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) j += ", ";
    j += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
         JsonNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  j += "}}";
  return j;
}

}  // namespace tpchbench
