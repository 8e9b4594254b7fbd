/// \file test_expr_batch.cc
/// Differential/property harness for the batch expression evaluator:
/// thousands of random (seeded, reproducible) Expr trees over a mixed
/// i64/f64/string/i32/date schema, asserting that the column-wise kernels
/// (EvalBatch) and selection-vector predicates (FilterBatch) are
/// byte-equal to the interpreted per-row oracle (Eval / EvalBoolChecked),
/// including division-by-zero (yields f64 0.0), -0.0, empty strings,
/// empty batches, subset selections, and the hard-error rule for
/// non-numeric predicate results. Plus operator-level regressions for the
/// selection-vector flow through Filter → Map → ReduceByKey.

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exec_context.h"
#include "core/expr.h"
#include "core/expr_bc.h"
#include "core/memory.h"
#include "core/parallel.h"
#include "storage/blob_store.h"
#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis {
namespace {

// ---------------------------------------------------------------------------
// Random data / tree generation
// ---------------------------------------------------------------------------

Schema TestSchema() {
  return Schema({Field::I64("a"), Field::F64("b"), Field::Str("s", 8),
                 Field::I32("c"), Field::Date("d"), Field::I64("e")});
}

const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> pool = {
      "", "a", "ab", "abc", "abcdefgh", "zz", "even", "odd", "a_c", "%"};
  return pool;
}

const std::vector<int64_t>& IntPool() {
  // "NULL-ish" and boundary-flavored values, bounded so arithmetic stays
  // away from signed-overflow UB (both paths would hit it identically,
  // but the harness should not rely on that).
  static const std::vector<int64_t> pool = {0,  1,  -1, 2,   -2,  7,
                                            42, -9, 50, 999, -999, 100000};
  return pool;
}

const std::vector<double>& DoublePool() {
  static const std::vector<double> pool = {0.0,  -0.0, 1.0,   -1.0, 0.5,
                                           -2.25, 3.75, 1e12, -1e12, 41.0};
  return pool;
}

RowVectorPtr MakeRows(std::mt19937_64* rng, size_t n) {
  RowVectorPtr rows = RowVector::Make(TestSchema());
  std::uniform_int_distribution<size_t> spick(0, StringPool().size() - 1);
  std::uniform_int_distribution<size_t> ipick(0, IntPool().size() - 1);
  std::uniform_int_distribution<size_t> dpick(0, DoublePool().size() - 1);
  for (size_t i = 0; i < n; ++i) {
    RowWriter w = rows->AppendRow();
    w.SetInt64(0, IntPool()[ipick(*rng)]);
    w.SetFloat64(1, DoublePool()[dpick(*rng)]);
    w.SetString(2, StringPool()[spick(*rng)]);
    w.SetInt32(3, static_cast<int32_t>(IntPool()[ipick(*rng)]));
    w.SetDate(4, static_cast<int32_t>(IntPool()[ipick(*rng)] & 0x7fff));
    w.SetInt64(5, IntPool()[ipick(*rng)]);
  }
  return rows;
}

enum class Want { kBool, kNum, kStr };

ExprPtr Gen(std::mt19937_64* rng, int depth, Want want);

ExprPtr GenStr(std::mt19937_64* rng, int depth) {
  std::uniform_int_distribution<int> pick(0, depth > 0 ? 3 : 2);
  switch (pick(*rng)) {
    case 0:
      return ex::Col(2);
    case 1:
    case 2: {
      std::uniform_int_distribution<size_t> s(0, StringPool().size() - 1);
      return ex::Lit(StringPool()[s(*rng)]);
    }
    default:
      return ex::If(Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kStr),
                    Gen(rng, depth - 1, Want::kStr));
  }
}

ExprPtr GenNum(std::mt19937_64* rng, int depth) {
  std::uniform_int_distribution<int> pick(0, depth > 0 ? 9 : 4);
  switch (pick(*rng)) {
    case 0:
      return ex::Col(0);
    case 1:
      return ex::Col(1);
    case 2: {
      std::uniform_int_distribution<int> c(0, 2);
      return ex::Col(3 + c(*rng));  // i32 / date / i64
    }
    case 3: {
      std::uniform_int_distribution<size_t> s(0, IntPool().size() - 1);
      return ex::Lit(IntPool()[s(*rng)]);
    }
    case 4: {
      std::uniform_int_distribution<size_t> s(0, DoublePool().size() - 1);
      return ex::Lit(DoublePool()[s(*rng)]);
    }
    case 5:
    case 6:
    case 7: {
      std::uniform_int_distribution<int> op(0, 3);
      return ex::Arith(static_cast<ArithOp>(op(*rng)),
                       Gen(rng, depth - 1, Want::kNum),
                       Gen(rng, depth - 1, Want::kNum));
    }
    case 8:
      // Mixed-type IF branches exercise the interpreted kItem fallback.
      return ex::If(Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kNum),
                    Gen(rng, depth - 1, Want::kNum));
    default:
      return Gen(rng, depth - 1, Want::kBool);  // 0/1 as a number
  }
}

ExprPtr GenBool(std::mt19937_64* rng, int depth) {
  std::uniform_int_distribution<int> pick(0, depth > 0 ? 11 : 1);
  std::uniform_int_distribution<int> cmp(0, 5);
  switch (pick(*rng)) {
    case 0:
    case 1:
      return ex::Cmp(static_cast<CmpOp>(cmp(*rng)),
                     Gen(rng, depth - 1, Want::kNum),
                     Gen(rng, depth - 1, Want::kNum));
    case 2:
      return ex::Cmp(static_cast<CmpOp>(cmp(*rng)),
                     Gen(rng, depth - 1, Want::kStr),
                     Gen(rng, depth - 1, Want::kStr));
    case 3:
      // Mixed string/number comparison: the empty-view CompareViews rule.
      return ex::Cmp(static_cast<CmpOp>(cmp(*rng)),
                     Gen(rng, depth - 1, Want::kNum),
                     Gen(rng, depth - 1, Want::kStr));
    case 4:
      return ex::And(Gen(rng, depth - 1, Want::kBool),
                     Gen(rng, depth - 1, Want::kBool));
    case 5:
      return ex::Or(Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kBool));
    case 6:
      return ex::Not(Gen(rng, depth - 1, Want::kBool));
    case 7: {
      static const std::vector<std::string> patterns = {
          "a%", "%b", "_b%", "%", "", "ab", "a_c", "%e%"};
      std::uniform_int_distribution<size_t> p(0, patterns.size() - 1);
      return ex::Like(Gen(rng, depth - 1, Want::kStr), patterns[p(*rng)]);
    }
    case 8: {
      std::uniform_int_distribution<size_t> s(0, StringPool().size() - 1);
      return ex::InStr(Gen(rng, depth - 1, Want::kStr),
                       {StringPool()[s(*rng)], StringPool()[s(*rng)], "ab"});
    }
    case 9: {
      std::uniform_int_distribution<size_t> s(0, IntPool().size() - 1);
      return ex::InInt(Gen(rng, depth - 1, Want::kNum),
                       {IntPool()[s(*rng)], IntPool()[s(*rng)], 0});
    }
    case 10:
      return ex::Between(Gen(rng, depth - 1, Want::kNum),
                         ex::Lit(int64_t{-2}), ex::Lit(int64_t{50}));
    default:
      return ex::If(Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kBool));
  }
}

ExprPtr Gen(std::mt19937_64* rng, int depth, Want want) {
  switch (want) {
    case Want::kBool: return GenBool(rng, depth);
    case Want::kNum: return GenNum(rng, depth);
    case Want::kStr: return GenStr(rng, depth);
  }
  return ex::Lit(int64_t{0});
}

// ---------------------------------------------------------------------------
// Differential checks
// ---------------------------------------------------------------------------

/// Compares one batch-evaluated value against the interpreted oracle.
void ExpectValueEqual(const BatchColumn& col, size_t i, const Item& expected,
                      const std::string& label) {
  switch (col.tag) {
    case BatchTag::kI64:
      ASSERT_TRUE(expected.is_i64()) << label;
      ASSERT_EQ(col.i64[i], expected.i64()) << label;
      break;
    case BatchTag::kF64: {
      ASSERT_TRUE(expected.is_f64()) << label;
      double got = col.f64[i], want = expected.f64();
      ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(double)))
          << label << ": " << got << " vs " << want;
      break;
    }
    case BatchTag::kStr:
      ASSERT_TRUE(expected.is_str()) << label;
      ASSERT_EQ(std::string(col.str[i]), expected.str()) << label;
      break;
    case BatchTag::kItem:
      ASSERT_TRUE(col.items[i] == expected)
          << label << ": " << col.items[i].ToString() << " vs "
          << expected.ToString();
      break;
  }
}

/// Runs every differential check for one expression over one row set,
/// across all three tiers: interpreted per-row (the oracle), the batch
/// kernels, and the compiled bytecode programs (optimized and raw).
void CheckTree(const ExprPtr& expr, const RowVector& rows,
               const SelVector& sel, BatchScratch* scratch,
               const std::string& label) {
  RowSpan span{rows.data(), rows.row_size(), &rows.schema()};
  const size_t n = sel.size();

  // 1. Value parity: batch kernel vs per-row Eval().
  BatchColumn col;
  Status st = expr->EvalBatch(span, sel.data(), n, &col, scratch);
  ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
  ASSERT_EQ(col.size(), n) << label;
  ASSERT_EQ(col.tag, expr->BatchType(rows.schema())) << label;
  for (size_t i = 0; i < n; ++i) {
    Item expected = expr->Eval(rows.row(sel[i]));
    ExpectValueEqual(col, i, expected, label + " row " + std::to_string(i));
  }

  // 1b. Bytecode value parity: byte-equal to the batch kernel column,
  // with and without the optimizer.
  BcState bc_state;
  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileValue(expr, rows.schema(), optimize);
    ASSERT_TRUE(prog.valid()) << label;
    // Dead-branch elimination may narrow a statically mixed-type (kItem)
    // IF to the taken branch's concrete tag; values are still checked
    // per row against the interpreted oracle below.
    if (col.tag != BatchTag::kItem) {
      ASSERT_EQ(prog.value_tag(), col.tag) << label;
    }
    BatchColumn bc_col;
    st = prog.RunValue(span, sel.data(), n, &bc_col, &bc_state);
    ASSERT_TRUE(st.ok()) << label << " (bc value opt=" << optimize
                         << "): " << st.ToString();
    ASSERT_EQ(bc_col.size(), n) << label;
    if (col.tag != BatchTag::kItem) {
      ASSERT_EQ(bc_col.tag, col.tag) << label;
    }
    for (size_t i = 0; i < n; ++i) {
      Item expected = expr->Eval(rows.row(sel[i]));
      ExpectValueEqual(bc_col, i, expected,
                       label + " (bc value opt=" + std::to_string(optimize) +
                           ") row " + std::to_string(i));
    }
  }

  // 2. Checked predicate parity: FilterBatch vs per-row EvalBoolChecked.
  SelVector expected_sel;
  bool oracle_error = false;
  for (size_t i = 0; i < n && !oracle_error; ++i) {
    bool keep = false;
    Status est = expr->EvalBoolChecked(rows.row(sel[i]), &keep);
    if (!est.ok()) {
      oracle_error = true;
    } else if (keep) {
      expected_sel.push_back(sel[i]);
    }
  }
  SelVector got_sel = sel;
  st = expr->FilterBatch(span, &got_sel, scratch);
  if (oracle_error) {
    ASSERT_FALSE(st.ok()) << label << ": oracle errored, batch did not";
  } else {
    ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
    ASSERT_EQ(got_sel, expected_sel) << label;
  }

  // 2b. Bytecode predicate parity: identical selections (or the same
  // error verdict), with and without the optimizer.
  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileFilter(expr, rows.schema(), optimize);
    ASSERT_TRUE(prog.valid()) << label;
    SelVector bc_sel = sel;
    st = prog.RunFilter(span, &bc_sel, &bc_state);
    if (oracle_error) {
      ASSERT_FALSE(st.ok())
          << label << " (bc filter opt=" << optimize
          << "): oracle errored, bytecode did not";
    } else {
      ASSERT_TRUE(st.ok()) << label << " (bc filter opt=" << optimize
                           << "): " << st.ToString();
      ASSERT_EQ(bc_sel, expected_sel)
          << label << " (bc filter opt=" << optimize << ")";
    }
  }

  // 3. Empty selection: trivially OK on every path.
  SelVector empty;
  st = expr->FilterBatch(span, &empty, scratch);
  ASSERT_TRUE(st.ok()) << label;
  ASSERT_TRUE(empty.empty()) << label;
  st = expr->EvalBatch(span, nullptr, 0, &col, scratch);
  ASSERT_TRUE(st.ok()) << label;
  ASSERT_EQ(col.size(), 0u) << label;
  BcProgram fprog = BcProgram::CompileFilter(expr, rows.schema());
  st = fprog.RunFilter(span, &empty, &bc_state);
  ASSERT_TRUE(st.ok()) << label;
  ASSERT_TRUE(empty.empty()) << label;
}

TEST(ExprBatchDifferentialTest, RandomTreesMatchInterpretedOracle) {
  const size_t kRows = 96;
  const int kTreesPerKind = 420;  // 3 kinds → 1260 trees total
  BatchScratch scratch;
  for (int kind = 0; kind < 3; ++kind) {
    for (int t = 0; t < kTreesPerKind; ++t) {
      std::mt19937_64 rng(1000003u * kind + t);  // seeded, reproducible
      RowVectorPtr rows = MakeRows(&rng, kRows);
      ExprPtr expr = Gen(&rng, 4, static_cast<Want>(kind));
      std::string label = "kind=" + std::to_string(kind) +
                          " tree=" + std::to_string(t) + " " +
                          expr->ToString();

      // Identity selection over the full batch.
      SelVector all(kRows);
      for (size_t i = 0; i < kRows; ++i) all[i] = static_cast<uint32_t>(i);
      CheckTree(expr, *rows, all, &scratch, label);

      // Random subset selection (kernels must honor gaps).
      SelVector subset;
      std::uniform_int_distribution<int> coin(0, 2);
      for (size_t i = 0; i < kRows; ++i) {
        if (coin(rng) == 0) subset.push_back(static_cast<uint32_t>(i));
      }
      CheckTree(expr, *rows, subset, &scratch, label + " (subset)");
    }
  }
}

TEST(ExprBatchDifferentialTest, EmptyBatchAllPaths) {
  RowVectorPtr rows = RowVector::Make(TestSchema());
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  BatchScratch scratch;
  ExprPtr expr = ex::And(ex::Lt(ex::Col(0), ex::Lit(int64_t{3})),
                         ex::Like(ex::Col(2), "a%"));
  SelVector sel;
  ASSERT_TRUE(expr->FilterBatch(span, &sel, &scratch).ok());
  EXPECT_TRUE(sel.empty());
  BatchColumn col;
  ASSERT_TRUE(expr->EvalBatch(span, nullptr, 0, &col, &scratch).ok());
  EXPECT_EQ(col.size(), 0u);
}

TEST(ExprBatchDifferentialTest, DivisionByZeroYieldsFloat64Zero) {
  std::mt19937_64 rng(7);
  RowVectorPtr rows = MakeRows(&rng, 64);
  BatchScratch scratch;
  ExprPtr expr = ex::Div(ex::Col(0), ex::Lit(int64_t{0}));
  ASSERT_EQ(expr->BatchType(rows->schema()), BatchTag::kF64);
  SelVector all(rows->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  CheckTree(expr, *rows, all, &scratch, "div-by-zero");
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  BatchColumn col;
  ASSERT_TRUE(expr->EvalBatch(span, all.data(), all.size(), &col, &scratch)
                  .ok());
  for (size_t i = 0; i < col.size(); ++i) EXPECT_EQ(col.f64[i], 0.0);
}

// ---------------------------------------------------------------------------
// Non-numeric predicate results are hard errors (regression)
// ---------------------------------------------------------------------------

RowVectorPtr MixedRows(size_t n) {
  std::mt19937_64 rng(11);
  return MakeRows(&rng, n);
}

SubOpPtr ScanOf(const RowVectorPtr& data) {
  return std::make_unique<RowScan>(std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{data}));
}

TEST(StringPredicateTest, ExprLevelCheckedError) {
  RowVectorPtr rows = MixedRows(8);
  ExprPtr pred = ex::Col(2);  // string column used as a predicate
  bool keep = false;
  Status st = pred->EvalBoolChecked(rows->row(0), &keep);
  EXPECT_FALSE(st.ok());
  // Legacy unchecked EvalBool keeps the silent-false behavior.
  EXPECT_FALSE(pred->EvalBool(rows->row(0)));

  BatchScratch scratch;
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  SelVector sel = {0, 1, 2};
  EXPECT_FALSE(pred->FilterBatch(span, &sel, &scratch).ok());
  // The bytecode tier raises the identical error.
  BcProgram prog = BcProgram::CompileFilter(pred, rows->schema());
  BcState state;
  sel = {0, 1, 2};
  Status bst = prog.RunFilter(span, &sel, &state);
  EXPECT_FALSE(bst.ok());
}

TEST(StringPredicateTest, FilterRowPathFailsHard) {
  Filter filter(ScanOf(MixedRows(16)), ex::Col(2));
  ExecContext ctx;
  ASSERT_TRUE(filter.Open(&ctx).ok());
  Tuple t;
  EXPECT_FALSE(filter.Next(&t));
  EXPECT_FALSE(filter.status().ok());
}

TEST(StringPredicateTest, FilterBatchPathFailsHard) {
  Filter filter(ScanOf(MixedRows(16)),
                ex::And(ex::Ge(ex::Col(0), ex::Lit(int64_t{-1000000})),
                        ex::Col(2)));
  ExecContext ctx;
  ASSERT_TRUE(filter.Open(&ctx).ok());
  RowBatch batch;
  EXPECT_FALSE(filter.NextBatch(&batch));
  EXPECT_FALSE(filter.status().ok());
}

// ---------------------------------------------------------------------------
// Selection-vector flow through the operator stack
// ---------------------------------------------------------------------------

TEST(SelectionFlowTest, FilterAttachesSelectionWithoutCopy) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  for (int64_t i = 0; i < 100; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, i % 10);
    w.SetInt64(1, i);
  }
  // Partial pass: selection attached, rows left in place.
  Filter partial(ScanOf(data), ex::Lt(ex::Col(0), ex::Lit(int64_t{5})));
  ExecContext ctx;
  ASSERT_TRUE(partial.Open(&ctx).ok());
  RowBatch batch;
  ASSERT_TRUE(partial.NextBatchSelective(&batch));
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.size(), 50u);
  EXPECT_EQ(batch.dense_size(), 100u);
  EXPECT_EQ(batch.data(), data->data());  // zero copy
  EXPECT_EQ(batch.row(1).GetInt64(1), 1);
  ASSERT_TRUE(partial.Close().ok());

  // All-pass: forwarded dense, no selection.
  Filter all(ScanOf(data), ex::Lt(ex::Col(0), ex::Lit(int64_t{100})));
  ASSERT_TRUE(all.Open(&ctx).ok());
  ASSERT_TRUE(all.NextBatchSelective(&batch));
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.size(), 100u);
  EXPECT_EQ(batch.data(), data->data());
}

TEST(SelectionFlowTest, ChainedFiltersNarrowOneSelection) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  for (int64_t i = 0; i < 1000; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, i);
    w.SetInt64(1, -i);
  }
  auto inner =
      std::make_unique<Filter>(ScanOf(data),
                               ex::Ge(ex::Col(0), ex::Lit(int64_t{100})));
  Filter outer(std::move(inner), ex::Lt(ex::Col(0), ex::Lit(int64_t{200})));
  ExecContext ctx;
  ASSERT_TRUE(outer.Open(&ctx).ok());
  RowBatch batch;
  ASSERT_TRUE(outer.NextBatchSelective(&batch));
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.size(), 100u);
  EXPECT_EQ(batch.data(), data->data());  // still the base collection
  EXPECT_EQ(batch.row(0).GetInt64(0), 100);
  EXPECT_EQ(batch.row(99).GetInt64(0), 199);
}

/// Full Filter → Map → ReduceByKey plan: vectorized (selection-vector)
/// path must be byte-identical to the row-at-a-time oracle.
TEST(SelectionFlowTest, FilterMapReduceParity) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<int64_t> dist(0, 999);
  for (int64_t i = 0; i < 20000; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, dist(rng));
    w.SetInt64(1, i);
  }
  Schema mapped({Field::I64("g"), Field::F64("x")});
  auto make_plan = [&] {
    auto filter = std::make_unique<Filter>(
        ScanOf(data), ex::And(ex::Ge(ex::Col(0), ex::Lit(int64_t{100})),
                              ex::Lt(ex::Col(0), ex::Lit(int64_t{600}))));
    auto map = std::make_unique<MapOp>(
        std::move(filter), mapped,
        std::vector<MapOutput>{
            MapOutput::Compute(ex::Sub(ex::Col(0), ex::Lit(int64_t{100}))),
            MapOutput::Compute(ex::Div(ex::Col(1), ex::Lit(3.0)))});
    return std::make_unique<ReduceByKey>(
        std::move(map), std::vector<int>{0},
        std::vector<AggSpec>{
            AggSpec{AggKind::kSum, ex::Col(1), "sum", AtomType::kFloat64},
            AggSpec{AggKind::kCount, nullptr, "cnt", AtomType::kInt64}},
        mapped);
  };
  RowVectorPtr baseline, got;
  for (bool vectorized : {false, true}) {
    auto plan = make_plan();
    ExecContext ctx;
    ctx.options.enable_vectorized = vectorized;
    ASSERT_TRUE(plan->Open(&ctx).ok());
    RowVectorPtr result = RowVector::Make(plan->out_schema());
    Tuple t;
    while (plan->Next(&t)) result->AppendRaw(t[0].row().data());
    ASSERT_TRUE(plan->status().ok()) << plan->status().ToString();
    ASSERT_TRUE(plan->Close().ok());
    (vectorized ? got : baseline) = std::move(result);
  }
  ASSERT_GT(baseline->size(), 0u);
  ASSERT_EQ(baseline->size(), got->size());
  ASSERT_EQ(0, std::memcmp(baseline->data(), got->data(),
                           baseline->byte_size()));
}

/// Map over a mixed schema straight from the differential generator's
/// domain: passthroughs of every type plus computed columns.
TEST(SelectionFlowTest, MapMixedSchemaParity) {
  std::mt19937_64 rng(31);
  RowVectorPtr data = MakeRows(&rng, 5000);
  Schema out({Field::I64("a"), Field::Str("s", 8), Field::I32("c"),
              Field::F64("q"), Field::I64("flag")});
  auto make_plan = [&] {
    auto filter = std::make_unique<Filter>(
        ScanOf(data), ex::Or(ex::Like(ex::Col(2), "a%"),
                             ex::Gt(ex::Col(1), ex::Lit(0.0))));
    return std::make_unique<MapOp>(
        std::move(filter), out,
        std::vector<MapOutput>{
            MapOutput::Pass(0), MapOutput::Pass(2), MapOutput::Pass(3),
            MapOutput::Compute(ex::Add(ex::Col(1), ex::Col(0))),
            MapOutput::Compute(ex::If(ex::Eq(ex::Col(2), ex::Lit("ab")),
                                      ex::Lit(int64_t{1}),
                                      ex::Lit(int64_t{0})))});
  };
  RowVectorPtr baseline, got;
  for (bool vectorized : {false, true}) {
    auto plan = make_plan();
    ExecContext ctx;
    ctx.options.enable_vectorized = vectorized;
    MaterializeRowVector mat(std::move(plan), out);
    ASSERT_TRUE(mat.Open(&ctx).ok());
    Tuple t;
    ASSERT_TRUE(mat.Next(&t));
    ASSERT_TRUE(mat.status().ok());
    ASSERT_TRUE(mat.Close().ok());
    (vectorized ? got : baseline) = t[0].collection();
  }
  ASSERT_GT(baseline->size(), 0u);
  ASSERT_EQ(baseline->size(), got->size());
  ASSERT_EQ(0, std::memcmp(baseline->data(), got->data(),
                           baseline->byte_size()));
}

// ---------------------------------------------------------------------------
// Bytecode optimizer semantics
// ---------------------------------------------------------------------------

TEST(BytecodeOptimizerTest, ConstantFoldingDivByZeroMatchesEvaluation) {
  // Engine semantics: division always produces f64 and x/0 == 0.0. The
  // folder must bake in exactly that value — never a compile-time error.
  std::mt19937_64 rng(3);
  RowVectorPtr rows = MakeRows(&rng, 16);
  ExprPtr expr = ex::Add(ex::Div(ex::Lit(int64_t{7}), ex::Lit(int64_t{0})),
                         ex::Lit(1.5));
  BcProgram prog = BcProgram::CompileValue(expr, rows->schema());
  EXPECT_GT(prog.stats().folded, 0u) << prog.Disassemble();
  EXPECT_EQ(prog.fallback_count(), 0u);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  SelVector all(rows->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  BcState state;
  BatchColumn col;
  ASSERT_TRUE(
      prog.RunValue(span, all.data(), all.size(), &col, &state).ok());
  ASSERT_EQ(col.tag, BatchTag::kF64);
  for (size_t i = 0; i < col.size(); ++i) {
    const double want = expr->Eval(rows->row(i)).f64();
    ASSERT_EQ(0, std::memcmp(&col.f64[i], &want, sizeof(double)));
    EXPECT_EQ(col.f64[i], 1.5);  // 7/0 -> 0.0, + 1.5
  }
}

TEST(BytecodeOptimizerTest, ShortCircuitSkipsErroringChild) {
  // AND narrows child by child; once the selection is empty, a later
  // child that would raise (a statically string-typed predicate) must
  // never fire — on the interpreted tier or the compiled one.
  std::mt19937_64 rng(5);
  RowVectorPtr rows = MakeRows(&rng, 32);
  ExprPtr never = ex::Eq(ex::Col(0), ex::Lit(int64_t{123456789}));
  ExprPtr raising = ex::Col(2);  // string column as a predicate
  ExprPtr expr = ex::And(never, raising);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  SelVector all(rows->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);

  BatchScratch scratch;
  SelVector sel = all;
  ASSERT_TRUE(expr->FilterBatch(span, &sel, &scratch).ok());
  EXPECT_TRUE(sel.empty());

  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileFilter(expr, rows->schema(), optimize);
    BcState state;
    sel = all;
    Status st = prog.RunFilter(span, &sel, &state);
    ASSERT_TRUE(st.ok()) << "opt=" << optimize << ": " << st.ToString()
                         << "\n" << prog.Disassemble();
    EXPECT_TRUE(sel.empty());
  }

  // Flipped order: every lane reaches the string predicate, so all
  // three tiers must raise.
  ExprPtr always = ex::Ge(ex::Col(0), ex::Lit(int64_t{-10000000}));
  ExprPtr bad = ex::And(always, raising);
  sel = all;
  EXPECT_FALSE(bad->FilterBatch(span, &sel, &scratch).ok());
  BcProgram bad_prog = BcProgram::CompileFilter(bad, rows->schema());
  BcState state;
  sel = all;
  EXPECT_FALSE(bad_prog.RunFilter(span, &sel, &state).ok());
}

TEST(BytecodeOptimizerTest, DeadBranchEliminationUnderItemChildren) {
  // A constant condition selects one branch at compile time. The dead
  // branch is a mixed-type IF (statically kItem) that would force an
  // interpreted fallback — eliminating it must leave zero fallbacks.
  std::mt19937_64 rng(9);
  RowVectorPtr rows = MakeRows(&rng, 24);
  ExprPtr item_branch =
      ex::If(ex::Gt(ex::Col(0), ex::Lit(int64_t{0})), ex::Lit(int64_t{1}),
             ex::Lit(0.5));  // i64 vs f64 branches -> kItem
  ASSERT_EQ(item_branch->BatchType(rows->schema()), BatchTag::kItem);
  ExprPtr expr =
      ex::If(ex::Lit(int64_t{1}), ex::Add(ex::Col(0), ex::Lit(int64_t{3})),
             item_branch);
  BcProgram prog = BcProgram::CompileValue(expr, rows->schema());
  EXPECT_EQ(prog.fallback_count(), 0u) << prog.Disassemble();
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  SelVector all(rows->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  BcState state;
  BatchColumn col;
  ASSERT_TRUE(
      prog.RunValue(span, all.data(), all.size(), &col, &state).ok());
  ASSERT_EQ(col.tag, BatchTag::kI64);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col.i64[i], rows->row(i).GetInt64(0) + 3);
  }
}

TEST(BytecodeOptimizerTest, ComparisonFusionKeepsSemantics) {
  // col < const compiles into a single fused filter opcode; the result
  // must match the unfused program and the interpreted kernel.
  std::mt19937_64 rng(13);
  RowVectorPtr rows = MakeRows(&rng, 64);
  ExprPtr expr = ex::Lt(ex::Col(0), ex::Lit(int64_t{10}));
  BcProgram fused = BcProgram::CompileFilter(expr, rows->schema());
  EXPECT_GT(fused.stats().fused, 0u) << fused.Disassemble();
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  SelVector all(rows->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  BatchScratch scratch;
  SelVector want = all;
  ASSERT_TRUE(expr->FilterBatch(span, &want, &scratch).ok());
  BcState state;
  SelVector got = all;
  ASSERT_TRUE(fused.RunFilter(span, &got, &state).ok());
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// String-valued IF conditions are hard errors on all three tiers
// ---------------------------------------------------------------------------

TEST(StringPredicateTest, StringIfConditionHardErrorAllTiers) {
  RowVectorPtr rows = MixedRows(8);
  ExprPtr expr =
      ex::If(ex::Col(2), ex::Lit(int64_t{1}), ex::Lit(int64_t{0}));

  // Row tier (checked).
  Item out;
  Status st = expr->EvalChecked(rows->row(0), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("non-numeric"), std::string::npos)
      << st.ToString();

  // Batch tier: both branches are i64, so the typed split path runs the
  // condition filter — which must raise.
  BatchScratch scratch;
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  SelVector all(rows->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  BatchColumn col;
  EXPECT_FALSE(
      expr->EvalBatch(span, all.data(), all.size(), &col, &scratch).ok());

  // Bytecode tier.
  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileValue(expr, rows->schema(), optimize);
    BcState state;
    EXPECT_FALSE(
        prog.RunValue(span, all.data(), all.size(), &col, &state).ok())
        << "opt=" << optimize << "\n" << prog.Disassemble();
  }
}

// ---------------------------------------------------------------------------
// The strictly-ascending SelVector contract is defended
// ---------------------------------------------------------------------------

/// Emits one borrowed batch carrying a deliberately permuted selection.
class PermutedSelectionSource : public SubOperator {
 public:
  explicit PermutedSelectionSource(RowVectorPtr rows)
      : SubOperator("PermutedSelectionSource"),
        rows_(std::move(rows)),
        sel_{2, 0, 1} {}
  bool Next(Tuple*) override { return false; }
  bool ProducesRecordStream() const override { return true; }
  bool NextBatchSelective(RowBatch* out) override {
    if (done_) return false;
    done_ = true;
    out->Borrow(rows_);
    out->SetSelection(sel_.data(), sel_.size());
    return true;
  }

 private:
  RowVectorPtr rows_;
  SelVector sel_;
  bool done_ = false;
};

TEST(SelectionContractTest, MalformedSelectionIsCaughtNotGarbled) {
  EXPECT_TRUE(IsAscendingSel(nullptr, 0));
  const uint32_t ascending[] = {0, 3, 7};
  EXPECT_TRUE(IsAscendingSel(ascending, 3));
  const uint32_t permuted[] = {2, 0, 1};
  EXPECT_FALSE(IsAscendingSel(permuted, 3));
  const uint32_t duplicated[] = {0, 1, 1};
  EXPECT_FALSE(IsAscendingSel(duplicated, 3));
  EXPECT_FALSE(ValidateSelection("test", permuted, 3).ok());
  EXPECT_TRUE(ValidateSelection("test", ascending, 3).ok());

  // Bytecode entry points reject it outright.
  std::mt19937_64 rng(17);
  RowVectorPtr rows = MakeRows(&rng, 8);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  ExprPtr pred = ex::Lt(ex::Col(0), ex::Lit(int64_t{50}));
  BcProgram fprog = BcProgram::CompileFilter(pred, rows->schema());
  BcState state;
  SelVector bad = {2, 0, 1};
  EXPECT_FALSE(fprog.RunFilter(span, &bad, &state).ok());
  BcProgram vprog = BcProgram::CompileValue(pred, rows->schema());
  BatchColumn col;
  EXPECT_FALSE(vprog.RunValue(span, permuted, 3, &col, &state).ok());

  // Operator entry: a permuted upstream selection fails the Filter pull
  // instead of silently mis-assigning lanes.
  Filter filter(std::make_unique<PermutedSelectionSource>(rows), pred);
  ExecContext ctx;
  ASSERT_TRUE(filter.Open(&ctx).ok());
  RowBatch batch;
  EXPECT_FALSE(filter.NextBatchSelective(&batch));
  EXPECT_FALSE(filter.status().ok());
  EXPECT_NE(filter.status().ToString().find("ascending"), std::string::npos)
      << filter.status().ToString();
}

// ---------------------------------------------------------------------------
// Fused serialize+hash key programs
// ---------------------------------------------------------------------------

TEST(KeyProgramTest, FusedSerializeHashMatchesCodecPlusHashSpan) {
  std::mt19937_64 rng(19);
  RowVectorPtr rows = MakeRows(&rng, 512);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  const std::vector<std::vector<int>> key_sets = {
      {0}, {1}, {2}, {3}, {4}, {0, 5}, {3, 4}, {0, 2, 3}, {2, 0, 1, 5}};
  for (const auto& keys : key_sets) {
    KeyCodec codec(rows->schema(), keys);
    KeyProgram prog(rows->schema(), keys);
    ASSERT_TRUE(prog.valid());
    ASSERT_EQ(prog.key_size(), codec.key_size());
    const uint32_t ks = codec.key_size();
    const size_t n = rows->size();
    std::vector<uint8_t> want_keys(n * ks), got_keys(n * ks);
    std::vector<uint64_t> want_hashes(n), got_hashes(n);
    codec.SerializeKeys(span, 0, n, want_keys.data());
    HashKeysSpan(want_keys.data(), n, ks, want_hashes.data());
    // Run in two uneven chunks to exercise the `begin` offset.
    const size_t split = n / 3;
    prog.SerializeAndHash(span, 0, split, got_keys.data(),
                          got_hashes.data());
    prog.SerializeAndHash(span, split, n - split,
                          got_keys.data() + split * ks,
                          got_hashes.data() + split);
    std::string label = "keys={";
    for (int k : keys) label += std::to_string(k) + ",";
    label += "}";
    ASSERT_EQ(0, std::memcmp(want_keys.data(), got_keys.data(),
                             want_keys.size()))
        << label;
    ASSERT_EQ(want_hashes, got_hashes) << label;
  }
}

// ---------------------------------------------------------------------------
// Compiled aggregate inputs: ReduceByKey evaluates computed inputs per
// chunk (bytecode value programs, or the EvalBatch kernels with the
// toggle off). The oracle below folds Expr::Eval per row — the semantics
// the kernels must reproduce byte for byte on every path: serial span,
// selective pull, 4-thread partition-parallel, budgeted spill.
// ---------------------------------------------------------------------------

Schema AggInputSchema() {
  return Schema({Field::I64("k"), Field::Str("s", 8), Field::F64("x"),
                 Field::I64("y"), Field::I32("z")});
}

RowVectorPtr MakeAggInputRows(size_t n, uint32_t seed) {
  RowVectorPtr rows = RowVector::Make(AggInputSchema());
  rows->Reserve(n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> key(0, 36);
  std::uniform_real_distribution<double> real(-100.0, 100.0);
  std::uniform_int_distribution<int64_t> small(-1000, 1000);
  for (size_t i = 0; i < n; ++i) {
    RowWriter w = rows->AppendRow();
    const int64_t k = key(rng);
    w.SetInt64(0, k);
    w.SetString(1, "g" + std::to_string(k % 11));
    w.SetFloat64(2, real(rng));
    w.SetInt64(3, small(rng));
    w.SetInt32(4, static_cast<int32_t>(small(rng)));
  }
  return rows;
}

/// SUM/MIN/MAX/COUNT over computed f64 and i64 inputs, plus a
/// mixed-type IF (the interpreted kItem batch tier) and a bare column.
std::vector<AggSpec> ComputedAggs() {
  using ex::Col;
  using ex::Lit;
  return {
      {AggKind::kSum,
       ex::Mul(Col(2), ex::Sub(Lit(1.0), ex::Div(Col(3), Lit(5000.0)))),
       "sum_f", AtomType::kFloat64},
      {AggKind::kSum, ex::Add(Col(3), ex::Mul(Col(4), Lit(int64_t{3}))),
       "sum_i", AtomType::kInt64},
      {AggKind::kMin, ex::Sub(Col(2), Col(4)), "min_f", AtomType::kFloat64},
      {AggKind::kMax, ex::Mul(Col(3), Col(4)), "max_i", AtomType::kInt64},
      {AggKind::kMin, ex::Add(Col(3), Lit(int64_t{7})), "min_i",
       AtomType::kInt64},
      {AggKind::kMax, ex::Div(Col(2), Lit(3.0)), "max_f", AtomType::kFloat64},
      {AggKind::kSum, ex::If(ex::Gt(Col(3), Lit(int64_t{0})), Col(2), Col(4)),
       "sum_if", AtomType::kFloat64},
      {AggKind::kCount, ex::Add(Col(3), Lit(int64_t{1})), "cnt",
       AtomType::kInt64},
      {AggKind::kSum, Col(2), "sum_col", AtomType::kFloat64},
  };
}

/// Row-at-a-time Expr::Eval oracle of ReduceByKey: groups in
/// first-occurrence order, each aggregate folded in row order over the
/// rows passing `filter`. Keyless input folds into one partial per
/// `keyless_chunk` rows, combined through the fixed pairwise tree (the
/// determinism contract of the scalar reduce, docs/DESIGN-parallel.md).
RowVectorPtr OracleReduce(const RowVector& rows, const std::vector<int>& keys,
                          const std::vector<AggSpec>& aggs,
                          const ExprPtr& filter, size_t keyless_chunk) {
  const Schema out = ReduceByKey::MakeOutputSchema(rows.schema(), keys, aggs);
  RowVectorPtr states = RowVector::Make(out);
  auto offset = [&](size_t a) { return out.offset(keys.size() + a); };
  auto is_f64 = [&](size_t a) {
    return aggs[a].out_type == AtomType::kFloat64;
  };
  auto init = [&](uint8_t* dst) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggKind k = aggs[a].kind;
      if (is_f64(a)) {
        double v = k == AggKind::kMin   ? kInf
                   : k == AggKind::kMax ? -kInf
                                        : 0.0;
        std::memcpy(dst + offset(a), &v, sizeof(v));
      } else {
        int64_t v = k == AggKind::kMin   ? std::numeric_limits<int64_t>::max()
                    : k == AggKind::kMax ? std::numeric_limits<int64_t>::min()
                                         : 0;
        std::memcpy(dst + offset(a), &v, sizeof(v));
      }
    }
  };
  auto fold = [](AggKind k, auto cur, auto x) {
    switch (k) {
      case AggKind::kSum: return cur + x;
      case AggKind::kCount: return cur + 1;
      case AggKind::kMin: return std::min(cur, x);
      case AggKind::kMax: return std::max(cur, x);
    }
    return cur;
  };
  auto update = [&](uint8_t* dst, const RowRef& row) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      const double v = aggs[a].kind == AggKind::kCount
                           ? 0.0
                           : aggs[a].input->Eval(row).AsDouble();
      uint8_t* p = dst + offset(a);
      if (is_f64(a)) {
        double cur;
        std::memcpy(&cur, p, sizeof(cur));
        cur = fold(aggs[a].kind, cur, v);
        std::memcpy(p, &cur, sizeof(cur));
      } else {
        int64_t cur;
        std::memcpy(&cur, p, sizeof(cur));
        cur = fold(aggs[a].kind, cur, static_cast<int64_t>(v));
        std::memcpy(p, &cur, sizeof(cur));
      }
    }
  };
  auto merge = [&](uint8_t* dst, const uint8_t* src) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggKind k =
          aggs[a].kind == AggKind::kCount ? AggKind::kSum : aggs[a].kind;
      if (is_f64(a)) {
        double x, y;
        std::memcpy(&x, dst + offset(a), sizeof(x));
        std::memcpy(&y, src + offset(a), sizeof(y));
        x = fold(k, x, y);
        std::memcpy(dst + offset(a), &x, sizeof(x));
      } else {
        int64_t x, y;
        std::memcpy(&x, dst + offset(a), sizeof(x));
        std::memcpy(&y, src + offset(a), sizeof(y));
        x = fold(k, x, y);
        std::memcpy(dst + offset(a), &x, sizeof(x));
      }
    }
  };

  std::map<std::string, size_t> groups;
  size_t fill = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowRef row = rows.row(i);
    if (filter != nullptr && !filter->EvalBool(row)) continue;
    if (keys.empty()) {
      if (fill == 0) {
        states->AppendRow();
        init(states->mutable_row(states->size() - 1));
      }
      update(states->mutable_row(states->size() - 1), row);
      if (++fill == keyless_chunk) fill = 0;
      continue;
    }
    std::string key;
    for (int c : keys) {
      key += rows.schema().field(c).type == AtomType::kString
                 ? std::string(row.GetString(c))
                 : std::to_string(row.GetInt64(c));
      key += '\x1f';
    }
    auto [it, inserted] = groups.emplace(key, states->size());
    if (inserted) {
      RowWriter w = states->AppendRow();
      for (size_t j = 0; j < keys.size(); ++j) {
        const int c = keys[j];
        if (rows.schema().field(c).type == AtomType::kString) {
          w.SetString(static_cast<int>(j), row.GetString(c));
        } else {
          w.SetInt64(static_cast<int>(j), row.GetInt64(c));
        }
      }
      init(states->mutable_row(states->size() - 1));
    }
    update(states->mutable_row(it->second), row);
  }
  if (keys.empty() && states->size() > 1) {
    PairwiseCombineRows(states->mutable_data(), states->size(),
                        states->row_size(), merge);
    RowVectorPtr one = RowVector::Make(out);
    one->AppendRaw(states->data());
    return one;
  }
  return states;
}

struct AggRunConfig {
  int threads = 1;
  size_t memory_limit = 0;
  bool bytecode = true;
  bool selective = false;
  bool vectorized = true;
  std::string Label() const {
    return "threads=" + std::to_string(threads) +
           " limit=" + std::to_string(memory_limit) +
           " bytecode=" + std::to_string(bytecode) +
           " selective=" + std::to_string(selective) +
           " vectorized=" + std::to_string(vectorized);
  }
};

ExprPtr AggTestFilter() {
  return ex::Or(ex::Lt(ex::Col(3), ex::Lit(int64_t{200})),
                ex::Eq(ex::Col(1), ex::Lit("g3")));
}

/// One ReduceByKey run under `cfg`; the input arrives as two batches, so
/// the drained (parallel / budgeted) paths build a fresh vector.
RowVectorPtr RunComputedReduce(const RowVectorPtr& data,
                               const std::vector<int>& keys,
                               const AggRunConfig& cfg,
                               StatsRegistry* stats) {
  const size_t half = data->size() / 2;
  RowVectorPtr a = RowVector::Make(data->schema());
  RowVectorPtr b = RowVector::Make(data->schema());
  a->AppendRawBatch(data->data(), half);
  b->AppendRawBatch(data->row(half).data(), data->size() - half);
  SubOpPtr input = std::make_unique<RowScan>(std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{a, b}));
  if (cfg.selective) {
    input = std::make_unique<Filter>(std::move(input), AggTestFilter());
  }
  ReduceByKey rk(std::move(input), keys, ComputedAggs(), data->schema());
  storage::BlobStore store;
  MemoryBudget budget(cfg.memory_limit);
  ExecContext ctx;
  ctx.options.num_threads = cfg.threads;
  ctx.options.parallel_min_rows = 256;
  ctx.options.morsel_rows = 512;
  ctx.options.enable_expr_bytecode = cfg.bytecode;
  ctx.options.enable_vectorized = cfg.vectorized;
  ctx.options.memory_limit_bytes = cfg.memory_limit;
  ctx.budget = &budget;
  ctx.spill_store = &store;
  ctx.stats = stats;
  RowVectorPtr out = RowVector::Make(rk.out_schema());
  EXPECT_TRUE(rk.Open(&ctx).ok());
  Tuple t;
  while (rk.Next(&t)) out->AppendRaw(t[0].row().data());
  EXPECT_TRUE(rk.status().ok()) << rk.status().ToString();
  EXPECT_TRUE(rk.Close().ok());
  EXPECT_TRUE(store.List("spill/").empty()) << "spill files leaked";
  return out;
}

TEST(AggregateInputTest, ComputedInputsMatchEvalOracleOnEveryPath) {
  // 40k rows: many kernel chunks, three keyless partials, and (at a
  // 256KB budget) a spill whose partitions stream through the kernel.
  RowVectorPtr data = MakeAggInputRows(40000, 41);
  const std::vector<std::vector<int>> key_shapes = {{0}, {1}, {1, 0}, {}};
  for (const std::vector<int>& keys : key_shapes) {
    for (bool selective : {false, true}) {
      RowVectorPtr want =
          OracleReduce(*data, keys, ComputedAggs(),
                       selective ? AggTestFilter() : nullptr, 1 << 14);
      ASSERT_GT(want->size(), 0u);
      for (int threads : {1, 4}) {
        for (size_t limit : {size_t{0}, size_t{256} << 10}) {
          for (bool bytecode : {true, false}) {
            AggRunConfig cfg;
            cfg.threads = threads;
            cfg.memory_limit = limit;
            cfg.bytecode = bytecode;
            cfg.selective = selective;
            StatsRegistry stats;
            RowVectorPtr got = RunComputedReduce(data, keys, cfg, &stats);
            const std::string label =
                "keys=" + std::to_string(keys.size()) + " " + cfg.Label();
            ASSERT_EQ(want->size(), got->size()) << label;
            ASSERT_EQ(0, std::memcmp(want->data(), got->data(),
                                     want->byte_size()))
                << label;
            if (limit > 0 && !keys.empty()) {
              EXPECT_EQ(stats.GetCounter("spill.ops.ReduceByKey"), 1)
                  << label;
            }
          }
        }
      }
      // Row-at-a-time pulls: the kernel at n = 1.
      AggRunConfig row_cfg;
      row_cfg.vectorized = false;
      row_cfg.selective = selective;
      StatsRegistry stats;
      RowVectorPtr got = RunComputedReduce(data, keys, row_cfg, &stats);
      ASSERT_EQ(want->size(), got->size()) << row_cfg.Label();
      ASSERT_EQ(0,
                std::memcmp(want->data(), got->data(), want->byte_size()))
          << row_cfg.Label();
    }
  }
}

TEST(AggregateInputTest, NonNumericInputIsATypeErrorNotACrash) {
  RowVectorPtr data = MakeAggInputRows(100, 5);
  // The IF yields a string for rows with y > 0.
  const std::vector<AggSpec> aggs = {
      {AggKind::kSum,
       ex::If(ex::Gt(ex::Col(3), ex::Lit(int64_t{0})), ex::Col(1),
              ex::Col(2)),
       "t", AtomType::kFloat64}};
  for (bool bytecode : {true, false}) {
    ReduceByKey rk(ScanOf(data), {0}, aggs, data->schema());
    ExecContext ctx;
    ctx.options.enable_expr_bytecode = bytecode;
    ASSERT_TRUE(rk.Open(&ctx).ok());
    Tuple t;
    while (rk.Next(&t)) {
    }
    EXPECT_FALSE(rk.status().ok());
    EXPECT_NE(rk.status().ToString().find("non-numeric"), std::string::npos)
        << rk.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Blocked Map projection
// ---------------------------------------------------------------------------

/// Map's batch path projects kDefaultRows-row blocks; a batch several
/// blocks long, under a selection, with passthrough and computed string
/// columns (width clamping included), must equal the row path.
TEST(SelectionFlowTest, BlockedMapSpansBlocksWithSelection) {
  std::mt19937_64 rng(77);
  RowVectorPtr data = MakeRows(&rng, 7000);
  Schema out({Field::Str("s_narrow", 3), Field::I64("a"), Field::Str("s", 8),
              Field::F64("q"), Field::Date("d"), Field::Str("pick", 8)});
  std::vector<MapOutput> outputs = {
      MapOutput::Pass(2), MapOutput::Pass(0), MapOutput::Pass(2),
      MapOutput::Compute(ex::Mul(ex::Col(1), ex::Col(3))), MapOutput::Pass(4),
      MapOutput::Compute(ex::If(ex::Gt(ex::Col(0), ex::Lit(int64_t{0})),
                                ex::Col(2), ex::Lit("neg")))};
  for (bool selective : {false, true}) {
    RowVectorPtr baseline, got;
    for (bool vectorized : {false, true}) {
      SubOpPtr input = ScanOf(data);
      if (selective) {
        input = std::make_unique<Filter>(
            std::move(input), ex::Ne(ex::Col(0), ex::Lit(int64_t{7})));
      }
      ExecContext ctx;
      ctx.options.enable_vectorized = vectorized;
      MaterializeRowVector mat(
          std::make_unique<MapOp>(std::move(input), out, outputs), out);
      ASSERT_TRUE(mat.Open(&ctx).ok());
      Tuple t;
      ASSERT_TRUE(mat.Next(&t));
      ASSERT_TRUE(mat.status().ok()) << mat.status().ToString();
      ASSERT_TRUE(mat.Close().ok());
      (vectorized ? got : baseline) = t[0].collection();
    }
    ASSERT_GT(baseline->size(), 3 * RowBatch::kDefaultRows);
    if (selective) ASSERT_LT(baseline->size(), data->size());
    ASSERT_EQ(baseline->size(), got->size());
    ASSERT_EQ(0, std::memcmp(baseline->data(), got->data(),
                             baseline->byte_size()))
        << "selective=" << selective;
  }
}

}  // namespace
}  // namespace modularis
