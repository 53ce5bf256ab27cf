#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "harness/runner.h"
#include "harness/table.h"

namespace carac::harness {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "123"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Every line has the same length (alignment).
  size_t prev = std::string::npos;
  size_t pos = 0;
  while (pos < out.size()) {
    const size_t nl = out.find('\n', pos);
    const size_t len = nl - pos;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    pos = nl + 1;
  }
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(FormatSeconds(123.456), "123.5");
  EXPECT_EQ(FormatSeconds(1.23456), "1.235");
  EXPECT_EQ(FormatSeconds(0.0123456), "0.01235");
  EXPECT_EQ(FormatSpeedup(1234.5), "1234x");
  EXPECT_EQ(FormatSpeedup(2.5), "2.50x");
}

TEST(RecordTest, PinsFieldTypes) {
  // Strings stay strings (even "sorted-array"), integers print exactly,
  // doubles print with their fixed decimals.
  EXPECT_EQ(FormatRecord("bench_x", "index",
                         {{"kind", "sorted-array"},
                          {"rows", int64_t{200000}},
                          {"seconds", 0.0000042, 6},
                          {"speedup", 2.5, 2}}),
            "{\"bench\": \"bench_x\", \"record\": \"index\", "
            "\"kind\": \"sorted-array\", \"rows\": 200000, "
            "\"seconds\": 0.000004, \"speedup\": 2.50}");
}

TEST(RecordTest, IntegerTypesPrintExactly) {
  const size_t rows = 83862;
  const uint64_t big = 18446744073709551615ull;
  EXPECT_EQ(FormatRecord("b", "r",
                         {{"rows", rows}, {"big", big}, {"neg", -3},
                          {"col", uint32_t{7}}}),
            "{\"bench\": \"b\", \"record\": \"r\", \"rows\": 83862, "
            "\"big\": 18446744073709551615, \"neg\": -3, \"col\": 7}");
}

TEST(RecordTest, DoublesUseFixedDecimals) {
  EXPECT_EQ(FormatRecord("b", "r",
                         {{"a", 1.0, 0}, {"b", 0.25, 3}, {"c", -1.5, 1}}),
            "{\"bench\": \"b\", \"record\": \"r\", \"a\": 1, "
            "\"b\": 0.250, \"c\": -1.5}");
  // JSON has no inf/nan; a non-finite value becomes null.
  EXPECT_EQ(FormatRecord("b", "r",
                         {{"inf", std::numeric_limits<double>::infinity(), 2},
                          {"nan", std::numeric_limits<double>::quiet_NaN(),
                           2}}),
            "{\"bench\": \"b\", \"record\": \"r\", \"inf\": null, "
            "\"nan\": null}");
}

TEST(RecordTest, EscapesStrings) {
  EXPECT_EQ(FormatRecord("b", "r",
                         {{"label", std::string("a\"b\\c\nd")}}),
            "{\"bench\": \"b\", \"record\": \"r\", "
            "\"label\": \"a\\\"b\\\\c\\u000ad\"}");
  EXPECT_EQ(FormatRecord("b", "r", {}),
            "{\"bench\": \"b\", \"record\": \"r\"}");
}

TEST(RunnerTest, MeasureOnceReportsResultsAndStats) {
  auto factory = [] {
    const auto edges = analysis::GenerateSparseGraph(9, 20, 30);
    return analysis::MakeTransitiveClosure(
        edges, analysis::RuleOrder::kHandOptimized);
  };
  Measurement m = MeasureOnce(factory, InterpretedConfig(true));
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GT(m.result_size, 0u);
  EXPECT_GT(m.stats.tuples_inserted, 0u);
  EXPECT_GE(m.seconds, 0.0);
}

TEST(RunnerTest, MeasureMedianIsDeterministicInResults) {
  auto factory = [] {
    const auto edges = analysis::GenerateSparseGraph(10, 20, 30);
    return analysis::MakeTransitiveClosure(
        edges, analysis::RuleOrder::kUnoptimized);
  };
  Measurement a = MeasureMedian(factory, InterpretedConfig(true), 3);
  Measurement b = MeasureMedian(factory, InterpretedConfig(false), 3);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.result_size, b.result_size);
}

TEST(RunnerTest, JitConfigBuilder) {
  core::EngineConfig config = JitConfigOf(
      backends::BackendKind::kBytecode, /*async=*/true, /*use_indexes=*/false,
      core::Granularity::kSpj, backends::CompileMode::kSnippet);
  EXPECT_EQ(config.mode, core::EvalMode::kJit);
  EXPECT_EQ(config.jit.backend, backends::BackendKind::kBytecode);
  EXPECT_TRUE(config.jit.async);
  EXPECT_FALSE(config.use_indexes);
  EXPECT_EQ(config.jit.granularity, core::Granularity::kSpj);
  EXPECT_EQ(config.jit.mode, backends::CompileMode::kSnippet);
}

TEST(RunnerTest, PropagatesPrepareFailure) {
  auto factory = [] {
    analysis::Workload w;
    w.name = "bad";
    w.program = std::make_unique<datalog::Program>();
    datalog::Dsl dsl(w.program.get());
    auto seed = dsl.Relation("Seed", 1);
    auto a = dsl.Relation("A", 1);
    auto b = dsl.Relation("B", 1);
    auto x = dsl.Var();
    a(x) <<= seed(x) & !b(x);
    b(x) <<= a(x);  // Unstratifiable.
    w.output = a.id();
    return w;
  };
  Measurement m = MeasureOnce(factory, InterpretedConfig(true));
  EXPECT_FALSE(m.ok);
  EXPECT_FALSE(m.error.empty());
}

}  // namespace
}  // namespace carac::harness
