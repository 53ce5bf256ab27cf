#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "backends/bytecode_backend.h"
#include "backends/quotes_backend.h"
#include "backends/quotes_codegen.h"
#include "datalog/dsl.h"
#include "ir/interpreter.h"
#include "ir/lowering.h"

namespace carac::backends {
namespace {

using datalog::Dsl;
using datalog::Program;

struct Fixture {
  Program program;
  ir::IRProgram irp;
  datalog::PredicateId output;

  explicit Fixture(const std::function<datalog::PredicateId(Dsl*)>& build) {
    Dsl dsl(&program);
    output = build(&dsl);
    CARAC_CHECK_OK(ir::LowerProgram(&program, true, &irp));
  }
};

datalog::PredicateId BuildTc(Dsl* dsl) {
  auto edge = dsl->Relation("Edge", 2);
  auto path = dsl->Relation("Path", 2);
  auto x = dsl->Var();
  auto y = dsl->Var();
  auto z = dsl->Var();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);
  for (int i = 0; i < 7; ++i) edge.Fact(i, i + 1);
  return path.id();
}

BytecodeProgram CompileFixture(const Fixture& f, CompileMode mode) {
  return CompileToBytecode(
      *f.irp.root, optimizer::StatsSnapshot::Capture(f.program.db()), mode);
}

TEST(QuotesCodegenTest, GeneratesSelfContainedSource) {
  Fixture f(BuildTc);
  const BytecodeProgram program = CompileFixture(f, CompileMode::kFull);
  const std::string source = GenerateQuotesSource(program);
  // Entry point, ABI struct and loop structure must all be present.
  EXPECT_NE(source.find(kQuotesEntrySymbol), std::string::npos);
  EXPECT_NE(source.find("struct CaracQuotesApi"), std::string::npos);
  EXPECT_NE(source.find("q.next("), std::string::npos);
  EXPECT_NE(source.find("swap_clear"), std::string::npos);
  // The DoWhile's back-edge: kJumpIfDelta becomes a backward goto.
  size_t loops = 0;
  for (size_t pc = 0; pc < program.code.size(); ++pc) {
    const Insn& insn = program.code[pc];
    if (insn.op != Insn::Op::kJumpIfDelta) continue;
    ++loops;
    EXPECT_LT(static_cast<size_t>(insn.d), pc);
    const std::string back_edge = "L" + std::to_string(pc) +
                                  ": if (q.any_delta(q.rt, " +
                                  std::to_string(insn.a) + "u)) goto L" +
                                  std::to_string(insn.d) + ";";
    EXPECT_NE(source.find(back_edge), std::string::npos) << back_edge;
  }
  EXPECT_GT(loops, 0u);
  // No includes: the source must compile in isolation.
  EXPECT_EQ(source.find("#include"), std::string::npos);
  EXPECT_FALSE(program.relation_sets.empty());
}

TEST(QuotesCodegenTest, SnippetSplicesContinuations) {
  Fixture f(BuildTc);
  const BytecodeProgram program = CompileFixture(f, CompileMode::kSnippet);
  const std::string source = GenerateQuotesSource(program);
  EXPECT_NE(source.find("call_node"), std::string::npos);
  EXPECT_FALSE(program.call_nodes.empty());
}

TEST(QuotesCodegenTest, ConstantsAreInlined) {
  Fixture f([](Dsl* dsl) {
    auto edge = dsl->Relation("Edge", 2);
    auto out = dsl->Relation("Out", 1);
    auto x = dsl->Var();
    out(x) <<= edge(42, x);
    edge.Fact(42, 1);
    return out.id();
  });
  const std::string source =
      GenerateQuotesSource(CompileFixture(f, CompileMode::kFull));
  EXPECT_NE(source.find("42LL"), std::string::npos);
}

// The remaining tests invoke the real compiler; they are skipped when the
// environment has none (CARAC_CXX=/nonexistent disables them).

bool CompilerAvailable() {
  const char* cxx = std::getenv("CARAC_CXX");
  std::string probe = std::string(cxx != nullptr ? cxx : "c++") +
                      " --version > /dev/null 2>&1";
  return std::system(probe.c_str()) == 0;
}

TEST(QuotesBackendTest, CompilesAndRunsTransitiveClosure) {
  if (!CompilerAvailable()) GTEST_SKIP() << "no C++ compiler";
  Fixture f(BuildTc);
  QuotesBackend backend;
  CompileRequest request;
  request.subtree = f.irp.root->Clone();
  request.stats = optimizer::StatsSnapshot::Capture(f.program.db());
  std::unique_ptr<CompiledUnit> unit;
  ASSERT_TRUE(backend.Compile(std::move(request), &unit).ok());

  ir::ExecContext ctx(&f.program.db());
  ir::Interpreter interp(&ctx);
  unit->Run(ctx, interp, *f.irp.root);
  EXPECT_EQ(f.program.db().Get(f.output, storage::DbKind::kDerived).size(),
            28u);  // 8-chain: 7+6+...+1.
}

TEST(QuotesBackendTest, CacheHitsOnIdenticalSource) {
  if (!CompilerAvailable()) GTEST_SKIP() << "no C++ compiler";
  ClearQuotesCache();
  Fixture f1(BuildTc);
  QuotesBackend backend;

  CompileRequest r1;
  r1.subtree = f1.irp.root->Clone();
  r1.stats = optimizer::StatsSnapshot::Capture(f1.program.db());
  std::unique_ptr<CompiledUnit> u1;
  ASSERT_TRUE(backend.Compile(std::move(r1), &u1).ok());
  EXPECT_FALSE(backend.last_was_cache_hit());

  Fixture f2(BuildTc);  // Identical program -> identical source.
  CompileRequest r2;
  r2.subtree = f2.irp.root->Clone();
  r2.stats = optimizer::StatsSnapshot::Capture(f2.program.db());
  std::unique_ptr<CompiledUnit> u2;
  ASSERT_TRUE(backend.Compile(std::move(r2), &u2).ok());
  EXPECT_TRUE(backend.last_was_cache_hit());
}

TEST(QuotesBackendTest, NegationAndBuiltins) {
  if (!CompilerAvailable()) GTEST_SKIP() << "no C++ compiler";
  Fixture f([](Dsl* dsl) {
    auto n = dsl->Relation("N", 1);
    auto odd = dsl->Relation("Odd", 1);
    auto even = dsl->Relation("EvenSq", 2);
    auto x = dsl->Var();
    auto r = dsl->Var();
    auto s = dsl->Var();
    odd(x) <<= n(x) & dsl->Mod(x, 2, r) & dsl->Eq(r, 1);
    even(x, s) <<= n(x) & !odd(x) & dsl->Mul(x, x, s);
    for (int i = 0; i < 10; ++i) n.Fact(i);
    return even.id();
  });
  QuotesBackend backend;
  CompileRequest request;
  request.subtree = f.irp.root->Clone();
  request.stats = optimizer::StatsSnapshot::Capture(f.program.db());
  std::unique_ptr<CompiledUnit> unit;
  ASSERT_TRUE(backend.Compile(std::move(request), &unit).ok());
  ir::ExecContext ctx(&f.program.db());
  ir::Interpreter interp(&ctx);
  unit->Run(ctx, interp, *f.irp.root);
  // Even squares: 0,2,4,6,8.
  EXPECT_EQ(f.program.db().Get(f.output, storage::DbKind::kDerived).size(),
            5u);
  EXPECT_TRUE(f.program.db()
                  .Get(f.output, storage::DbKind::kDerived)
                  .Contains({8, 64}));
}

TEST(QuotesBackendTest, ZeroArityHeadEmitsAnEmptyRow) {
  if (!CompilerAvailable()) GTEST_SKIP() << "no C++ compiler";
  Fixture f([](Dsl* dsl) {
    auto edge = dsl->Relation("Edge", 2);
    auto found = dsl->Relation("Found", 0);
    found() <<= edge(1, 2);
    edge.Fact(1, 2);
    return found.id();
  });
  // The emit writes no values into its window space.
  EXPECT_NE(GenerateQuotesSource(CompileFixture(f, CompileMode::kFull))
                .find("{ int64_t* o = q.emit(q.rt); (void)o; }"),
            std::string::npos);
  QuotesBackend backend;
  CompileRequest request;
  request.subtree = f.irp.root->Clone();
  request.stats = optimizer::StatsSnapshot::Capture(f.program.db());
  std::unique_ptr<CompiledUnit> unit;
  ASSERT_TRUE(backend.Compile(std::move(request), &unit).ok());
  ir::ExecContext ctx(&f.program.db());
  ir::Interpreter interp(&ctx);
  unit->Run(ctx, interp, *f.irp.root);
  EXPECT_EQ(f.program.db().Get(f.output, storage::DbKind::kDerived).size(),
            1u);
}

TEST(QuotesBackendTest, FailsGracefullyWithoutCompiler) {
  Fixture f(BuildTc);
  setenv("CARAC_CXX", "/nonexistent/compiler", 1);
  ClearQuotesCache();
  QuotesBackend backend;
  CompileRequest request;
  request.subtree = f.irp.root->Clone();
  request.stats = optimizer::StatsSnapshot::Capture(f.program.db());
  std::unique_ptr<CompiledUnit> unit;
  EXPECT_FALSE(backend.Compile(std::move(request), &unit).ok());
  unsetenv("CARAC_CXX");
  ClearQuotesCache();
}

// ---- Shared-runtime parity ----
//
// Quotes prints the bytecode program and calls back into the runtime
// RunBytecode uses, so one program run by both targets must leave
// identical counters: the same fixpoint work and the same probes.

struct RunResult {
  ir::ExecStats stats;
  std::map<ir::AccessProfiler::Key, ir::ColumnProbeStats> probes;
  size_t derived = 0;
};

RunResult RunUnit(CompiledUnit* unit,
                  const std::function<analysis::Workload()>& make) {
  analysis::Workload w = make();  // A fresh database for this unit.
  ir::IRProgram irp;
  CARAC_CHECK_OK(ir::LowerProgram(w.program.get(), true, &irp));
  ir::ExecContext ctx(&w.program->db());
  ir::Interpreter interp(&ctx);
  unit->Run(ctx, interp, *irp.root);
  return {ctx.stats(), ctx.profiler().counters(),
          w.program->db().Get(w.output, storage::DbKind::kDerived).size()};
}

RunResult CheckBytecodeQuotesParity(
    const std::function<analysis::Workload()>& make) {
  analysis::Workload w = make();
  ir::IRProgram irp;
  CARAC_CHECK_OK(ir::LowerProgram(w.program.get(), true, &irp));
  const auto stats = optimizer::StatsSnapshot::Capture(w.program->db());
  std::unique_ptr<CompiledUnit> units[2];
  BytecodeBackend bytecode;
  QuotesBackend quotes;
  Backend* backends[2] = {&bytecode, &quotes};
  for (int i = 0; i < 2; ++i) {
    CompileRequest request;
    request.subtree = irp.root->Clone();
    request.stats = stats;
    request.mode = CompileMode::kFull;
    CARAC_CHECK_OK(backends[i]->Compile(std::move(request), &units[i]));
  }
  const RunResult vm = RunUnit(units[0].get(), make);
  const RunResult q = RunUnit(units[1].get(), make);
  EXPECT_GT(vm.derived, 0u);
  EXPECT_EQ(vm.derived, q.derived);
  EXPECT_EQ(vm.stats.iterations, q.stats.iterations);
  EXPECT_EQ(vm.stats.tuples_considered, q.stats.tuples_considered);
  EXPECT_EQ(vm.stats.tuples_inserted, q.stats.tuples_inserted);
  EXPECT_EQ(vm.probes.size(), q.probes.size());
  for (const auto& [key, expected] : vm.probes) {
    auto it = q.probes.find(key);
    if (it == q.probes.end()) {
      ADD_FAILURE() << "quotes never probed rel " << key.first << " col "
                    << key.second;
      continue;
    }
    EXPECT_EQ(expected.point_probes, it->second.point_probes) << key.first;
    EXPECT_EQ(expected.point_hits, it->second.point_hits) << key.first;
    EXPECT_EQ(expected.range_probes, it->second.range_probes) << key.first;
    EXPECT_EQ(expected.batch_windows, it->second.batch_windows) << key.first;
  }
  return q;
}

ir::ColumnProbeStats Total(const RunResult& result) {
  ir::ColumnProbeStats total;
  for (const auto& [key, stats] : result.probes) total.MergeFrom(stats);
  return total;
}

TEST(QuotesParityTest, AndersenMatchesBytecode) {
  if (!CompilerAvailable()) GTEST_SKIP() << "no C++ compiler";
  const RunResult quotes = CheckBytecodeQuotesParity([] {
    analysis::SListConfig config;
    config.scale = 2;
    return analysis::MakeAndersen(config, analysis::RuleOrder::kHandOptimized);
  });
  EXPECT_GT(Total(quotes).point_probes, 0u);
}

TEST(QuotesParityTest, BoundedReachRangeMatchesBytecode) {
  if (!CompilerAvailable()) GTEST_SKIP() << "no C++ compiler";
  const RunResult quotes = CheckBytecodeQuotesParity([] {
    // Reach's recursive rule bounds y on Reach's second column: a
    // const-bounded range atom that an ordered index serves.
    const auto edges = analysis::GenerateSparseGraph(
        /*seed=*/23, /*num_vertices=*/250, /*num_edges=*/800,
        /*zipf_s=*/1.1);
    analysis::Workload w;
    w.name = "BoundedReach";
    w.program = std::make_unique<datalog::Program>();
    w.program->db().SetDefaultIndexKind(storage::IndexKind::kBtree);
    Dsl dsl(w.program.get());
    auto edge = dsl.Relation("Edge", 2);
    auto reach = dsl.Relation("Reach", 2);
    auto [x, y, z] = dsl.Vars<3>();
    reach(x, y) <<= edge(x, y);
    reach(x, z) <<= reach(x, y) & edge(y, z) & dsl.Ge(y, 20) & dsl.Lt(y, 200);
    w.output = reach.id();
    for (const auto& e : edges) {
      w.program->AddFact(edge.id(), {e.first, e.second});
    }
    return w;
  });
  EXPECT_GT(Total(quotes).range_probes, 0u);
}

}  // namespace
}  // namespace carac::backends
