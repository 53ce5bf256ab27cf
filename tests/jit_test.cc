#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/programs.h"
#include "core/compile_manager.h"
#include "core/engine.h"
#include "core/jit.h"
#include "datalog/dsl.h"
#include "ir/lowering.h"

namespace carac::core {
namespace {

using datalog::Dsl;
using datalog::Program;

datalog::PredicateId BuildTc(Dsl* dsl, int chain) {
  auto edge = dsl->Relation("Edge", 2);
  auto path = dsl->Relation("Path", 2);
  auto x = dsl->Var();
  auto y = dsl->Var();
  auto z = dsl->Var();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);
  for (int i = 0; i < chain; ++i) edge.Fact(i, i + 1);
  return path.id();
}

size_t Closure(int chain) {
  return static_cast<size_t>(chain) * (chain + 1) / 2;
}

EngineConfig JitConfigFor(backends::BackendKind backend, Granularity g,
                          bool async = false,
                          backends::CompileMode mode =
                              backends::CompileMode::kFull) {
  EngineConfig config;
  config.mode = EvalMode::kJit;
  config.jit.backend = backend;
  config.jit.granularity = g;
  config.jit.async = async;
  config.jit.mode = mode;
  return config;
}

TEST(JitTest, LambdaBlockingEveryGranularity) {
  for (Granularity g :
       {Granularity::kProgram, Granularity::kDoWhile, Granularity::kUnionAll,
        Granularity::kUnion, Granularity::kSpj}) {
    Program p;
    Dsl dsl(&p);
    auto path = BuildTc(&dsl, 12);
    Engine engine(&p, JitConfigFor(backends::BackendKind::kLambda, g));
    ASSERT_TRUE(engine.Prepare().ok());
    ASSERT_TRUE(engine.Run().ok()) << GranularityName(g);
    EXPECT_EQ(engine.ResultSize(path), Closure(12)) << GranularityName(g);
    EXPECT_GT(engine.stats().compilations, 0u) << GranularityName(g);
    EXPECT_GT(engine.stats().compiled_invocations, 0u) << GranularityName(g);
  }
}

TEST(JitTest, BytecodeBlockingEveryGranularity) {
  for (Granularity g :
       {Granularity::kProgram, Granularity::kDoWhile, Granularity::kUnionAll,
        Granularity::kUnion, Granularity::kSpj}) {
    Program p;
    Dsl dsl(&p);
    auto path = BuildTc(&dsl, 12);
    Engine engine(&p, JitConfigFor(backends::BackendKind::kBytecode, g));
    ASSERT_TRUE(engine.Prepare().ok());
    ASSERT_TRUE(engine.Run().ok()) << GranularityName(g);
    EXPECT_EQ(engine.ResultSize(path), Closure(12)) << GranularityName(g);
  }
}

TEST(JitTest, IRGeneratorMatchesInterpreter) {
  Program p;
  Dsl dsl(&p);
  auto path = BuildTc(&dsl, 15);
  Engine engine(&p, JitConfigFor(backends::BackendKind::kIRGenerator,
                                 Granularity::kUnionAll));
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.ResultSize(path), Closure(15));
}

TEST(JitTest, AsyncLambdaProducesSameResults) {
  Program p;
  Dsl dsl(&p);
  auto path = BuildTc(&dsl, 30);
  Engine engine(&p, JitConfigFor(backends::BackendKind::kLambda,
                                 Granularity::kUnion, /*async=*/true));
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.ResultSize(path), Closure(30));
}

TEST(JitTest, AsyncBytecodeProducesSameResults) {
  Program p;
  Dsl dsl(&p);
  auto path = BuildTc(&dsl, 30);
  Engine engine(&p, JitConfigFor(backends::BackendKind::kBytecode,
                                 Granularity::kUnionAll, /*async=*/true));
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.ResultSize(path), Closure(30));
}

TEST(JitTest, SnippetModeProducesSameResults) {
  Program p;
  Dsl dsl(&p);
  auto path = BuildTc(&dsl, 20);
  Engine engine(&p, JitConfigFor(backends::BackendKind::kLambda,
                                 Granularity::kUnionAll, /*async=*/false,
                                 backends::CompileMode::kSnippet));
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.ResultSize(path), Closure(20));
}

TEST(JitTest, FreshnessSkipsRecompilation) {
  Program p;
  Dsl dsl(&p);
  BuildTc(&dsl, 40);
  EngineConfig config =
      JitConfigFor(backends::BackendKind::kLambda, Granularity::kUnion);
  config.jit.freshness_threshold = 1.0;  // Everything is always fresh.
  Engine engine(&p, config);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_GT(engine.stats().freshness_skips, 0u);
  // With a 1.0 threshold each node compiles exactly once.
  EXPECT_LE(engine.stats().compilations, 3u);
}

TEST(JitTest, ZeroThresholdRecompilesOnEveryShift) {
  Program p;
  Dsl dsl(&p);
  auto path = BuildTc(&dsl, 40);
  EngineConfig config =
      JitConfigFor(backends::BackendKind::kLambda, Granularity::kUnion);
  config.jit.freshness_threshold = 0.0;
  Engine engine(&p, config);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  // Deltas change every iteration, so recompilations pile up.
  EXPECT_GT(engine.stats().compilations, 3u);
  EXPECT_EQ(engine.ResultSize(path), Closure(40));
}

TEST(CompileManagerTest, SyncCompileStoresUnit) {
  auto backend = backends::MakeBackend(backends::BackendKind::kLambda);
  CompileManager manager(backend.get());

  Program p;
  Dsl dsl(&p);
  BuildTc(&dsl, 5);
  ir::IRProgram irp;
  ASSERT_TRUE(ir::LowerProgram(&p, true, &irp).ok());

  backends::CompileRequest request;
  request.subtree = irp.root->Clone();
  request.stats = optimizer::StatsSnapshot::Capture(p.db());
  ASSERT_TRUE(manager.CompileSync(1, std::move(request)).ok());
  EXPECT_NE(manager.GetReady(1), nullptr);
  EXPECT_EQ(manager.GetReady(2), nullptr);
  manager.Invalidate(1);
  EXPECT_EQ(manager.GetReady(1), nullptr);
}

TEST(CompileManagerTest, AsyncCompileCompletes) {
  auto backend = backends::MakeBackend(backends::BackendKind::kLambda);
  CompileManager manager(backend.get());

  Program p;
  Dsl dsl(&p);
  BuildTc(&dsl, 5);
  ir::IRProgram irp;
  ASSERT_TRUE(ir::LowerProgram(&p, true, &irp).ok());

  backends::CompileRequest request;
  request.subtree = irp.root->Clone();
  request.stats = optimizer::StatsSnapshot::Capture(p.db());
  manager.CompileAsync(7, std::move(request));
  manager.WaitIdle();
  EXPECT_NE(manager.GetReady(7), nullptr);
  EXPECT_FALSE(manager.IsPending(7));
  EXPECT_TRUE(manager.first_error().ok());
  EXPECT_EQ(manager.compiles_completed(), 1u);
}

TEST(JitTest, DeoptimizeRevertsToInterpretation) {
  Program p;
  Dsl dsl(&p);
  auto path = BuildTc(&dsl, 10);
  EngineConfig config =
      JitConfigFor(backends::BackendKind::kLambda, Granularity::kProgram);
  Engine engine(&p, config);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_NE(engine.jit(), nullptr);
  const uint32_t root_id = engine.ir().root->node_id;
  EXPECT_NE(engine.jit()->manager().GetReady(root_id), nullptr);
  engine.jit()->Deoptimize(root_id);
  EXPECT_EQ(engine.jit()->manager().GetReady(root_id), nullptr);
  EXPECT_EQ(engine.ResultSize(path), Closure(10));
}

/// SPJ/Aggregate nodes under `op`: the most subqueries one compile of
/// `op` can reorder.
size_t CountSubqueries(const ir::IROp& op) {
  size_t n = op.kind == ir::OpKind::kSpj || op.kind == ir::OpKind::kAggregate;
  for (const auto& child : op.children) n += CountSubqueries(*child);
  return n;
}

TEST(JitTest, ReordersCountedUnderEveryBackend) {
  // Unoptimized CSPA is the case the runtime reordering exists for: every
  // backend's compile path must apply it and report it.
  for (backends::BackendKind backend :
       {backends::BackendKind::kLambda, backends::BackendKind::kBytecode,
        backends::BackendKind::kIRGenerator}) {
    analysis::CspaConfig cspa;
    cspa.total_tuples = 150;
    analysis::Workload w =
        analysis::MakeCspa(cspa, analysis::RuleOrder::kUnoptimized);
    Engine engine(w.program.get(), JitConfigFor(backend, Granularity::kUnion));
    ASSERT_TRUE(engine.Prepare().ok());
    ASSERT_TRUE(engine.Run().ok());
    EXPECT_GT(engine.stats().reorders, 0u)
        << backends::BackendKindName(backend);
  }
}

TEST(JitTest, RerunningAFreshUnitDoesNotRecountReorders) {
  analysis::CspaConfig cspa;
  cspa.total_tuples = 150;
  analysis::Workload w =
      analysis::MakeCspa(cspa, analysis::RuleOrder::kUnoptimized);
  EngineConfig config =
      JitConfigFor(backends::BackendKind::kIRGenerator, Granularity::kUnion);
  config.jit.freshness_threshold = 1.0;  // Each node compiles once.
  Engine engine(w.program.get(), config);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  // Units re-ran across iterations, but each subquery was reordered by
  // at most one compile.
  EXPECT_GT(engine.stats().freshness_skips, 0u);
  EXPECT_GT(engine.stats().reorders, 0u);
  EXPECT_LE(engine.stats().reorders, CountSubqueries(*engine.ir().root));
}

TEST(CompileManagerTest, ReordersTakenOncePerCompletedCompile) {
  auto backend = backends::MakeBackend(backends::BackendKind::kIRGenerator);
  CompileManager manager(backend.get());
  analysis::CspaConfig cspa;
  cspa.total_tuples = 150;
  analysis::Workload w =
      analysis::MakeCspa(cspa, analysis::RuleOrder::kUnoptimized);
  ir::IRProgram irp;
  ASSERT_TRUE(ir::LowerProgram(w.program.get(), true, &irp).ok());

  backends::CompileRequest request;
  request.subtree = irp.root->Clone();
  request.stats = optimizer::StatsSnapshot::Capture(w.program->db());
  ASSERT_TRUE(manager.CompileSync(1, std::move(request)).ok());
  const int unit_reorders = manager.GetReady(1)->reorders();
  EXPECT_GT(unit_reorders, 0);
  EXPECT_EQ(manager.TakeReorders(), static_cast<uint64_t>(unit_reorders));
  EXPECT_EQ(manager.TakeReorders(), 0u);
}

bool CompilerAvailable() {
  const char* cxx = std::getenv("CARAC_CXX");
  const std::string probe = std::string(cxx != nullptr ? cxx : "c++") +
                            " --version > /dev/null 2>&1";
  return std::system(probe.c_str()) == 0;
}

// Every backend evaluates the same fixpoint, so the evaluation counters —
// iterations, SPJ executions, tuples considered and inserted — must equal
// the interpreter's under each of them: a backend that skipped a counter
// (bytecode and quotes once never counted SPJ executions) shows here. The
// three compiling backends also share the JIT's schedule (the IR
// generator rewrites the live tree instead), so they must agree on every
// ExecStats field.
void CheckStatsParity(const char* name, analysis::Workload (*make)()) {
  analysis::Workload reference_workload = make();
  Engine reference(reference_workload.program.get(), EngineConfig{});
  ASSERT_TRUE(reference.Prepare().ok());
  ASSERT_TRUE(reference.Run().ok());
  const ir::ExecStats& want = reference.stats();
  EXPECT_GT(want.spj_executions, 0u) << name;

  std::string first;
  for (backends::BackendKind backend :
       {backends::BackendKind::kIRGenerator, backends::BackendKind::kLambda,
        backends::BackendKind::kBytecode, backends::BackendKind::kQuotes}) {
    if (backend == backends::BackendKind::kQuotes && !CompilerAvailable()) {
      continue;
    }
    analysis::Workload w = make();
    Engine engine(w.program.get(), JitConfigFor(backend, Granularity::kUnion));
    ASSERT_TRUE(engine.Prepare().ok());
    ASSERT_TRUE(engine.Run().ok());
    const ir::ExecStats& got = engine.stats();
    const char* kind = backends::BackendKindName(backend);
    EXPECT_EQ(got.iterations, want.iterations) << name << " " << kind;
    EXPECT_EQ(got.spj_executions, want.spj_executions) << name << " " << kind;
    EXPECT_EQ(got.tuples_inserted, want.tuples_inserted) << name << " " << kind;
    EXPECT_EQ(got.tuples_considered, want.tuples_considered)
        << name << " " << kind;
    if (backend == backends::BackendKind::kIRGenerator) continue;
    if (first.empty()) {
      first = got.ToString();
    } else {
      EXPECT_EQ(got.ToString(), first) << name << " " << kind;
    }
  }
}

TEST(JitTest, ExecStatsAgreeAcrossBackendsOnAndersen) {
  CheckStatsParity("andersen", [] {
    analysis::SListConfig config;
    config.scale = 2;
    return analysis::MakeAndersen(config, analysis::RuleOrder::kHandOptimized);
  });
}

TEST(JitTest, ExecStatsAgreeAcrossBackendsOnCspa) {
  CheckStatsParity("cspa", [] {
    analysis::CspaConfig config;
    config.total_tuples = 150;
    return analysis::MakeCspa(config, analysis::RuleOrder::kUnoptimized);
  });
}

TEST(JitTest, GranularityNames) {
  EXPECT_STREQ(GranularityName(Granularity::kProgram), "program");
  EXPECT_STREQ(GranularityName(Granularity::kSpj), "spj");
}

}  // namespace
}  // namespace carac::core
