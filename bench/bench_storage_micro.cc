// google-benchmark micro-costs of the storage substrate: tuple inserts,
// index probes, swap-clear-merge, and the interpreter's SPJ kernel. These
// are the constants the macro results stand on.
//
// Every case pins an explicit Iterations() count (a fixed workload, sized
// from the adaptive iteration counts of the seed run) instead of letting
// google-benchmark time-target. With adaptive timing the binary's
// wall-clock is constant by construction — faster storage just runs more
// iterations — which makes the BENCH_*.json perf trajectory blind to
// storage wins. A fixed workload makes binary wall-clock comparable
// across commits; per-op Time/CPU columns are unaffected.

#include <benchmark/benchmark.h>

#include <functional>

#include "analysis/factgen.h"
#include "datalog/dsl.h"
#include "ir/interpreter.h"
#include "ir/lowering.h"
#include "storage/database.h"
#include "storage/emit_window.h"

namespace {

using namespace carac;

void BM_RelationInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    storage::Relation rel("R", 2);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      rel.Insert({i, i + 1});
    }
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationInsert)->Arg(1000)->Iterations(7000);
BENCHMARK(BM_RelationInsert)->Arg(10000)->Iterations(700);

void BM_RelationInsertIndexed(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    storage::Relation rel("R", 2);
    rel.DeclareIndex(0);
    rel.DeclareIndex(1);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      rel.Insert({i % 97, i});
    }
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationInsertIndexed)->Arg(1000)->Iterations(3000);
BENCHMARK(BM_RelationInsertIndexed)->Arg(10000)->Iterations(350);

void BM_IndexProbe(benchmark::State& state) {
  storage::Relation rel("R", 2);
  rel.DeclareIndex(0);
  for (int64_t i = 0; i < 10000; ++i) rel.Insert({i % 128, i});
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel.Probe(0, key).size());
    key = (key + 1) % 128;
  }
}
BENCHMARK(BM_IndexProbe)->Iterations(150000000);

void BM_Contains(benchmark::State& state) {
  storage::Relation rel("R", 2);
  for (int64_t i = 0; i < 10000; ++i) rel.Insert({i, i + 1});
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel.Contains({key, key + 1}));
    key = (key + 1) % 20000;  // Half hits, half misses.
  }
}
BENCHMARK(BM_Contains)->Iterations(18000000);

// Hit-heavy dedup past the caches: a 1M-row Derived store (16 MB of
// arena, 8 MB of slots) probed in a scattered order, 7 of 8 emissions
// hitting — the shape of a semi-naive SPJ's output, which BM_Contains's
// 10K-row table (L2-resident) cannot show. Each iteration emits 4096 head
// tuples and inserts the misses into a DeltaNew store, which is then
// cleared. BM_EmitTupleAtATimeLarge is the loop every emitter ran before
// the emit kernel; BM_EmitWindowLarge sends the same tuples through
// storage::EmitWindow.
constexpr int64_t kLargeRows = int64_t{1} << 20;
constexpr int64_t kLargeEmits = 4096;

struct LargeDedup {
  storage::Relation derived{"Derived", 2};
  storage::Relation delta_new{"DeltaNew", 2};
  int64_t next = 0;

  LargeDedup() {
    derived.Reserve(kLargeRows);
    for (int64_t i = 0; i < kLargeRows; ++i) derived.Insert({i, i ^ 0x5bd1});
  }

  /// The next emitted tuple: row ids in [0, kLargeRows * 8 / 7) visited
  /// in a scattered order; those past kLargeRows miss.
  storage::TupleView Next() {
    next = (next + 2654435761) % (kLargeRows + kLargeRows / 7);
    tuple[0] = next;
    tuple[1] = next ^ 0x5bd1;
    return storage::TupleView(tuple, 2);
  }
  storage::Value tuple[2] = {0, 0};
};

void BM_EmitTupleAtATimeLarge(benchmark::State& state) {
  LargeDedup d;
  for (auto _ : state) {
    for (int64_t i = 0; i < kLargeEmits; ++i) {
      const storage::TupleView t = d.Next();
      if (!d.derived.Contains(t)) d.delta_new.Insert(t);
    }
    benchmark::DoNotOptimize(d.delta_new.size());
    d.delta_new.Clear();
  }
  state.SetItemsProcessed(state.iterations() * kLargeEmits);
}
BENCHMARK(BM_EmitTupleAtATimeLarge)->Iterations(2000);

void BM_EmitWindowLarge(benchmark::State& state) {
  LargeDedup d;
  storage::EmitWindow window;
  for (auto _ : state) {
    window.Bind(&d.derived, &d.delta_new);
    for (int64_t i = 0; i < kLargeEmits; ++i) window.Emit(d.Next());
    benchmark::DoNotOptimize(window.Flush());
    d.delta_new.Clear();
  }
  state.SetItemsProcessed(state.iterations() * kLargeEmits);
}
BENCHMARK(BM_EmitWindowLarge)->Iterations(2000);

void BM_SwapClearMerge(benchmark::State& state) {
  storage::DatabaseSet db;
  const auto r = db.AddRelation("R", 2);
  for (auto _ : state) {
    state.PauseTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      db.Get(r, storage::DbKind::kDeltaNew).Insert({i, i});
    }
    state.ResumeTiming();
    db.SwapClearMerge({r});
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SwapClearMerge)->Arg(1000)->Iterations(20000);

void BM_InterpreterSpjKernel(benchmark::State& state) {
  datalog::Program program;
  datalog::Dsl dsl(&program);
  auto edge = dsl.Relation("Edge", 2);
  auto out = dsl.Relation("Out", 2);
  auto [x, y, z] = dsl.Vars<3>();
  out(x, z) <<= edge(x, y) & edge(y, z);
  const auto edges = analysis::GenerateSparseGraph(1, 500,
                                                   state.range(0));
  for (const auto& e : edges) edge.Fact(e.first, e.second);
  ir::IRProgram irp;
  CARAC_CHECK_OK(ir::LowerProgram(&program, true, &irp));

  // Find the naive SPJ node.
  ir::IROp* spj = nullptr;
  std::function<void(ir::IROp*)> find = [&](ir::IROp* op) {
    if (op->kind == ir::OpKind::kSpj) spj = op;
    for (auto& c : op->children) find(c.get());
  };
  find(irp.root.get());

  ir::ExecContext ctx(&program.db());
  for (auto _ : state) {
    program.db().Get(out.id(), storage::DbKind::kDeltaNew).Clear();
    ir::RunSubquery(ctx, *spj);
  }
}
BENCHMARK(BM_InterpreterSpjKernel)->Arg(1000)->Iterations(5000);
BENCHMARK(BM_InterpreterSpjKernel)->Arg(4000)->Iterations(250);

}  // namespace

// BENCHMARK_MAIN, except that an unrecognized flag exits 2 like every
// other bench rather than 1.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
