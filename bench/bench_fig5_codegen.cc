// Reproduces Fig. 5: code-generation time of the quotes backend by
// compilation granularity (ProgramOp ... Select-Project-Join), for Full
// vs Snippet compilation and warm vs cold compiler.
//
// Cold = the generated source is new (full external compiler invocation);
// warm = the process-wide source cache already holds the artifact (the
// analog of an already-warm JIT compiler).

#include <cstdio>

#include "backends/quotes_backend.h"
#include "bench_common.h"
#include "harness/table.h"
#include "ir/lowering.h"
#include "util/timer.h"

namespace {

using namespace carac;

/// First node of the requested kind (depth-first).
ir::IROp* FindNode(ir::IROp* op, ir::OpKind kind) {
  if (op->kind == kind) return op;
  for (auto& child : op->children) {
    if (ir::IROp* found = FindNode(child.get(), kind)) return found;
  }
  return nullptr;
}

double CompileMs(backends::QuotesBackend* backend, const ir::IROp& node,
                 const optimizer::StatsSnapshot& stats,
                 backends::CompileMode mode) {
  backends::CompileRequest request;
  request.subtree = node.Clone();
  request.stats = stats;
  request.mode = mode;
  util::Timer timer;
  std::unique_ptr<backends::CompiledUnit> unit;
  CARAC_CHECK_OK(backend->Compile(std::move(request), &unit));
  return timer.ElapsedMillis();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseFlags(argc, argv);
  const bench::Sizes sizes = bench::Sizes::Get();
  auto factory = bench::Factory("CSPA", analysis::RuleOrder::kHandOptimized,
                                sizes);
  analysis::Workload workload = factory();
  workload.program->db().SetIndexingEnabled(true);
  ir::IRProgram irp;
  CARAC_CHECK_OK(ir::LowerProgram(workload.program.get(), true, &irp));
  const optimizer::StatsSnapshot stats =
      optimizer::StatsSnapshot::Capture(workload.program->db());

  std::printf("Fig. 5: quotes code-generation time (ms) by granularity "
              "(CSPA program)\n\n");

  const struct {
    const char* label;
    ir::OpKind kind;
  } levels[] = {
      {"ProgramOp", ir::OpKind::kProgram},
      {"DoWhileOp", ir::OpKind::kDoWhile},
      {"UnionOp*", ir::OpKind::kUnionAll},
      {"UnionOp", ir::OpKind::kUnion},
      {"SPJ", ir::OpKind::kSpj},
      {"SwapClearOp", ir::OpKind::kSwapClear},
  };

  backends::QuotesBackend backend;
  for (auto mode : {backends::CompileMode::kFull,
                    backends::CompileMode::kSnippet}) {
    const bool full = mode == backends::CompileMode::kFull;
    harness::TablePrinter table(
        {full ? "granularity (Full)" : "granularity (Snippet)",
         "cold (ms)", "warm (ms)"});
    for (const auto& level : levels) {
      ir::IROp* node = FindNode(irp.root.get(), level.kind);
      if (node == nullptr) continue;
      backends::ClearQuotesCache();
      const double cold = CompileMs(&backend, *node, stats, mode);
      const double warm = CompileMs(&backend, *node, stats, mode);
      char cold_s[32], warm_s[32];
      std::snprintf(cold_s, sizeof(cold_s), "%.2f", cold);
      std::snprintf(warm_s, sizeof(warm_s), "%.3f", warm);
      table.AddRow({level.label, cold_s, warm_s});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("Cold pays the external compiler; warm is a cache hit, as "
              "with a warmed-up JIT.\n");
  return 0;
}
