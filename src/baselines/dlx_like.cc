#include "baselines/dlx_like.h"

#include <vector>

#include "ir/interpreter.h"
#include "ir/lowering.h"
#include "util/timer.h"

namespace carac::baselines {

DlxResult RunDlxLike(const harness::WorkloadFactory& factory,
                     double timeout_seconds) {
  DlxResult result;
  analysis::Workload workload = factory();
  workload.program->db().SetIndexingEnabled(true);

  ir::IRProgram irp;
  util::Status status = ir::LowerProgram(workload.program.get(),
                                         /*declare_indexes=*/true, &irp);
  if (!status.ok()) {
    result.ok = false;
    result.error = status.ToString();
    return result;
  }

  ir::ExecContext ctx(&workload.program->db());
  ir::Interpreter interp(&ctx);
  util::Timer timer;

  // Naive evaluation: per stratum, repeat the *initial* (all-Derived)
  // pass until no new facts appear, ignoring the semi-naive DoWhile the
  // lowering also produced. Every iteration rejoins the complete Derived
  // stores — the quadratic work semi-naive avoids.
  for (const auto& stratum_seq : irp.root->children) {
    std::vector<ir::IROp*> naive_passes;
    std::vector<datalog::PredicateId> relations;
    for (const auto& child : stratum_seq->children) {
      if (child->kind == ir::OpKind::kUnionAll) {
        naive_passes.push_back(child.get());
      } else if (child->kind == ir::OpKind::kSwapClear &&
                 relations.empty()) {
        relations = child->relations;
      }
    }
    for (;;) {
      if (timer.ElapsedSeconds() > timeout_seconds) {
        result.dnf = true;
        result.seconds = timer.ElapsedSeconds();
        return result;
      }
      for (ir::IROp* pass : naive_passes) interp.ExecuteNode(*pass);
      ctx.db().SwapClearMerge(relations);
      ctx.stats().iterations++;
      if (!ctx.db().AnyDeltaNonEmpty(relations)) break;
    }
  }

  result.seconds = timer.ElapsedSeconds();
  result.result_size =
      workload.program->db()
          .Get(workload.output, storage::DbKind::kDerived)
          .size();
  return result;
}

}  // namespace carac::baselines
