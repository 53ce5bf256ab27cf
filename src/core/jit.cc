#include "core/jit.h"

#include <utility>

namespace carac::core {

const char* GranularityName(Granularity g) {
  switch (g) {
    case Granularity::kProgram:
      return "program";
    case Granularity::kDoWhile:
      return "dowhile";
    case Granularity::kUnionAll:
      return "unionall";
    case Granularity::kUnion:
      return "union";
    case Granularity::kSpj:
      return "spj";
  }
  return "?";
}

Jit::Jit(const JitConfig& config)
    : config_(config), backend_(backends::MakeBackend(config.backend)),
      manager_(std::make_unique<CompileManager>(backend_.get())),
      freshness_(config.freshness_threshold) {}

bool Jit::AtGranularity(const ir::IROp& op) const {
  switch (op.kind) {
    case ir::OpKind::kProgram:
      return config_.granularity == Granularity::kProgram;
    case ir::OpKind::kDoWhile:
      return config_.granularity == Granularity::kDoWhile;
    case ir::OpKind::kUnionAll:
      return config_.granularity == Granularity::kUnionAll;
    case ir::OpKind::kUnion:
      return config_.granularity == Granularity::kUnion;
    case ir::OpKind::kSpj:
    case ir::OpKind::kAggregate:
      return config_.granularity == Granularity::kSpj;
    case ir::OpKind::kSequence:
    case ir::OpKind::kSwapClear:
      return false;
  }
  return false;
}

backends::CompileRequest Jit::MakeRequest(const ir::IROp& op,
                                          const ir::ExecContext& ctx) const {
  backends::CompileRequest request;
  request.subtree = op.Clone();
  request.stats = optimizer::StatsSnapshot::Capture(ctx.db());
  request.join_config = config_.join_config;
  request.mode = config_.mode;
  request.reorder = config_.reorder;
  return request;
}

bool Jit::MaybeRunCompiled(ir::IROp& op, ir::ExecContext& ctx,
                           ir::Interpreter& interp) {
  if (!AtGranularity(op)) return false;

  backends::CompiledUnit* unit = manager_->GetReady(op.node_id);
  if (unit != nullptr) {
    // Revisit: recompile only when the freshness test fails (§V-B2).
    const optimizer::StatsSnapshot now =
        optimizer::StatsSnapshot::Capture(ctx.db());
    if (freshness_.IsFresh(op.node_id, op, now)) {
      ctx.stats().freshness_skips++;
    } else if (!manager_->IsPending(op.node_id)) {
      ctx.stats().compilations++;
      backends::CompileRequest request = MakeRequest(op, ctx);
      freshness_.Record(op.node_id, op, request.stats);
      if (config_.async) {
        // Kick off the recompile and run the stale (still correct) unit.
        manager_->CompileAsync(op.node_id, std::move(request));
      } else {
        manager_->Invalidate(op.node_id);
        manager_->CompileSync(op.node_id, std::move(request));
        unit = manager_->GetReady(op.node_id);
        if (unit == nullptr) return false;  // Compile failed: interpret.
      }
    }
    RunUnit(unit, op, ctx, interp);
    return true;
  }

  if (manager_->IsPending(op.node_id)) {
    // Still compiling on the other thread: keep interpreting (§V-B2 —
    // the interpreter continues making progress).
    return false;
  }

  ctx.stats().compilations++;
  backends::CompileRequest request = MakeRequest(op, ctx);
  freshness_.Record(op.node_id, op, request.stats);
  if (config_.async) {
    manager_->CompileAsync(op.node_id, std::move(request));
    return false;  // Interpret this visit; switch once ready.
  }
  if (!manager_->CompileSync(op.node_id, std::move(request)).ok()) {
    return false;  // Compile failed (e.g. no compiler): interpret.
  }
  unit = manager_->GetReady(op.node_id);
  if (unit == nullptr) return false;
  RunUnit(unit, op, ctx, interp);
  return true;
}

void Jit::RunUnit(backends::CompiledUnit* unit, ir::IROp& op,
                  ir::ExecContext& ctx, ir::Interpreter& interp) {
  // Every compile that completed since the last compiled run — blocking
  // or on the compiler thread — is counted here, once.
  ctx.stats().reorders += manager_->TakeReorders();
  ctx.stats().compiled_invocations++;
  unit->Run(ctx, interp, op);
}

void Jit::Deoptimize(uint32_t node_id) {
  manager_->Invalidate(node_id);
  freshness_.Forget(node_id);
}

}  // namespace carac::core
