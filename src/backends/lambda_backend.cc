#include "backends/lambda_backend.h"

#include <functional>
#include <utility>
#include <vector>

#include "util/status.h"

namespace carac::backends {

namespace {

/// The combinator signature. Full-mode thunks ignore `original`; snippet
/// thunks use it to hand children back to the interpreter (the spliced
/// continuation of §V-B3).
using Thunk =
    std::function<void(ir::ExecContext&, ir::Interpreter&, ir::IROp&)>;

Thunk CompileFull(const ir::IROp* op) {
  switch (op->kind) {
    case ir::OpKind::kProgram:
    case ir::OpKind::kSequence:
    case ir::OpKind::kUnionAll:
    case ir::OpKind::kUnion: {
      std::vector<Thunk> children;
      children.reserve(op->children.size());
      for (const auto& child : op->children) {
        children.push_back(CompileFull(child.get()));
      }
      return [children = std::move(children)](ir::ExecContext& ctx,
                                              ir::Interpreter& interp,
                                              ir::IROp& original) {
        for (const Thunk& t : children) t(ctx, interp, original);
      };
    }
    case ir::OpKind::kDoWhile: {
      Thunk body = CompileFull(op->children[0].get());
      const std::vector<datalog::PredicateId> rels = op->relations;
      return [body = std::move(body), rels](ir::ExecContext& ctx,
                                            ir::Interpreter& interp,
                                            ir::IROp& original) {
        do {
          ctx.stats().iterations++;
          body(ctx, interp, original);
        } while (ctx.db().AnyDeltaNonEmpty(rels));
      };
    }
    case ir::OpKind::kSwapClear: {
      const std::vector<datalog::PredicateId> rels = op->relations;
      return [rels](ir::ExecContext& ctx, ir::Interpreter&, ir::IROp&) {
        ctx.db().SwapClearMerge(rels);
      };
    }
    case ir::OpKind::kSpj:
    case ir::OpKind::kAggregate:
      // The subtree clone outlives the thunk (owned by the unit), so the
      // raw pointer capture is safe.
      return [op](ir::ExecContext& ctx, ir::Interpreter&, ir::IROp&) {
        ir::RunSubquery(ctx, *op);
      };
  }
  return Thunk();  // Unreachable.
}

/// Snippet mode: the node's own control flow is compiled; children are
/// continuations back into the interpreter over the *live* tree, so every
/// child boundary stays a safe point.
Thunk CompileSnippet(const ir::IROp* op) {
  switch (op->kind) {
    case ir::OpKind::kProgram:
    case ir::OpKind::kSequence:
    case ir::OpKind::kUnionAll:
    case ir::OpKind::kUnion:
      return [](ir::ExecContext&, ir::Interpreter& interp,
                ir::IROp& original) {
        for (auto& child : original.children) interp.Execute(*child);
      };
    case ir::OpKind::kDoWhile: {
      const std::vector<datalog::PredicateId> rels = op->relations;
      return [rels](ir::ExecContext& ctx, ir::Interpreter& interp,
                    ir::IROp& original) {
        do {
          ctx.stats().iterations++;
          for (auto& child : original.children) interp.Execute(*child);
        } while (ctx.db().AnyDeltaNonEmpty(rels));
      };
    }
    case ir::OpKind::kSwapClear:
    case ir::OpKind::kSpj:
    case ir::OpKind::kAggregate:
      // Leaves: snippet == full.
      return CompileFull(op);
  }
  return Thunk();  // Unreachable.
}

class LambdaUnit : public CompiledUnit {
 public:
  LambdaUnit(std::unique_ptr<ir::IROp> tree, Thunk thunk, size_t node_count,
             AtomOrderMap snippet_orders)
      : tree_(std::move(tree)), thunk_(std::move(thunk)),
        node_count_(node_count), snippet_orders_(std::move(snippet_orders)) {}

  void Run(ir::ExecContext& ctx, ir::Interpreter& interp,
           ir::IROp& original) override {
    // Snippet mode executes (parts of) the live tree via interpreter
    // continuations, so the orders chosen at compile time must be
    // transplanted onto it first.
    if (!snippet_orders_.empty()) ApplyAtomOrders(snippet_orders_, &original);
    thunk_(ctx, interp, original);
  }

  std::string Describe() const override {
    return "lambda[" + std::to_string(node_count_) + " combinators]";
  }

 private:
  std::unique_ptr<ir::IROp> tree_;
  Thunk thunk_;
  size_t node_count_;
  AtomOrderMap snippet_orders_;
};

size_t CountNodes(const ir::IROp& op) {
  size_t n = 1;
  for (const auto& child : op.children) n += CountNodes(*child);
  return n;
}

}  // namespace

util::Status LambdaBackend::CompileOrdered(
    CompileRequest request, std::unique_ptr<CompiledUnit>* out) {
  ir::IROp* tree = request.subtree.get();
  const bool snippet = request.mode == CompileMode::kSnippet;
  Thunk thunk = snippet ? CompileSnippet(tree) : CompileFull(tree);
  AtomOrderMap snippet_orders;
  if (snippet && request.reorder) snippet_orders = CollectAtomOrders(*tree);
  *out = std::make_unique<LambdaUnit>(std::move(request.subtree),
                                      std::move(thunk), CountNodes(*tree),
                                      std::move(snippet_orders));
  return util::Status::Ok();
}

}  // namespace carac::backends
