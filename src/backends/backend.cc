#include "backends/backend.h"

#include <functional>
#include <utility>

#include "backends/bytecode_backend.h"
#include "backends/irgen_backend.h"
#include "backends/lambda_backend.h"
#include "backends/quotes_backend.h"

namespace carac::backends {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kQuotes:
      return "quotes";
    case BackendKind::kBytecode:
      return "bytecode";
    case BackendKind::kLambda:
      return "lambda";
    case BackendKind::kIRGenerator:
      return "irgen";
  }
  return "?";
}

util::Status Backend::Compile(CompileRequest request,
                              std::unique_ptr<CompiledUnit>* out) {
  CARAC_CHECK(request.subtree != nullptr);
  int reorders = 0;
  if (request.reorder) {
    reorders = optimizer::ReorderSubtree(request.stats, request.join_config,
                                         request.subtree.get());
  }
  CARAC_RETURN_IF_ERROR(CompileOrdered(std::move(request), out));
  (*out)->reorders_ = reorders;
  return util::Status::Ok();
}

std::unique_ptr<Backend> MakeBackend(BackendKind kind) {
  switch (kind) {
    case BackendKind::kQuotes:
      return std::make_unique<QuotesBackend>();
    case BackendKind::kBytecode:
      return std::make_unique<BytecodeBackend>();
    case BackendKind::kLambda:
      return std::make_unique<LambdaBackend>();
    case BackendKind::kIRGenerator:
      return std::make_unique<IRGeneratorBackend>();
  }
  return nullptr;
}

AtomOrderMap CollectAtomOrders(const ir::IROp& op) {
  AtomOrderMap orders;
  std::function<void(const ir::IROp&)> visit = [&](const ir::IROp& node) {
    if (node.kind == ir::OpKind::kSpj ||
        node.kind == ir::OpKind::kAggregate) {
      orders[node.node_id] = node.atoms;
    }
    for (const auto& child : node.children) visit(*child);
  };
  visit(op);
  return orders;
}

void ApplyAtomOrders(const AtomOrderMap& orders, ir::IROp* op) {
  auto it = orders.find(op->node_id);
  if (it != orders.end()) op->atoms = it->second;
  for (auto& child : op->children) ApplyAtomOrders(orders, child.get());
}

}  // namespace carac::backends
