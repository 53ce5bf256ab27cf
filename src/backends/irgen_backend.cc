#include "backends/irgen_backend.h"

#include <utility>

#include "util/status.h"

namespace carac::backends {

namespace {

/// Holds the reordered atom vectors per node id; Run() splices them into
/// the live tree and interprets it.
class IRGenUnit : public CompiledUnit {
 public:
  explicit IRGenUnit(AtomOrderMap orders) : orders_(std::move(orders)) {}

  void Run(ir::ExecContext& /*ctx*/, ir::Interpreter& interp,
           ir::IROp& original) override {
    ApplyAtomOrders(orders_, &original);
    interp.ExecuteNode(original);
  }

  std::string Describe() const override {
    return "irgen[" + std::to_string(orders_.size()) + " subqueries]";
  }

 private:
  AtomOrderMap orders_;
};

}  // namespace

util::Status IRGeneratorBackend::CompileOrdered(
    CompileRequest request, std::unique_ptr<CompiledUnit>* out) {
  *out = std::make_unique<IRGenUnit>(CollectAtomOrders(*request.subtree));
  return util::Status::Ok();
}

}  // namespace carac::backends
