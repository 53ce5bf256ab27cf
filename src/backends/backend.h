#ifndef CARAC_BACKENDS_BACKEND_H_
#define CARAC_BACKENDS_BACKEND_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/interpreter.h"
#include "ir/irop.h"
#include "optimizer/join_order.h"
#include "optimizer/statistics.h"
#include "util/status.h"

namespace carac::backends {

/// The four compilation targets of §V-C, ordered from most expressive /
/// highest overhead to most limited / lowest overhead.
enum class BackendKind : uint8_t {
  kQuotes,       // Runtime C++ source generation + real compiler + dlopen.
  kBytecode,     // Custom register-VM bytecode, generated in-process.
  kLambda,       // Composition of precompiled std::function combinators.
  kIRGenerator,  // IR rewriting only; execution stays in the interpreter.
};

const char* BackendKindName(BackendKind kind);

/// Full-subtree vs snippet compilation (§V-B3): full compiles the node and
/// its entire subtree into one unit; snippet compiles only the node's own
/// body and splices interpreter continuations for the children, keeping
/// every child boundary a live safe point.
enum class CompileMode : uint8_t { kFull, kSnippet };

/// Everything a backend needs to produce a unit. The subtree and the
/// statistics are snapshots owned by the request, so compilation can run
/// on a separate thread while evaluation continues (§V-B2 async mode).
struct CompileRequest {
  std::unique_ptr<ir::IROp> subtree;  // Clone of the node being compiled.
  optimizer::StatsSnapshot stats;     // Captured at enqueue time.
  optimizer::JoinOrderConfig join_config;
  CompileMode mode = CompileMode::kFull;
  bool reorder = true;  // Apply the §IV join ordering while compiling.
};

/// A compiled artifact. Run() executes the semantics of the subtree the
/// unit was compiled from; `original` is the live IR node (used by snippet
/// units to locate children for interpreter continuations).
class CompiledUnit {
 public:
  virtual ~CompiledUnit() = default;
  virtual void Run(ir::ExecContext& ctx, ir::Interpreter& interp,
                   ir::IROp& original) = 0;
  /// Diagnostic label ("lambda", "bytecode[17 insns]", ...).
  virtual std::string Describe() const = 0;

  /// Subqueries whose atom order the §IV join ordering changed while
  /// this unit was compiled (0 when the request did not reorder).
  int reorders() const { return reorders_; }

 private:
  friend class Backend;
  int reorders_ = 0;
};

/// A compilation target.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual BackendKind kind() const = 0;
  /// Compiles the request into a unit: applies the §IV join ordering to
  /// the subtree when `request.reorder` is set, recording the number of
  /// reordered subqueries on the unit, then hands the ordered subtree to
  /// the target. May be called from a compiler thread; must not touch
  /// live databases (only the request's snapshot).
  util::Status Compile(CompileRequest request,
                       std::unique_ptr<CompiledUnit>* out);

 protected:
  /// The target-specific part of Compile(): `request.subtree` is already
  /// in its final atom order.
  virtual util::Status CompileOrdered(CompileRequest request,
                                      std::unique_ptr<CompiledUnit>* out) = 0;
};

/// Factory. Quotes accepts optional overrides via environment variables
/// (CARAC_CXX for the compiler binary, CARAC_QUOTES_DIR for scratch space).
std::unique_ptr<Backend> MakeBackend(BackendKind kind);

/// node_id -> atom order of every subquery in a subtree. Units that keep
/// executing (parts of) the live tree use these to transplant the orders
/// chosen at compile time onto it.
using AtomOrderMap =
    std::unordered_map<uint32_t, std::vector<ir::AtomSpec>>;
AtomOrderMap CollectAtomOrders(const ir::IROp& op);
void ApplyAtomOrders(const AtomOrderMap& orders, ir::IROp* op);

}  // namespace carac::backends

#endif  // CARAC_BACKENDS_BACKEND_H_
