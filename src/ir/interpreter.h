#ifndef CARAC_IR_INTERPRETER_H_
#define CARAC_IR_INTERPRETER_H_

#include "ir/exec_context.h"
#include "ir/irop.h"

namespace carac::ir {

class Interpreter;

/// Hook interface implemented by the JIT driver (src/core/jit.h). Every IR
/// node boundary is a safe point: the interpreter offers each node to the
/// controller, which may run compiled code instead, start an asynchronous
/// compilation, or rewrite the node (IRGenerator backend) before letting
/// interpretation proceed.
class JitController {
 public:
  virtual ~JitController() = default;

  /// Called when execution reaches `op`. Return true if the node was fully
  /// executed by compiled code (the interpreter then skips it).
  virtual bool MaybeRunCompiled(IROp& op, ExecContext& ctx,
                                Interpreter& interp) = 0;
};

/// Tree-walking evaluator over the IR — Carac's interpretation mode, and
/// the fallback the JIT returns to at safe points.
class Interpreter {
 public:
  explicit Interpreter(ExecContext* ctx, JitController* jit = nullptr)
      : ctx_(ctx), jit_(jit) {}
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Executes a subtree, offering each node to the JIT controller first.
  void Execute(IROp& op);

  /// Interprets `op` itself (children still go through Execute, so nested
  /// safe points remain active). Used by snippet-compiled continuations.
  void ExecuteNode(IROp& op);

  ExecContext& ctx() { return *ctx_; }

 private:
  ExecContext* ctx_;
  JitController* jit_;
};

/// Evaluates one SPJ or Aggregate node against the databases, with the
/// atom order exactly as it appears in `op.atoms`: index nested-loop join,
/// builtin filters/binders, negation membership tests, head projection and
/// insert-if-novel into the target's DeltaNew. Exposed as a free function
/// so compiled backends (lambda) can reuse it on reordered clones.
void RunSubquery(ExecContext& ctx, const IROp& op);

}  // namespace carac::ir

#endif  // CARAC_IR_INTERPRETER_H_
