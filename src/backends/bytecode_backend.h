#ifndef CARAC_BACKENDS_BYTECODE_BACKEND_H_
#define CARAC_BACKENDS_BYTECODE_BACKEND_H_

#include "backends/backend.h"
#include "backends/bytecode.h"

namespace carac::backends {

/// The bytecode target (§V-C2): compiles a (reordered) IR subtree into the
/// register-VM bytecode of bytecode.h. Generation is cheap (no external
/// compiler), the artifact is fast (statically planned access paths, no
/// per-row planning), but the generated program is unverified and cannot
/// hand control back to the interpreter mid-node (only at kCallNode
/// bail-outs), mirroring the JVM-bytecode trade-offs in the paper.
class BytecodeBackend : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::kBytecode; }

 protected:
  util::Status CompileOrdered(CompileRequest request,
                              std::unique_ptr<CompiledUnit>* out) override;
};

/// Compiles one subtree (already reordered) to bytecode. Exposed for tests
/// and for the Soufflé-like AOT baseline.
BytecodeProgram CompileToBytecode(const ir::IROp& op,
                                  const optimizer::StatsSnapshot& stats,
                                  CompileMode mode);

}  // namespace carac::backends

#endif  // CARAC_BACKENDS_BYTECODE_BACKEND_H_
