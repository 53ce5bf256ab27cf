#ifndef CARAC_BACKENDS_LAMBDA_BACKEND_H_
#define CARAC_BACKENDS_LAMBDA_BACKEND_H_

#include "backends/backend.h"

namespace carac::backends {

/// The Lambda target (§V-C3): stitches precompiled higher-order functions
/// (closures over the reordered subtree) into an executable tree at run
/// time. No arbitrary code generation — only the predefined combinators —
/// but also no compiler invocation, and no per-node dispatch once built.
class LambdaBackend : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::kLambda; }

 protected:
  util::Status CompileOrdered(CompileRequest request,
                              std::unique_ptr<CompiledUnit>* out) override;
};

}  // namespace carac::backends

#endif  // CARAC_BACKENDS_LAMBDA_BACKEND_H_
