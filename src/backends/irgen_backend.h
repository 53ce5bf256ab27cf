#ifndef CARAC_BACKENDS_IRGEN_BACKEND_H_
#define CARAC_BACKENDS_IRGEN_BACKEND_H_

#include "backends/backend.h"

namespace carac::backends {

/// The IRGenerator target (§V-C4): "compilation" regenerates the IR — it
/// computes fresh join orders from the snapshot and the resulting unit
/// rewrites the live IR subtree in place before handing it back to the
/// interpreter. The cheapest target: no code is generated, so overhead is
/// just the sorting of subqueries.
class IRGeneratorBackend : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::kIRGenerator; }

 protected:
  util::Status CompileOrdered(CompileRequest request,
                              std::unique_ptr<CompiledUnit>* out) override;
};

}  // namespace carac::backends

#endif  // CARAC_BACKENDS_IRGEN_BACKEND_H_
