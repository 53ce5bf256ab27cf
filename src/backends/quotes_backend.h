#ifndef CARAC_BACKENDS_QUOTES_BACKEND_H_
#define CARAC_BACKENDS_QUOTES_BACKEND_H_

#include <string>

#include "backends/backend.h"
#include "backends/quotes_codegen.h"

namespace carac::backends {

/// The Quotes target (§V-C1) — the C++ analog of Scala quotes & splices:
/// the subtree is rendered to type-checked source code, a *real* optimizing
/// compiler is invoked at run time, and the resulting shared object is
/// dlopen'd and called through a C ABI. The most expressive and safest
/// target (the compiler verifies everything) but also the one with the
/// largest compilation overhead, exactly the trade-off Fig. 5 measures.
///
/// A process-wide cache keyed on the generated source maps repeat
/// compilations ("warm" compiler) to an existing shared object; cold
/// compilations pay the full compiler invocation.
///
/// Environment: CARAC_CXX overrides the compiler binary (default "c++");
/// CARAC_QUOTES_DIR overrides the scratch directory.
class QuotesBackend : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::kQuotes; }
  /// True if the previous Compile() was served from the source cache.
  bool last_was_cache_hit() const { return last_cache_hit_; }

 protected:
  util::Status CompileOrdered(CompileRequest request,
                              std::unique_ptr<CompiledUnit>* out) override;

 private:
  bool last_cache_hit_ = false;
};

/// Drops the process-wide source cache (tests and the Fig. 5 bench use
/// this to measure cold compilations repeatedly).
void ClearQuotesCache();

}  // namespace carac::backends

#endif  // CARAC_BACKENDS_QUOTES_BACKEND_H_
