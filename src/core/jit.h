#ifndef CARAC_CORE_JIT_H_
#define CARAC_CORE_JIT_H_

#include <memory>

#include "backends/backend.h"
#include "core/compile_manager.h"
#include "ir/interpreter.h"
#include "optimizer/freshness.h"
#include "optimizer/join_order.h"

namespace carac::core {

/// Compilation granularity (§V-B2): at which level of the IR tree the JIT
/// compiles and re-optimizes. Higher levels compile rarely over large
/// subtrees with staler statistics; lower levels compile often over small
/// subtrees with the freshest statistics.
enum class Granularity : uint8_t {
  kProgram,   // Once per program.
  kDoWhile,   // Once per stratum loop.
  kUnionAll,  // Per relation, per iteration ("UnionOp*").
  kUnion,     // Per rule definition, per iteration.
  kSpj,       // Per n-way join ("sigma-pi-join").
};

const char* GranularityName(Granularity g);

/// JIT configuration — the paper's user-facing switchboard: backend,
/// granularity, blocking vs async compilation, full vs snippet.
struct JitConfig {
  backends::BackendKind backend = backends::BackendKind::kLambda;
  Granularity granularity = Granularity::kUnion;
  bool async = false;
  backends::CompileMode mode = backends::CompileMode::kFull;
  bool reorder = true;
  optimizer::JoinOrderConfig join_config;
  /// Relative-cardinality-shift threshold for the freshness test.
  double freshness_threshold = 0.10;
};

/// The JIT driver. Evaluation starts in the interpreter; every node
/// boundary is a safe point where the driver may (a) run an existing
/// compiled unit, (b) kick off compilation — blocking on it or continuing
/// interpretation while it runs on the compiler thread — or (c) skip
/// recompilation because the freshness test passes.
class Jit : public ir::JitController {
 public:
  explicit Jit(const JitConfig& config);
  ~Jit() override = default;

  bool MaybeRunCompiled(ir::IROp& op, ir::ExecContext& ctx,
                        ir::Interpreter& interp) override;

  /// Explicit deoptimization: drops the node's compiled unit so execution
  /// reverts to interpretation until the next (re)compilation.
  void Deoptimize(uint32_t node_id);

  CompileManager& manager() { return *manager_; }
  backends::Backend& backend() { return *backend_; }
  const JitConfig& config() const { return config_; }

 private:
  bool AtGranularity(const ir::IROp& op) const;
  backends::CompileRequest MakeRequest(const ir::IROp& op,
                                       const ir::ExecContext& ctx) const;
  void RunUnit(backends::CompiledUnit* unit, ir::IROp& op,
               ir::ExecContext& ctx, ir::Interpreter& interp);

  JitConfig config_;
  std::unique_ptr<backends::Backend> backend_;
  std::unique_ptr<CompileManager> manager_;
  optimizer::FreshnessTracker freshness_;
};

}  // namespace carac::core

#endif  // CARAC_CORE_JIT_H_
