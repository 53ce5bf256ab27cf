#ifndef CARAC_CORE_FIXPOINT_DRIVER_H_
#define CARAC_CORE_FIXPOINT_DRIVER_H_

#include <cstdint>
#include <string>

#include "core/jit.h"
#include "ir/exec_context.h"
#include "ir/irop.h"
#include "util/status.h"

namespace carac::core {

/// What one evaluation (a full run or an update epoch) did, for tests,
/// the CLI's serve mode and the incremental benches.
struct EpochReport {
  /// DatabaseSet epoch number after this evaluation completed.
  uint64_t epoch = 0;
  /// True for full evaluation (Engine::Run, or the first Update()).
  bool full = false;
  /// Delta rows seeded from watermarks (the delta windows' sizes).
  uint64_t seeded_rows = 0;
  uint32_t strata_incremental = 0;
  uint32_t strata_recomputed = 0;
  uint32_t strata_skipped = 0;
  /// Counters spent by this evaluation alone (the context's stats are
  /// cumulative across epochs).
  ir::ExecStats stats;

  std::string ToString() const;
};

/// The semi-naive evaluation driver, shared by full evaluation and
/// incremental update epochs. Extracted from the old one-shot
/// Engine::Run() so the engine is re-enterable: RunFull executes the
/// whole lowered program from scratch semantics, RunUpdateEpoch brings
/// the fixpoint up to date with the facts appended since the last epoch
/// boundary, paying cost proportional to the delta.
///
/// Epoch soundness, per stratum (IRProgram::strata, in evaluation order):
///   - Nothing the stratum reads or defines changed: skip it outright.
///   - Inputs only grew, and none of them is a recompute trigger
///     (negated, or feeding an aggregate rule): positive derivations are
///     monotone, so Derived survives and the stratum's update subtree
///     runs — delta windows seeded with the rows past each watermark, the
///     delta loop to fixpoint, every emission deduped against Derived.
///   - A recompute trigger changed, or an upstream stratum was itself
///     recomputed (its relations may have shrunk): previously derived
///     facts may be stale, so the stratum's relations are reset to their
///     EDB facts and the full subtree re-derives them against the
///     current inputs. The recompute is stratum-local; downstream strata
///     observe it as a possible retraction and cascade the same way.
class FixpointDriver {
 public:
  /// `jit` may be null (pure interpretation). Pointers are borrowed; the
  /// engine owns all three.
  FixpointDriver(ir::IRProgram* irp, ir::ExecContext* ctx, Jit* jit)
      : irp_(irp), ctx_(ctx), jit_(jit) {}
  FixpointDriver(const FixpointDriver&) = delete;
  FixpointDriver& operator=(const FixpointDriver&) = delete;

  /// Executes the full lowered program (naive pass + semi-naive loops)
  /// and closes the epoch. A re-entered call (any prior epoch closed)
  /// first resets every IDB relation to its EDB facts, so the result
  /// always reflects exactly the current fact set — including
  /// retractions through negation/aggregates that re-running the rules
  /// over surviving derived state would miss.
  util::Status RunFull(EpochReport* report);

  /// Executes one incremental update epoch over the facts appended since
  /// the last epoch boundary, then closes the epoch. Requires a prior
  /// RunFull (the engine guarantees it).
  util::Status RunUpdateEpoch(EpochReport* report);

 private:
  /// Surfaces asynchronous compilation failures observed so far
  /// (evaluation itself is unaffected — it keeps interpreting).
  util::Status JitError() const;

  ir::IRProgram* irp_;
  ir::ExecContext* ctx_;
  Jit* jit_;
};

}  // namespace carac::core

#endif  // CARAC_CORE_FIXPOINT_DRIVER_H_
