#ifndef CARAC_BACKENDS_BYTECODE_H_
#define CARAC_BACKENDS_BYTECODE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "ir/access_path.h"
#include "ir/exec_context.h"
#include "ir/interpreter.h"
#include "ir/irop.h"
#include "storage/database.h"
#include "storage/emit_window.h"

namespace carac::backends {

/// The instruction set of the bytecode target (§V-C2). The compiler turns
/// a (reordered) IR subtree into a flat, jump-based program: nested-loop
/// joins become OPEN/NEXT loops with statically selected access paths, so
/// execution pays no per-row planning or tree-traversal cost. Like the
/// paper's direct-to-JVM-bytecode generator, the VM itself performs no
/// verification — a malformed program is undefined behaviour — which is
/// exactly the safety/overhead trade this target makes.
struct Insn {
  enum class Op : uint8_t {
    kLoadImm,         // regs[a] = imm
    kScanOpen,        // iters[a] = scan(pred b, window c) (WindowOperand)
    kProbeOpenConst,  // iters[a] = probe(pred b, window c, col d, imm)
    kProbeOpenReg,    // iters[a] = probe(pred b, window c, col d, regs[e])
    kRangeOpen,       // iters[a] = range(pred b, window c, col d,
                      //   lo=regs[e], hi=regs[f]; g bit0/1: lo/hi strict).
                      // Declined or unindexed ranges degrade to a scan —
                      // the kCompare residuals behind the loop keep the
                      // result identical either way.
    kNext,            // advance iters[a]; jump d when exhausted
    kCheckConst,      // row(a)[b] != imm -> jump d
    kCheckReg,        // row(a)[b] != regs[e] -> jump d
    kBindCol,         // regs[e] = row(a)[b]
    kCompare,         // !cmp(b, regs[e], regs[f]) -> jump d
    kArith,           // regs[g] = arith(b, regs[e], regs[f]); undef -> jump d
    kArithCheck,      // arith(b,e,f) undef or != regs[g] -> jump d
    kNotContains,     // tuple desc a in its relation -> jump d
    kSpjBegin,        // an SPJ into pred b starts: bind the emit window
    kEmit,            // append tuple desc a to the emit window
    kSpjEnd,          // the SPJ ends: flush the emit window. Every exit
                      // of an SPJ jumps here.
    kJump,            // pc = d
    kSwapClear,       // swap-clear-merge relation set a
    kJumpIfDelta,     // any delta in set a non-empty -> jump d
    kIterBump,        // iteration counter += 1 (DoWhile accounting)
    kCallNode,        // run owned IR node a through the interpreter
    kHalt,
  };

  Op op;
  int32_t a = 0, b = 0, c = 0, d = 0, e = 0, f = 0, g = 0;
  int64_t imm = 0;
};

/// The opens' `c` operand: the atom's storage::RowWindow. Every open reads
/// Derived; BytecodeRuntime resolves the window, so both targets carry it
/// through the same literal.
inline int32_t WindowOperand(const ir::AtomSpec& atom) {
  return static_cast<int32_t>(atom.window);
}

/// A row template used by kNotContains (a membership test on Derived) and
/// kEmit: each column is a register.
struct TupleDesc {
  datalog::PredicateId predicate;
  std::vector<int32_t> regs;
};

/// A compiled bytecode program plus its constant pools.
struct BytecodeProgram {
  std::vector<Insn> code;
  std::vector<TupleDesc> tuples;
  std::vector<std::vector<datalog::PredicateId>> relation_sets;
  /// Nodes the VM bails out to the interpreter for (aggregates, snippet
  /// children). Owned clones; kCallNode indexes this vector.
  std::vector<const ir::IROp*> call_nodes;
  int32_t num_regs = 0;
  int32_t num_iters = 0;

  std::string Disassemble() const;
};

/// The storage half of executing a BytecodeProgram, shared by both
/// targets that run one: RunBytecode's switch calls it inline, and the
/// quotes backend's generated C++ calls it back through the C ABI of
/// quotes_codegen.h. Every instruction that touches storage or the
/// interpreter goes through here — the four opens (with the per-slot
/// probe memo and profiler counters), kNext, kNotContains, kSpjBegin,
/// kEmit, kSpjEnd, kSwapClear, kJumpIfDelta, kIterBump and kCallNode — so
/// both targets probe, memoize, count and mutate identically. Methods
/// take their operands decoded: static fields as the compiler emitted
/// them, register operands already read.
class BytecodeRuntime {
 public:
  /// One iterator slot: either an arena scan (RowIds [row, end)) or an
  /// index-probe result (`rows`, the memoized `bucket` cut to the open's
  /// RowId window: the memo keeps the whole bucket, so each open cuts
  /// it). `current` points at the row-major values of the current row
  /// inside the relation's arena.
  struct Iter {
    const storage::Relation* rel = nullptr;
    bool probe = false;
    storage::RowCursor bucket;
    storage::RowCursor rows;
    size_t bucket_pos = 0;
    storage::RowId row = 0;
    size_t end = 0;
    const storage::Value* current = nullptr;
    // Probe memo: an inner iterator slot typically re-opens with the same
    // (relation, column, key) once per outer row — always for const keys,
    // and for runs of equal outer join keys otherwise. The cursor from
    // the previous open is reused when the runtime's mutation generation
    // hasn't moved (kSwapClear / kCallNode bump it; in between, the
    // probed Derived stores are frozen — emits write DeltaNew — so the
    // cursor stays valid).
    const storage::Relation* memo_rel = nullptr;
    size_t memo_col = 0;
    storage::Value memo_key = 0;
    uint64_t memo_gen = 0;
    bool memo_valid = false;
    // Range-probe extension of the memo: keyed on the CLOSED [lo, hi]
    // (strictness folds into the bounds, so two spellings of the same
    // interval share a memo entry). A declined probe is memoized too —
    // re-deciding against the same index state would reach the same
    // verdict, so the scan fallback is replayed without re-probing.
    std::vector<storage::RowId> range_rows;
    storage::Value memo_lo = 0;
    storage::Value memo_hi = 0;
    bool memo_is_range = false;
    bool memo_declined = false;
    // Counter slot for the memoized (relation, column); re-resolved only
    // when the slot's target changes, so a memo hit costs nothing and a
    // memo miss pays one pointer increment on top of the probe itself.
    ir::ColumnProbeStats* probe_stats = nullptr;

    void OpenScan(const storage::Relation* relation,
                  storage::RowInterval window) {
      rel = relation;
      probe = false;
      row = window.lo;
      end = std::min<size_t>(relation->NumRows(), window.hi);
      current = nullptr;
    }

    /// Positions the slot at the start of `bucket` cut to `window`.
    void StartBucket(storage::RowInterval window) {
      probe = true;
      rows = bucket.Window(window.lo, window.hi);
      bucket_pos = 0;
      end = rows.size();
      current = nullptr;
    }

    void OpenProbe(const storage::Relation* relation, size_t col,
                   storage::Value value, storage::RowInterval window,
                   uint64_t gen, datalog::PredicateId pred,
                   ir::AccessProfiler* profiler) {
      if (!relation->HasIndex(col)) {
        // No index (unindexed configuration): degrade to a scan; the
        // CHECK instructions emitted alongside the probe still filter
        // correctly because the compiler always re-checks the probed
        // column.
        OpenScan(relation, window);
        return;
      }
      rel = relation;
      const bool memo_hit = memo_valid && !memo_is_range &&
                            memo_rel == relation && memo_col == col &&
                            memo_key == value && memo_gen == gen;
      if (!memo_hit) {
        if (probe_stats == nullptr || memo_rel != relation ||
            memo_col != col) {
          probe_stats = ir::ProbeStatsSlot(profiler, pred, col);
        }
        bucket = ir::ProbePoint(*relation, col, value, probe_stats);
        memo_rel = relation;
        memo_col = col;
        memo_key = value;
        memo_gen = gen;
        memo_is_range = false;
        memo_valid = true;
      }
      StartBucket(window);
      if (!memo_hit) probe_stats->point_hits += end != 0;
    }

    void OpenRange(const storage::Relation* relation, size_t col,
                   storage::Value lo, bool lo_strict, storage::Value hi,
                   bool hi_strict, storage::RowInterval window, uint64_t gen,
                   datalog::PredicateId pred, ir::AccessProfiler* profiler) {
      if (!relation->HasIndex(col)) {
        // Unindexed configuration: degrade to a scan. The kCompare
        // residuals the compiler always emits behind the loop keep it
        // correct.
        OpenScan(relation, window);
        return;
      }
      ir::ResolvedRange range;
      range.empty = !ir::CloseInterval(lo, lo_strict, hi, hi_strict,
                                       &range.lo, &range.hi);
      if (range.empty) {
        // Canonical empty key so every contradictory interval memo-hits.
        range.lo = 1;
        range.hi = 0;
      }
      if (memo_valid && memo_is_range && memo_rel == relation &&
          memo_col == col && memo_lo == range.lo && memo_hi == range.hi &&
          memo_gen == gen) {
        if (memo_declined) {
          OpenScan(relation, window);
          return;
        }
        rel = relation;
        bucket = storage::RowCursor(range_rows.data(), range_rows.size());
        StartBucket(window);
        return;
      }
      if (probe_stats == nullptr || memo_rel != relation || memo_col != col) {
        probe_stats = ir::ProbeStatsSlot(profiler, pred, col);
      }
      const bool taken =
          ir::ProbeRange(*relation, col, range, probe_stats, &range_rows);
      memo_rel = relation;
      memo_col = col;
      memo_lo = range.lo;
      memo_hi = range.hi;
      memo_gen = gen;
      memo_is_range = true;
      memo_declined = !taken;
      memo_valid = true;
      if (!taken) {
        OpenScan(relation, window);
        return;
      }
      rel = relation;
      bucket = storage::RowCursor(range_rows.data(), range_rows.size());
      StartBucket(window);
    }

    bool Next() {
      if (probe) {
        if (bucket_pos >= end) return false;
        current = rel->RowData(rows[bucket_pos++]);
        return true;
      }
      if (row >= end) return false;
      current = rel->RowData(row++);
      return true;
    }
  };

  BytecodeRuntime(const BytecodeProgram& program, ir::ExecContext& ctx,
                  ir::Interpreter& interp)
      : program_(program),
        ctx_(ctx),
        interp_(interp),
        db_(ctx.db()),
        iters_(program.num_iters) {}

  /// The iterator slots; their addresses are fixed for the runtime's
  /// lifetime, so a caller may hold the pointer across instructions.
  Iter* iters() { return iters_.data(); }

  // The opens of slot `iter` over pred's Derived rows in `window` (the
  // WindowOperand): kScanOpen, kProbeOpenConst / kProbeOpenReg (`key` on
  // `col`) and kRangeOpen ([lo, hi] on `col`; `strict` bit 0 / 1: lo / hi
  // strict).
  void ScanOpen(size_t iter, datalog::PredicateId pred, uint32_t window) {
    iters_[iter].OpenScan(Derived(pred), Window(pred, window));
  }
  void ProbeOpen(size_t iter, datalog::PredicateId pred, uint32_t window,
                 size_t col, storage::Value key) {
    iters_[iter].OpenProbe(Derived(pred), col, key, Window(pred, window),
                           probe_gen_, pred, &ctx_.profiler());
  }
  void RangeOpen(size_t iter, datalog::PredicateId pred, uint32_t window,
                 size_t col, storage::Value lo, storage::Value hi,
                 uint32_t strict) {
    iters_[iter].OpenRange(Derived(pred), col, lo, (strict & 1) != 0, hi,
                           (strict & 2) != 0, Window(pred, window),
                           probe_gen_, pred, &ctx_.profiler());
  }

  /// kNext: advances slot `iter`; its new current row, null when
  /// exhausted.
  const storage::Value* Next(size_t iter) {
    Iter& it = iters_[iter];
    return it.Next() ? it.current : nullptr;
  }

  /// kNotContains' test.
  bool Contains(datalog::PredicateId pred, storage::TupleView row) {
    return Derived(pred)->Contains(row);
  }

  /// kSpjBegin: counts the SPJ and binds the emit window to pred's
  /// Derived and DeltaNew.
  void SpjBegin(datalog::PredicateId pred) {
    ctx_.stats().spj_executions++;
    window_.Bind(&db_.Get(pred, storage::DbKind::kDerived),
                 &db_.Get(pred, storage::DbKind::kDeltaNew));
  }

  /// kEmit: the window space for the head tuple's values, which the
  /// caller fills before the next runtime call.
  storage::Value* EmitSlot() {
    ctx_.stats().tuples_considered++;
    return window_.Append();
  }

  /// kSpjEnd: probes and inserts the buffered head tuples.
  void SpjEnd() { ctx_.stats().tuples_inserted += window_.Flush(); }

  /// kSwapClear and kJumpIfDelta's test on relation set `set`.
  void SwapClear(size_t set) {
    db_.SwapClearMerge(program_.relation_sets[set]);
    ++probe_gen_;
  }
  bool AnyDelta(size_t set) {
    return db_.AnyDeltaNonEmpty(program_.relation_sets[set]);
  }

  void IterBump() { ctx_.stats().iterations++; }

  void CallNode(size_t node) {
    interp_.Execute(*const_cast<ir::IROp*>(program_.call_nodes[node]));
    ++probe_gen_;
  }

 private:
  const storage::Relation* Derived(datalog::PredicateId pred) const {
    return &db_.Get(pred, storage::DbKind::kDerived);
  }

  storage::RowInterval Window(datalog::PredicateId pred,
                              uint32_t window) const {
    return db_.Window(pred, static_cast<storage::RowWindow>(window));
  }

  const BytecodeProgram& program_;
  ir::ExecContext& ctx_;
  ir::Interpreter& interp_;
  storage::DatabaseSet& db_;
  std::vector<Iter> iters_;
  storage::EmitWindow window_;
  // Mutation generation for the per-slot probe memos: the stores probes
  // read change only at kSwapClear and kCallNode, so those bump it.
  uint64_t probe_gen_ = 0;
};

/// Executes a bytecode program against the live databases.
void RunBytecode(const BytecodeProgram& program, ir::ExecContext& ctx,
                 ir::Interpreter& interp);

}  // namespace carac::backends

#endif  // CARAC_BACKENDS_BYTECODE_H_
