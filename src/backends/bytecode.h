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
    kScanOpen,        // iters[a] = scan(pred b, db c) (c: see SourceOperand)
    kProbeOpenConst,  // iters[a] = probe(pred b, db c, col d, imm)
    kProbeOpenReg,    // iters[a] = probe(pred b, db c, col d, regs[e])
    kRangeOpen,       // iters[a] = range(pred b, db c, col d,
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

/// The opens' `c` operand: the atom's DbKind, with kOldOnlyBit set when the
/// atom is old-only (ir::AtomSpec::old_only). BytecodeRuntime decodes it,
/// so both targets carry the flag through the same literal.
inline constexpr uint32_t kOldOnlyBit = 0x100;
inline int32_t SourceOperand(const ir::AtomSpec& atom) {
  return static_cast<int32_t>(static_cast<uint32_t>(atom.source) |
                              (atom.old_only ? kOldOnlyBit : 0u));
}

/// A row template used by kNotContains / kEmit: each column is a register.
struct TupleDesc {
  datalog::PredicateId predicate;
  storage::DbKind db;  // Source for kNotContains; ignored for kEmit.
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
  /// One iterator slot: either an arena scan (dense RowId cursor) or an
  /// index-probe result (RowId cursor), each ending at `end`: the scan's
  /// RowId bound, or the length of the bucket's prefix below the open's
  /// row limit (the memo keeps the whole bucket, so each open cuts it).
  /// `current` points at the row-major values of the current row inside
  /// the relation's arena.
  struct Iter {
    const storage::Relation* rel = nullptr;
    bool probe = false;
    storage::RowCursor bucket;
    size_t bucket_pos = 0;
    storage::RowId row = 0;
    size_t end = 0;
    const storage::Value* current = nullptr;
    // Old-row limit of the last old-only open (DatabaseSet::OldRowLimit),
    // reused while the mutation generation holds: Derived and DeltaKnown
    // only change where the generation moves.
    const storage::Relation* limit_rel = nullptr;
    uint64_t limit_gen = 0;
    storage::RowId limit = storage::kAllRows;
    // Probe memo: an inner iterator slot typically re-opens with the same
    // (relation, column, key) once per outer row — always for const keys,
    // and for runs of equal outer join keys otherwise. The cursor from
    // the previous open is reused when the runtime's mutation generation
    // hasn't moved (kSwapClear / kCallNode bump it; in between, the
    // probed Derived/DeltaKnown stores are frozen, so the cursor stays
    // valid).
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
                  storage::RowId row_limit) {
      rel = relation;
      probe = false;
      row = 0;
      end = std::min<size_t>(relation->NumRows(), row_limit);
      current = nullptr;
    }

    /// Positions the slot at the start of `bucket` cut at `row_limit`.
    void StartBucket(storage::RowId row_limit) {
      probe = true;
      bucket_pos = 0;
      end = bucket.Below(row_limit).size();
      current = nullptr;
    }

    void OpenProbe(const storage::Relation* relation, size_t col,
                   storage::Value value, storage::RowId row_limit,
                   uint64_t gen, bool memoizable, datalog::PredicateId pred,
                   ir::AccessProfiler* profiler) {
      if (!relation->HasIndex(col)) {
        // No index (unindexed configuration): degrade to a scan; the
        // CHECK instructions emitted alongside the probe still filter
        // correctly because the compiler always re-checks the probed
        // column.
        OpenScan(relation, row_limit);
        return;
      }
      rel = relation;
      if (!(memo_valid && !memo_is_range && memo_rel == relation &&
            memo_col == col && memo_key == value && memo_gen == gen)) {
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
        memo_valid = memoizable;
      }
      StartBucket(row_limit);
    }

    void OpenRange(const storage::Relation* relation, size_t col,
                   storage::Value lo, bool lo_strict, storage::Value hi,
                   bool hi_strict, storage::RowId row_limit, uint64_t gen,
                   bool memoizable, datalog::PredicateId pred,
                   ir::AccessProfiler* profiler) {
      if (!relation->HasIndex(col)) {
        // Unindexed configuration: degrade to a scan. The kCompare
        // residuals the compiler always emits behind the loop keep it
        // correct.
        OpenScan(relation, row_limit);
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
          OpenScan(relation, row_limit);
          return;
        }
        rel = relation;
        bucket = storage::RowCursor(range_rows.data(), range_rows.size());
        StartBucket(row_limit);
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
      memo_valid = memoizable;
      if (!taken) {
        OpenScan(relation, row_limit);
        return;
      }
      rel = relation;
      bucket = storage::RowCursor(range_rows.data(), range_rows.size());
      StartBucket(row_limit);
    }

    bool Next() {
      if (probe) {
        if (bucket_pos >= end) return false;
        current = rel->RowData(bucket[bucket_pos++]);
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

  // The opens of slot `iter` over relation (pred, source), `source`
  // being the SourceOperand: kScanOpen, kProbeOpenConst / kProbeOpenReg
  // (`key` on `col`) and kRangeOpen ([lo, hi] on `col`; `strict` bit 0 /
  // 1: lo / hi strict).
  void ScanOpen(size_t iter, datalog::PredicateId pred, uint32_t source) {
    Iter& it = iters_[iter];
    const storage::Relation* rel = Source(pred, source);
    it.OpenScan(rel, RowLimit(&it, pred, source, rel));
  }
  void ProbeOpen(size_t iter, datalog::PredicateId pred, uint32_t source,
                 size_t col, storage::Value key) {
    Iter& it = iters_[iter];
    const storage::Relation* rel = Source(pred, source);
    it.OpenProbe(rel, col, key, RowLimit(&it, pred, source, rel), probe_gen_,
                 Memoizable(source), pred, &ctx_.profiler());
  }
  void RangeOpen(size_t iter, datalog::PredicateId pred, uint32_t source,
                 size_t col, storage::Value lo, storage::Value hi,
                 uint32_t strict) {
    Iter& it = iters_[iter];
    const storage::Relation* rel = Source(pred, source);
    it.OpenRange(rel, col, lo, (strict & 1) != 0, hi, (strict & 2) != 0,
                 RowLimit(&it, pred, source, rel), probe_gen_,
                 Memoizable(source), pred, &ctx_.profiler());
  }

  /// kNext: advances slot `iter`; its new current row, null when
  /// exhausted.
  const storage::Value* Next(size_t iter) {
    Iter& it = iters_[iter];
    return it.Next() ? it.current : nullptr;
  }

  /// kNotContains' test.
  bool Contains(datalog::PredicateId pred, storage::DbKind db,
                storage::TupleView row) {
    return db_.Get(pred, db).Contains(row);
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
    return db_.AnyDeltaKnownNonEmpty(program_.relation_sets[set]);
  }

  void IterBump() { ctx_.stats().iterations++; }

  void CallNode(size_t node) {
    interp_.Execute(*const_cast<ir::IROp*>(program_.call_nodes[node]));
    ++probe_gen_;
  }

 private:
  const storage::Relation* Source(datalog::PredicateId pred, uint32_t source) {
    return &db_.Get(pred, static_cast<storage::DbKind>(source & ~kOldOnlyBit));
  }

  /// The open's RowId limit: kAllRows unless `source` is old-only.
  storage::RowId RowLimit(Iter* it, datalog::PredicateId pred,
                          uint32_t source, const storage::Relation* rel) {
    if ((source & kOldOnlyBit) == 0) return storage::kAllRows;
    if (it->limit_rel != rel || it->limit_gen != probe_gen_) {
      it->limit = db_.OldRowLimit(pred);
      it->limit_rel = rel;
      it->limit_gen = probe_gen_;
    }
    return it->limit;
  }

  // Emits only touch DeltaNew, so only probes of the other stores memoize.
  static bool Memoizable(uint32_t source) {
    return static_cast<storage::DbKind>(source & ~kOldOnlyBit) !=
           storage::DbKind::kDeltaNew;
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
