#include "backends/bytecode.h"

#include "datalog/builtins.h"
#include "ir/access_path.h"
#include "util/status.h"

namespace carac::backends {

namespace {

using storage::Relation;
using storage::RowId;
using storage::Tuple;
using storage::Value;

/// Iterator state: either a whole-relation arena scan (dense RowId cursor)
/// or an index-probe result (RowId cursor). `current` points at the
/// row-major values of the current row inside the relation's arena.
struct IterState {
  const Relation* rel = nullptr;
  bool probe = false;
  storage::RowCursor bucket;
  size_t bucket_pos = 0;
  RowId row = 0;
  const Value* current = nullptr;
  // Probe memo: an inner iterator slot typically re-opens with the same
  // (relation, column, key) once per outer row — always for const keys,
  // and for runs of equal outer join keys otherwise. The cursor from the
  // previous open is reused when the VM's mutation generation hasn't
  // moved (kSwapClear / kCallNode bump it; in between, the probed
  // Derived/DeltaKnown stores are frozen, so the cursor stays valid).
  const Relation* memo_rel = nullptr;
  size_t memo_col = 0;
  Value memo_key = 0;
  uint64_t memo_gen = 0;
  bool memo_valid = false;
  // Range-probe extension of the memo: keyed on the CLOSED [lo, hi]
  // (strictness folds into the bounds, so two spellings of the same
  // interval share a memo entry). A declined probe is memoized too —
  // re-deciding against the same index state would reach the same
  // verdict, so the scan fallback is replayed without re-probing.
  std::vector<RowId> range_rows;
  Value memo_lo = 0;
  Value memo_hi = 0;
  bool memo_is_range = false;
  bool memo_declined = false;
  // Counter slot for the memoized (relation, column); re-resolved only
  // when the slot's target changes, so a memo hit costs nothing and a
  // memo miss pays one pointer increment on top of the probe itself.
  ir::ColumnProbeStats* probe_stats = nullptr;

  void OpenScan(const Relation* relation) {
    rel = relation;
    probe = false;
    row = 0;
    current = nullptr;
  }

  void OpenProbe(const Relation* relation, size_t col, Value value,
                 uint64_t gen, bool memoizable, datalog::PredicateId pred,
                 ir::AccessProfiler* profiler) {
    if (!relation->HasIndex(col)) {
      // No index (unindexed configuration): degrade to a scan; the CHECK
      // instructions emitted alongside the probe still filter correctly
      // because the compiler always re-checks the probed column.
      OpenScan(relation);
      return;
    }
    rel = relation;
    probe = true;
    if (!(memo_valid && !memo_is_range && memo_rel == relation &&
          memo_col == col && memo_key == value && memo_gen == gen)) {
      if (probe_stats == nullptr || memo_rel != relation || memo_col != col) {
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
    bucket_pos = 0;
    current = nullptr;
  }

  void OpenRange(const Relation* relation, size_t col, Value lo,
                 bool lo_strict, Value hi, bool hi_strict, uint64_t gen,
                 bool memoizable, datalog::PredicateId pred,
                 ir::AccessProfiler* profiler) {
    if (!relation->HasIndex(col)) {
      // Unindexed configuration: degrade to a scan. The kCompare
      // residuals the compiler always emits behind the loop keep it
      // correct.
      OpenScan(relation);
      return;
    }
    ir::ResolvedRange range;
    range.empty = !ir::CloseInterval(lo, lo_strict, hi, hi_strict, &range.lo,
                                     &range.hi);
    if (range.empty) {
      // Canonical empty key so every contradictory interval memo-hits.
      range.lo = 1;
      range.hi = 0;
    }
    if (memo_valid && memo_is_range && memo_rel == relation &&
        memo_col == col && memo_lo == range.lo && memo_hi == range.hi &&
        memo_gen == gen) {
      if (memo_declined) {
        OpenScan(relation);
        return;
      }
      rel = relation;
      probe = true;
      bucket = storage::RowCursor(range_rows.data(), range_rows.size());
      bucket_pos = 0;
      current = nullptr;
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
      OpenScan(relation);
      return;
    }
    rel = relation;
    probe = true;
    bucket = storage::RowCursor(range_rows.data(), range_rows.size());
    bucket_pos = 0;
    current = nullptr;
  }

  bool Next() {
    if (probe) {
      if (bucket_pos >= bucket.size()) return false;
      current = rel->RowData(bucket[bucket_pos++]);
      return true;
    }
    if (row >= rel->NumRows()) return false;
    current = rel->RowData(row++);
    return true;
  }
};

}  // namespace

void RunBytecode(const BytecodeProgram& program, ir::ExecContext& ctx,
                 ir::Interpreter& interp) {
  std::vector<Value> regs(program.num_regs, 0);
  std::vector<IterState> iters(program.num_iters);
  Tuple scratch;
  storage::DatabaseSet& db = ctx.db();
  // Mutation generation for the per-slot probe memos. Emits only touch
  // DeltaNew (never memoized); the stores probes read change only at
  // kSwapClear and kCallNode, so those bump it.
  uint64_t probe_gen = 0;

  size_t pc = 0;
  for (;;) {
    const Insn& insn = program.code[pc];
    switch (insn.op) {
      case Insn::Op::kLoadImm:
        regs[insn.a] = insn.imm;
        ++pc;
        break;
      case Insn::Op::kScanOpen:
        iters[insn.a].OpenScan(&db.Get(
            static_cast<datalog::PredicateId>(insn.b),
            static_cast<storage::DbKind>(insn.c)));
        ++pc;
        break;
      case Insn::Op::kProbeOpenConst:
        iters[insn.a].OpenProbe(
            &db.Get(static_cast<datalog::PredicateId>(insn.b),
                    static_cast<storage::DbKind>(insn.c)),
            static_cast<size_t>(insn.d), insn.imm, probe_gen,
            static_cast<storage::DbKind>(insn.c) != storage::DbKind::kDeltaNew,
            static_cast<datalog::PredicateId>(insn.b), &ctx.profiler());
        ++pc;
        break;
      case Insn::Op::kProbeOpenReg:
        iters[insn.a].OpenProbe(
            &db.Get(static_cast<datalog::PredicateId>(insn.b),
                    static_cast<storage::DbKind>(insn.c)),
            static_cast<size_t>(insn.d), regs[insn.e], probe_gen,
            static_cast<storage::DbKind>(insn.c) != storage::DbKind::kDeltaNew,
            static_cast<datalog::PredicateId>(insn.b), &ctx.profiler());
        ++pc;
        break;
      case Insn::Op::kRangeOpen:
        iters[insn.a].OpenRange(
            &db.Get(static_cast<datalog::PredicateId>(insn.b),
                    static_cast<storage::DbKind>(insn.c)),
            static_cast<size_t>(insn.d), regs[insn.e], (insn.g & 1) != 0,
            regs[insn.f], (insn.g & 2) != 0, probe_gen,
            static_cast<storage::DbKind>(insn.c) != storage::DbKind::kDeltaNew,
            static_cast<datalog::PredicateId>(insn.b), &ctx.profiler());
        ++pc;
        break;
      case Insn::Op::kNext:
        if (iters[insn.a].Next()) {
          ++pc;
        } else {
          pc = static_cast<size_t>(insn.d);
        }
        break;
      case Insn::Op::kCheckConst:
        pc = (iters[insn.a].current[insn.b] == insn.imm)
                 ? pc + 1
                 : static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kCheckReg:
        pc = (iters[insn.a].current[insn.b] == regs[insn.e])
                 ? pc + 1
                 : static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kBindCol:
        regs[insn.e] = iters[insn.a].current[insn.b];
        ++pc;
        break;
      case Insn::Op::kCompare:
        pc = datalog::EvalComparison(static_cast<datalog::BuiltinOp>(insn.b),
                                     regs[insn.e], regs[insn.f])
                 ? pc + 1
                 : static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kArith: {
        Value z;
        if (datalog::EvalArithmetic(static_cast<datalog::BuiltinOp>(insn.b),
                                    regs[insn.e], regs[insn.f], &z)) {
          regs[insn.g] = z;
          ++pc;
        } else {
          pc = static_cast<size_t>(insn.d);
        }
        break;
      }
      case Insn::Op::kArithCheck: {
        Value z;
        const bool ok =
            datalog::EvalArithmetic(static_cast<datalog::BuiltinOp>(insn.b),
                                    regs[insn.e], regs[insn.f], &z) &&
            z == regs[insn.g];
        pc = ok ? pc + 1 : static_cast<size_t>(insn.d);
        break;
      }
      case Insn::Op::kNotContains: {
        const TupleDesc& desc = program.tuples[insn.a];
        scratch.clear();
        for (int32_t r : desc.regs) scratch.push_back(regs[r]);
        pc = db.Get(desc.predicate, desc.db).Contains(scratch)
                 ? static_cast<size_t>(insn.d)
                 : pc + 1;
        break;
      }
      case Insn::Op::kEmit: {
        const TupleDesc& desc = program.tuples[insn.a];
        scratch.clear();
        for (int32_t r : desc.regs) scratch.push_back(regs[r]);
        ctx.stats().tuples_considered++;
        if (!db.Get(desc.predicate, storage::DbKind::kDerived)
                 .Contains(scratch)) {
          if (db.Get(desc.predicate, storage::DbKind::kDeltaNew)
                  .Insert(scratch)) {
            ctx.stats().tuples_inserted++;
          }
        }
        ++pc;
        break;
      }
      case Insn::Op::kJump:
        pc = static_cast<size_t>(insn.d);
        break;
      case Insn::Op::kSwapClear:
        db.SwapClearMerge(program.relation_sets[insn.a]);
        ++probe_gen;
        ++pc;
        break;
      case Insn::Op::kJumpIfDelta:
        pc = db.AnyDeltaKnownNonEmpty(program.relation_sets[insn.a])
                 ? static_cast<size_t>(insn.d)
                 : pc + 1;
        break;
      case Insn::Op::kIterBump:
        ctx.stats().iterations++;
        ++pc;
        break;
      case Insn::Op::kCallNode:
        interp.Execute(*const_cast<ir::IROp*>(program.call_nodes[insn.a]));
        ++probe_gen;
        ++pc;
        break;
      case Insn::Op::kHalt:
        return;
    }
  }
}

std::string BytecodeProgram::Disassemble() const {
  static const char* kNames[] = {
      "loadimm",  "scan",   "probec",  "prober",   "rangeo",   "next",
      "checkc",   "checkr", "bind",    "cmp",      "arith",    "arithchk",
      "notcont",  "emit",   "jump",    "swapclr",  "jmpdelta", "iterbump",
      "callnode", "halt"};
  std::string out;
  for (size_t i = 0; i < code.size(); ++i) {
    const Insn& insn = code[i];
    out += std::to_string(i) + ": ";
    out += kNames[static_cast<int>(insn.op)];
    out += " a=" + std::to_string(insn.a) + " b=" + std::to_string(insn.b) +
           " c=" + std::to_string(insn.c) + " d=" + std::to_string(insn.d) +
           " e=" + std::to_string(insn.e) + " imm=" + std::to_string(insn.imm);
    out += "\n";
  }
  return out;
}

}  // namespace carac::backends
