#include "ir/interpreter.h"

#include "ir/pull_evaluator.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "datalog/builtins.h"
#include "ir/access_path.h"
#include "storage/emit_window.h"
#include "util/status.h"

namespace carac::ir {

namespace {

using datalog::BuiltinBindsOutput;
using datalog::BuiltinOp;
using storage::Relation;
using storage::RowId;
using storage::Tuple;
using storage::Value;

/// For arithmetic builtins: what to do with the output term.
enum class OutMode : uint8_t { kBind, kCheckVar, kCheckConst };

/// One atom's execution plan, built per execution (atom order can change
/// between executions, so boundness is dynamic).
struct AtomPlan {
  const AtomSpec* atom = nullptr;
  const Relation* rel = nullptr;  // Relational atoms only.
  // Positive relational atoms: column checks/binds and the access path.
  std::vector<ColAction> actions;
  AccessPath access;
  OutMode out_mode = OutMode::kBind;  // Arithmetic builtins only.
};

/// The join executor. Stack-allocated per subquery evaluation.
class SubqueryRun {
 public:
  SubqueryRun(ExecContext& ctx, const IROp& op)
      : ctx_(ctx), op_(op), profiler_(&ctx.profiler()) {}

  void Run() {
    ctx_.stats().spj_executions++;
    binding_.assign(op_.num_locals, 0);
    BuildPlan();
    storage::DatabaseSet& db = ctx_.db();
    window_.Bind(&db.Get(op_.target, storage::DbKind::kDerived),
                 &db.Get(op_.target, storage::DbKind::kDeltaNew));
    if (op_.kind == OpKind::kAggregate) {
      Join<false>(0);
      FlushAggregates();
    } else if (RunSharded()) {
      return;
    } else if (ctx_.probe_batch_window() > 0 && BatchEligible()) {
      JoinBatchedWindow<false>(0, static_cast<size_t>(-1));
    } else {
      Join<false>(0);
    }
    ctx_.stats().tuples_inserted += window_.Flush();
  }

  /// Pool-worker entry: evaluates outer positions [begin, end), staging
  /// emissions into `out` (behind a read-only Derived/DeltaNew
  /// pre-filter) instead of inserting. Safe to run concurrently with the
  /// other shards — everything shared is read-only until the main thread
  /// merges the buffers.
  void RunShard(size_t begin, size_t end, storage::StagingBuffer* out,
                uint64_t* considered) {
    binding_.assign(op_.num_locals, 0);
    BuildPlan();
    const storage::DatabaseSet& db = ctx_.db();
    window_.BindStaged(db.Get(op_.target, storage::DbKind::kDerived),
                       db.Get(op_.target, storage::DbKind::kDeltaNew), out);
    if (ctx_.probe_batch_window() > 0 && BatchEligible()) {
      JoinBatchedWindow<true>(begin, end);
    } else {
      JoinOuterWindow(begin, end);
    }
    window_.Flush();
    *considered = staged_considered_;
  }

 private:
  /// Shards the outer atom's row sequence across the worker pool (see
  /// ShardAcrossPool); the in-order merge keeps DeltaNew byte-identical
  /// (contents, insertion order and RowIds) for every thread count.
  /// Returns false when the subquery must (or should) run
  /// single-threaded: no pool, a leading builtin or negation, or an outer
  /// sequence too small to amortize dispatch.
  bool RunSharded() {
    if (ctx_.worker_pool() == nullptr || plan_.empty()) return false;
    AtomPlan& outer = plan_[0];
    if (outer.rel == nullptr || outer.atom->negated) return false;
    // No variable is bound before atom 0, so every shard opens the same
    // sequence this sizes; the workers record the probes.
    const size_t outer_rows = outer.access.Size(binding_.data());
    return ShardAcrossPool(
        ctx_, op_.target, outer_rows, op_.head_terms.size(),
        [&](int shard, size_t begin, size_t end,
            storage::StagingBuffer* staging, uint64_t* considered) {
          SubqueryRun worker(ctx_, op_);
          // Worker-private counters, merged by MergeStagedDelta.
          worker.profiler_ = ctx_.ShardProfiler(shard);
          worker.RunShard(begin, end, staging, considered);
        });
  }

  void BuildPlan() {
    std::vector<bool> bound(op_.num_locals, false);
    plan_.clear();
    plan_.reserve(op_.atoms.size());
    for (const AtomSpec& atom : op_.atoms) {
      AtomPlan p;
      p.atom = &atom;
      if (atom.is_builtin()) {
        if (BuiltinBindsOutput(atom.builtin)) {
          const LocalTerm& out = atom.terms[2];
          if (!out.is_var) {
            p.out_mode = OutMode::kCheckConst;
          } else if (bound[out.var]) {
            p.out_mode = OutMode::kCheckVar;
          } else {
            p.out_mode = OutMode::kBind;
            bound[out.var] = true;
          }
        }
        plan_.push_back(std::move(p));
        continue;
      }
      if (atom.negated) {
        // Membership test: every term must be resolvable; no binds.
        p.rel = &ctx_.db().Get(atom.predicate, storage::DbKind::kDerived);
        plan_.push_back(std::move(p));
        continue;
      }
      p.access = AccessPath::Resolve(ctx_.db(), atom, bound, profiler_);
      p.rel = &p.access.rel();
      p.actions = BuildColActions(atom, bound);
      plan_.push_back(std::move(p));
    }
  }

  Value Resolve(const LocalTerm& t) const {
    return t.is_var ? binding_[t.var] : t.constant;
  }

  /// kStaged selects the emission accounting at compile time (false:
  /// the context's stats, and aggregates; true: the worker's local count,
  /// with the window bound to its staging buffer), so the
  /// single-threaded instantiation carries no shard-mode branch.
  template <bool kStaged>
  void Join(size_t i) {
    if (i == plan_.size()) {
      Emit<kStaged>();
      return;
    }
    AtomPlan& p = plan_[i];
    const AtomSpec& atom = *p.atom;

    if (atom.is_builtin()) {
      const Value x = Resolve(atom.terms[0]);
      const Value y = Resolve(atom.terms[1]);
      if (!BuiltinBindsOutput(atom.builtin)) {
        if (datalog::EvalComparison(atom.builtin, x, y)) Join<kStaged>(i + 1);
        return;
      }
      Value z;
      if (!datalog::EvalArithmetic(atom.builtin, x, y, &z)) return;
      switch (p.out_mode) {
        case OutMode::kBind:
          binding_[atom.terms[2].var] = z;
          Join<kStaged>(i + 1);
          return;
        case OutMode::kCheckVar:
          if (binding_[atom.terms[2].var] == z) Join<kStaged>(i + 1);
          return;
        case OutMode::kCheckConst:
          if (atom.terms[2].constant == z) Join<kStaged>(i + 1);
          return;
      }
      return;
    }

    if (atom.negated) {
      scratch_.clear();
      for (const LocalTerm& t : atom.terms) scratch_.push_back(Resolve(t));
      if (!p.rel->Contains(scratch_)) Join<kStaged>(i + 1);
      return;
    }

    // Each plan depth owns its path (and a range path's row list), so the
    // recursion below never clobbers an outer atom's live sequence.
    const Relation& rel = *p.rel;
    p.access.Open(binding_.data()).ForEach([&](RowId row) {
      if (ApplyColActions(p.actions, rel.View(row), binding_.data())) {
        Join<kStaged>(i + 1);
      }
    });
  }

  /// The shard workers' outer loop: drives plan_[0] (a positive
  /// relational atom, guaranteed by RunSharded) over positions
  /// [begin, end) of its row sequence, then hands each match to
  /// Join(1). Kept out of Join() itself so the single-threaded hot
  /// loop's codegen stays exactly as it was before parallel evaluation
  /// existed.
  void JoinOuterWindow(size_t begin, size_t end) {
    AtomPlan& p = plan_[0];
    const Relation& rel = *p.rel;
    p.access.Open(binding_.data()).ForEach(begin, end, [&](RowId row) {
      if (ApplyColActions(p.actions, rel.View(row), binding_.data())) {
        Join<true>(1);
      }
    });
  }

  /// True when the first two plan entries form an index nested-loop join
  /// whose inner probe key comes from the outer row — the shape the
  /// batched-cursor path accelerates. Builtins, negation and const-key
  /// probes (loop-invariant lookups) keep the classic path.
  bool BatchEligible() const {
    if (plan_.size() < 2) return false;
    const AtomPlan& outer = plan_[0];
    const AtomPlan& inner = plan_[1];
    if (outer.rel == nullptr || outer.atom->negated) return false;
    if (inner.rel == nullptr || inner.atom->negated) return false;
    return inner.access.kind() == AccessPath::Kind::kPoint &&
           inner.access.key_is_var();
  }

  /// Batch-at-a-time outer loop over positions [begin, end) of atom 0's
  /// row sequence. Two passes per window: pass 1 applies atom-0 actions
  /// per outer row and collects the surviving rows' inner probe keys;
  /// one OpenBatch resolves the whole window (amortizing dispatch,
  /// skipping equal-adjacent keys); pass 2 re-applies atom-0 binds per
  /// surviving row (checks already passed — binds are cheap) and joins
  /// atom 1 from the pre-resolved cursor, recursing into Join<>(2). The
  /// emission order is exactly the classic nested loop's, so DeltaNew
  /// stays byte-identical whether batching is on or off, single-threaded
  /// or sharded. Deliberately a separate entry point: Join<>(0)'s
  /// codegen is fragile under GCC 12 and stays untouched.
  template <bool kStaged>
  void JoinBatchedWindow(size_t begin, size_t end) {
    AtomPlan& outer = plan_[0];
    const AtomPlan& inner = plan_[1];
    const Relation& outer_rel = *outer.rel;
    const Relation& inner_rel = *inner.rel;
    const size_t window = ctx_.probe_batch_window();
    Value* binding = binding_.data();

    const RowSeq outer_rows = outer.access.Open(binding);
    const size_t limit = std::min(end, outer_rows.size());
    if (batch_cursors_.size() < window) batch_cursors_.resize(window);

    for (size_t pos = std::min(begin, limit); pos < limit;) {
      const size_t chunk_end = std::min(pos + window, limit);
      batch_rows_.clear();
      batch_keys_.clear();
      for (; pos < chunk_end; ++pos) {
        const RowId row = outer_rows[pos];
        if (!ApplyColActions(outer.actions, outer_rel.View(row), binding)) {
          continue;
        }
        batch_rows_.push_back(row);
        batch_keys_.push_back(binding[inner.access.key_var()]);
      }
      if (batch_rows_.empty()) continue;
      inner.access.OpenBatch(batch_keys_.data(), batch_rows_.size(),
                             batch_cursors_.data());
      for (size_t k = 0; k < batch_rows_.size(); ++k) {
        ApplyColBinds(outer.actions, outer_rel.View(batch_rows_[k]), binding);
        batch_cursors_[k].ForEach([&](RowId inner_row) {
          if (ApplyColActions(inner.actions, inner_rel.View(inner_row),
                              binding)) {
            Join<kStaged>(2);
          }
        });
      }
    }
  }

  template <bool kStaged>
  void Emit() {
    if constexpr (kStaged) {
      // Shard mode (plain SPJs only — aggregates never shard): stats and
      // DeltaNew belong to the main thread, so count locally and stage.
      // The window pre-filters against Derived and DeltaNew, which are
      // frozen while shards run (the merge happens afterwards), keeping
      // the staging sets small.
      ++staged_considered_;
      EmitHead();
      return;
    }
    ctx_.stats().tuples_considered++;
    if (op_.kind == OpKind::kAggregate) {
      scratch_.clear();
      for (size_t i = 0; i + 1 < op_.head_terms.size(); ++i) {
        scratch_.push_back(Resolve(op_.head_terms[i]));
      }
      // Set semantics: aggregate over *distinct* witnesses so results do
      // not depend on the join order or on how many derivations produce
      // the same witness. count uses the full variable binding as witness
      // (number of distinct body matches); sum/min/max use the operand.
      Tuple witness = op_.agg == datalog::AggFunc::kCount
                          ? binding_
                          : Tuple{binding_[op_.agg_operand]};
      witnesses_.emplace(scratch_, std::move(witness));
      return;
    }
    EmitHead();
  }

  /// Hands the head tuple of the current binding to the emit window.
  void EmitHead() {
    Value* out = window_.Append();
    for (const LocalTerm& t : op_.head_terms) *out++ = Resolve(t);
  }

  void FlushAggregates() {
    std::map<Tuple, Value> groups;
    for (const auto& [key, witness] : witnesses_) {
      Value contribution =
          op_.agg == datalog::AggFunc::kCount ? 1 : witness[0];
      auto [it, inserted] = groups.emplace(key, contribution);
      if (inserted) continue;
      switch (op_.agg) {
        case datalog::AggFunc::kCount:
        case datalog::AggFunc::kSum:
          it->second += contribution;
          break;
        case datalog::AggFunc::kMin:
          if (contribution < it->second) it->second = contribution;
          break;
        case datalog::AggFunc::kMax:
          if (contribution > it->second) it->second = contribution;
          break;
        case datalog::AggFunc::kNone:
          break;
      }
    }
    for (const auto& [key, value] : groups) {
      Tuple tuple = key;
      tuple.push_back(value);
      window_.Emit(tuple);
    }
  }

  ExecContext& ctx_;
  const IROp& op_;
  // Destination for probe counters: the context's profiler on the
  // single-threaded path, the worker's shard profiler when sharded.
  AccessProfiler* profiler_;
  std::vector<AtomPlan> plan_;
  std::vector<Value> binding_;
  Tuple scratch_;
  // Aggregation state: distinct (group key, witness) pairs.
  std::set<std::pair<Tuple, Tuple>> witnesses_;
  // Every head tuple goes through here: bound to the target's stores, or
  // to the worker's staging buffer when sharded.
  storage::EmitWindow window_;
  // Shard-execution state (parallel evaluation): a local emission count
  // (pool workers must not touch the shared stats).
  uint64_t staged_considered_ = 0;
  // Batched-probe window scratch (JoinBatchedWindow), reused per chunk.
  std::vector<RowId> batch_rows_;
  std::vector<Value> batch_keys_;
  std::vector<storage::RowCursor> batch_cursors_;
};

}  // namespace

void RunSubquery(ExecContext& ctx, const IROp& op) {
  CARAC_CHECK(op.kind == OpKind::kSpj || op.kind == OpKind::kAggregate);
  // Aggregates always run through the push engine (they accumulate
  // witnesses); plain SPJs dispatch on the configured relational engine.
  if (op.kind == OpKind::kSpj &&
      ctx.engine_style() == EngineStyle::kPull) {
    RunSubqueryPull(ctx, op);
    return;
  }
  SubqueryRun run(ctx, op);
  run.Run();
}

void Interpreter::Execute(IROp& op) {
  if (jit_ != nullptr && jit_->MaybeRunCompiled(op, *ctx_, *this)) return;
  ExecuteNode(op);
}

void Interpreter::ExecuteNode(IROp& op) {
  switch (op.kind) {
    case OpKind::kProgram:
    case OpKind::kSequence:
    case OpKind::kUnionAll:
    case OpKind::kUnion:
      for (auto& child : op.children) Execute(*child);
      return;
    case OpKind::kDoWhile:
      do {
        ctx_->stats().iterations++;
        Execute(*op.children[0]);
      } while (ctx_->db().AnyDeltaNonEmpty(op.relations));
      return;
    case OpKind::kSwapClear:
      ctx_->db().SwapClearMerge(op.relations);
      return;
    case OpKind::kSpj:
    case OpKind::kAggregate:
      RunSubquery(*ctx_, op);
      return;
  }
}


}  // namespace carac::ir
