#include "ir/pull_evaluator.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "datalog/builtins.h"
#include "ir/access_path.h"
#include "storage/emit_window.h"
#include "util/status.h"

namespace carac::ir {

namespace {

using datalog::BuiltinBindsOutput;
using storage::Relation;
using storage::RowCursor;
using storage::RowId;
using storage::Tuple;
using storage::Value;

/// One Volcano operator: Reset() re-opens it under the current binding
/// (outer rows are visible through the shared binding array), Next()
/// produces the operator's next match and updates the binding.
class RowSource {
 public:
  virtual ~RowSource() = default;
  virtual void Reset(std::vector<Value>& binding) = 0;
  virtual bool Next(std::vector<Value>& binding) = 0;

  /// Parallel evaluation, meaningful only for the pipeline's outer
  /// stage: restricts the source to positions [begin, end) of its row
  /// sequence (bucket positions when probing, RowIds when scanning). The
  /// defaults cover the whole sequence; inner-only sources ignore it.
  virtual void RestrictOuter(size_t begin, size_t end) {
    (void)begin;
    (void)end;
  }

  /// Length of the row sequence this source iterates under `binding`:
  /// AccessPath::Size over the path Reset() opens. The sharder
  /// sizes its outer windows with this so it can never disagree with
  /// what the workers actually scan. Sources that can never lead a
  /// pipeline report 0.
  virtual size_t SequenceSize(const std::vector<Value>& binding) {
    (void)binding;
    return 0;
  }
};

/// Scan / index-probe leaf for one positive relational atom.
class ScanSource : public RowSource {
 public:
  // Marks the atom's variables in `bound`. The path resolves against the
  // variables bound before the atom: path_ is declared before actions_.
  ScanSource(const storage::DatabaseSet& db, const AtomSpec* atom,
             std::vector<bool>& bound, AccessProfiler* profiler)
      : path_(AccessPath::Resolve(db, *atom, bound, profiler)),
        actions_(BuildColActions(*atom, bound)) {}

  void RestrictOuter(size_t begin, size_t end) override {
    outer_begin_ = begin;
    outer_end_ = end;
  }

  size_t SequenceSize(const std::vector<Value>& binding) override {
    return path_.Size(binding.data());
  }

  void Reset(std::vector<Value>& binding) override {
    // The position window is clamped here, once per re-open, so Next()'s
    // per-row bound check costs exactly what it did before parallel
    // evaluation existed.
    rows_ = path_.Open(binding.data());
    limit_ = std::min(outer_end_, rows_.size());
    pos_ = std::min(outer_begin_, limit_);
  }

  bool Next(std::vector<Value>& binding) override {
    while (pos_ < limit_) {
      if (ApplyColActions(actions_, path_.rel().View(rows_[pos_++]),
                          binding.data())) {
        return true;
      }
    }
    return false;
  }

 private:
  AccessPath path_;
  std::vector<ColAction> actions_;
  RowSeq rows_ = RowSeq::Dense(0);
  size_t pos_ = 0;
  size_t limit_ = 0;
  size_t outer_begin_ = 0;
  size_t outer_end_ = static_cast<size_t>(-1);
};

/// Builtin atom: a zero-or-one-row source (filter, or arithmetic binder).
class BuiltinSource : public RowSource {
 public:
  BuiltinSource(const AtomSpec* atom, bool out_was_bound)
      : atom_(atom), out_was_bound_(out_was_bound) {}

  void Reset(std::vector<Value>& /*binding*/) override { produced_ = false; }

  bool Next(std::vector<Value>& binding) override {
    if (produced_) return false;
    produced_ = true;
    auto term_value = [&](const LocalTerm& t) {
      return t.is_var ? binding[t.var] : t.constant;
    };
    const Value x = term_value(atom_->terms[0]);
    const Value y = term_value(atom_->terms[1]);
    if (!BuiltinBindsOutput(atom_->builtin)) {
      return datalog::EvalComparison(atom_->builtin, x, y);
    }
    Value z;
    if (!datalog::EvalArithmetic(atom_->builtin, x, y, &z)) return false;
    const LocalTerm& out = atom_->terms[2];
    if (!out.is_var) return out.constant == z;
    if (out_was_bound_) return binding[out.var] == z;
    binding[out.var] = z;
    return true;
  }

 private:
  const AtomSpec* atom_;
  bool out_was_bound_;
  bool produced_ = false;
};

/// Negated atom: antijoin membership test (zero-or-one empty row).
class NegationSource : public RowSource {
 public:
  NegationSource(const Relation* rel, const AtomSpec* atom)
      : rel_(rel), atom_(atom) {}

  void Reset(std::vector<Value>& /*binding*/) override { produced_ = false; }

  bool Next(std::vector<Value>& binding) override {
    if (produced_) return false;
    produced_ = true;
    scratch_.clear();
    for (const LocalTerm& t : atom_->terms) {
      scratch_.push_back(t.is_var ? binding[t.var] : t.constant);
    }
    return !rel_->Contains(scratch_);
  }

 private:
  const Relation* rel_;
  const AtomSpec* atom_;
  Tuple scratch_;
  bool produced_ = false;
};

/// Fused outer-scan + batched inner-probe over the pipeline's first two
/// atoms (the shape RunSubqueryPull fuses when the second atom probes on
/// a variable the first binds). Matching outer rows are windowed, their
/// probe keys resolved in one BatchProbe per window, and inner matches
/// yielded one per Next() — the emission sequence is exactly what the
/// two unfused stages would produce, so results stay byte-identical
/// with batching on or off.
class BatchedJoinSource final : public RowSource {
 public:
  BatchedJoinSource(const storage::DatabaseSet& db,
                    const AtomSpec* outer_atom, const AtomSpec* inner_atom,
                    std::vector<bool>& bound, size_t window,
                    AccessProfiler* profiler)
      : window_(window) {
    outer_path_ = AccessPath::Resolve(db, *outer_atom, bound, profiler);
    outer_actions_ = BuildColActions(*outer_atom, bound);
    inner_path_ = AccessPath::Resolve(db, *inner_atom, bound, profiler);
    inner_actions_ = BuildColActions(*inner_atom, bound);
    // CanFuse gates on a variable-keyed point probe.
    CARAC_CHECK(inner_path_.kind() == AccessPath::Kind::kPoint &&
                inner_path_.key_is_var());
  }

  void RestrictOuter(size_t begin, size_t end) override {
    outer_begin_ = begin;
    outer_end_ = end;
  }

  size_t SequenceSize(const std::vector<Value>& binding) override {
    return outer_path_.Size(binding.data());
  }

  void Reset(std::vector<Value>& binding) override {
    outer_rows_ = outer_path_.Open(binding.data());
    limit_ = std::min(outer_end_, outer_rows_.size());
    pos_ = std::min(outer_begin_, limit_);
    batch_rows_.clear();
    batch_idx_ = 0;
    cursor_ = RowCursor();
    cursor_pos_ = 0;
  }

  bool Next(std::vector<Value>& binding) override {
    Value* values = binding.data();
    for (;;) {
      // Drain the current outer row's pre-resolved inner cursor.
      while (cursor_pos_ < cursor_.size()) {
        const RowId inner_row = cursor_[cursor_pos_++];
        if (ApplyColActions(inner_actions_, inner_path_.rel().View(inner_row),
                            values)) {
          return true;
        }
      }
      // Advance to the next matched outer row of the window, restoring
      // its binds (its checks passed during the fill pass).
      if (batch_idx_ < batch_rows_.size()) {
        ApplyColBinds(outer_actions_,
                      outer_path_.rel().View(batch_rows_[batch_idx_]), values);
        cursor_ = batch_cursors_[batch_idx_];
        cursor_pos_ = 0;
        ++batch_idx_;
        continue;
      }
      // Refill: window the next run of outer positions, collect the
      // matching rows' probe keys, resolve them in one OpenBatch.
      if (pos_ >= limit_) return false;
      batch_rows_.clear();
      batch_keys_.clear();
      batch_idx_ = 0;
      const size_t chunk_end = std::min(pos_ + window_, limit_);
      for (; pos_ < chunk_end; ++pos_) {
        const RowId row = outer_rows_[pos_];
        if (!ApplyColActions(outer_actions_, outer_path_.rel().View(row),
                             values)) {
          continue;
        }
        batch_rows_.push_back(row);
        batch_keys_.push_back(values[inner_path_.key_var()]);
      }
      if (batch_rows_.empty()) continue;
      if (batch_cursors_.size() < window_) batch_cursors_.resize(window_);
      inner_path_.OpenBatch(batch_keys_.data(), batch_rows_.size(),
                            batch_cursors_.data());
    }
  }

 private:
  AccessPath outer_path_;
  AccessPath inner_path_;
  std::vector<ColAction> outer_actions_;
  std::vector<ColAction> inner_actions_;
  size_t window_;
  size_t outer_begin_ = 0;
  size_t outer_end_ = static_cast<size_t>(-1);
  // Iteration state.
  RowSeq outer_rows_ = RowSeq::Dense(0);
  size_t pos_ = 0;
  size_t limit_ = 0;
  std::vector<RowId> batch_rows_;
  std::vector<Value> batch_keys_;
  std::vector<RowCursor> batch_cursors_;
  size_t batch_idx_ = 0;
  RowCursor cursor_;
  size_t cursor_pos_ = 0;
};

/// True when atoms[0] and atoms[1] form the fusable index-join shape:
/// both positive relational, and the access path ScanSource would pick
/// for atom 1 probes on a variable (necessarily bound by atom 0 — the
/// pipeline's first atom binds everything that is bound before the
/// second). Const-key probes are loop-invariant lookups and keep the
/// classic path.
bool CanFuse(ExecContext& ctx, const IROp& op) {
  if (ctx.probe_batch_window() == 0 || op.atoms.size() < 2) return false;
  const AtomSpec& a0 = op.atoms[0];
  const AtomSpec& a1 = op.atoms[1];
  if (a0.is_builtin() || a0.negated) return false;
  if (a1.is_builtin() || a1.negated) return false;
  std::vector<bool> bound(op.num_locals, false);
  for (const LocalTerm& t : a0.terms) {
    if (t.is_var) bound[t.var] = true;
  }
  const Relation& rel1 = ctx.db().Get(a1.predicate, storage::DbKind::kDerived);
  const int32_t probe_col = FirstProbeColumn(
      a1, [&](LocalVar v) { return bound[v]; },
      [&](size_t col) { return rel1.HasIndex(col); });
  return probe_col >= 0 && a1.terms[probe_col].is_var;
}

/// Builds the iterator pipeline, tracking static boundness per stage.
/// When the leading two atoms are fusable and batching is enabled, they
/// become one BatchedJoinSource. Probe counters go to `profiler` — the
/// context's own on the single-threaded path, a worker-private one when
/// the pipeline runs inside a shard.
std::vector<std::unique_ptr<RowSource>> BuildPipeline(
    ExecContext& ctx, const IROp& op, AccessProfiler* profiler) {
  std::vector<std::unique_ptr<RowSource>> pipeline;
  pipeline.reserve(op.atoms.size());
  std::vector<bool> bound(op.num_locals, false);
  size_t start = 0;
  if (CanFuse(ctx, op)) {
    pipeline.push_back(std::make_unique<BatchedJoinSource>(
        ctx.db(), &op.atoms[0], &op.atoms[1], bound, ctx.probe_batch_window(),
        profiler));
    start = 2;
  }
  for (size_t i = start; i < op.atoms.size(); ++i) {
    const AtomSpec& atom = op.atoms[i];
    if (atom.is_builtin()) {
      const LocalTerm& out =
          BuiltinBindsOutput(atom.builtin) ? atom.terms[2] : LocalTerm();
      const bool out_was_bound = out.is_var && bound[out.var];
      pipeline.push_back(
          std::make_unique<BuiltinSource>(&atom, out_was_bound));
      if (BuiltinBindsOutput(atom.builtin) && out.is_var) {
        bound[out.var] = true;
      }
    } else if (atom.negated) {
      pipeline.push_back(std::make_unique<NegationSource>(
          &ctx.db().Get(atom.predicate, storage::DbKind::kDerived), &atom));
    } else {
      pipeline.push_back(
          std::make_unique<ScanSource>(ctx.db(), &atom, bound, profiler));
    }
  }
  return pipeline;
}

/// Hands `op`'s head tuple under `binding` to the emit window.
void EmitHead(const IROp& op, const std::vector<Value>& binding,
              storage::EmitWindow* window) {
  Value* out = window->Append();
  for (const LocalTerm& t : op.head_terms) {
    *out++ = t.is_var ? binding[t.var] : t.constant;
  }
}

/// The Volcano get-next loop over the pipeline's cursor stack, calling
/// `emit` for every full match. Requires a non-empty pipeline.
template <typename EmitFn>
void RunVolcano(std::vector<std::unique_ptr<RowSource>>& pipeline,
                std::vector<Value>& binding, EmitFn&& emit) {
  const int n = static_cast<int>(pipeline.size());
  int depth = 0;
  pipeline[0]->Reset(binding);
  while (depth >= 0) {
    if (!pipeline[depth]->Next(binding)) {
      --depth;
      continue;
    }
    if (depth == n - 1) {
      emit();
    } else {
      ++depth;
      pipeline[depth]->Reset(binding);
    }
  }
}

/// The pull engine's parallel path: shards the outer stage's row sequence
/// by contiguous position ranges, each worker running a private pipeline
/// that stages into its own buffer; the in-order merge then replays the
/// single-threaded insertion sequence exactly. Returns false when the
/// subquery must (or should) run single-threaded.
bool TryRunPullSharded(ExecContext& ctx, const IROp& op,
                       std::vector<std::unique_ptr<RowSource>>& pipeline) {
  if (ctx.worker_pool() == nullptr) return false;
  if (op.atoms.empty()) return false;
  const AtomSpec& outer = op.atoms[0];
  if (outer.is_builtin() || outer.negated) return false;
  // atoms[0] is a positive relational atom, so pipeline[0] is a
  // ScanSource or the fused BatchedJoinSource; either way its own access
  // path (not a re-derivation of it) sizes the shard windows through the
  // RowSource interface. No variable is bound before stage 0, so the
  // all-zero binding below can never be consulted for a probe key.
  const std::vector<Value> binding_zero(op.num_locals, 0);
  const size_t outer_rows = pipeline[0]->SequenceSize(binding_zero);

  const Relation& derived = ctx.db().Get(op.target, storage::DbKind::kDerived);
  const Relation& delta_new =
      ctx.db().Get(op.target, storage::DbKind::kDeltaNew);
  return ShardAcrossPool(
      ctx, op.target, outer_rows, op.head_terms.size(),
      [&](int shard, size_t begin, size_t end,
          storage::StagingBuffer* staging, uint64_t* considered) {
        auto pipeline = BuildPipeline(ctx, op, ctx.ShardProfiler(shard));
        pipeline[0]->RestrictOuter(begin, end);
        std::vector<Value> binding(op.num_locals, 0);
        uint64_t emitted = 0;
        // Derived and DeltaNew are frozen until the merge, so the
        // window's pre-filter probes are safe concurrent reads that keep
        // the staging sets small.
        storage::EmitWindow window;
        window.BindStaged(derived, delta_new, staging);
        RunVolcano(pipeline, binding, [&] {
          ++emitted;
          EmitHead(op, binding, &window);
        });
        window.Flush();
        *considered = emitted;
      });
}

}  // namespace

void RunSubqueryPull(ExecContext& ctx, const IROp& op) {
  CARAC_CHECK(op.kind == OpKind::kSpj);
  ctx.stats().spj_executions++;

  std::vector<std::unique_ptr<RowSource>> pipeline =
      BuildPipeline(ctx, op, &ctx.profiler());
  if (TryRunPullSharded(ctx, op, pipeline)) return;

  storage::DatabaseSet& db = ctx.db();
  storage::EmitWindow window;
  window.Bind(&db.Get(op.target, storage::DbKind::kDerived),
              &db.Get(op.target, storage::DbKind::kDeltaNew));
  std::vector<Value> binding(op.num_locals, 0);
  auto emit = [&] {
    ctx.stats().tuples_considered++;
    EmitHead(op, binding, &window);
  };
  if (pipeline.empty()) {
    emit();
  } else {
    RunVolcano(pipeline, binding, emit);
  }
  ctx.stats().tuples_inserted += window.Flush();
}

}  // namespace carac::ir
