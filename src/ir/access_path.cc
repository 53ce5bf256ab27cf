#include "ir/access_path.h"

#include <algorithm>
#include <limits>

#include "optimizer/selectivity.h"
#include "util/status.h"

namespace carac::ir {

using storage::Value;

std::vector<ColAction> BuildColActions(const AtomSpec& atom,
                                       std::vector<bool>& bound) {
  std::vector<ColAction> actions;
  actions.reserve(atom.terms.size());
  for (size_t col = 0; col < atom.terms.size(); ++col) {
    const LocalTerm& t = atom.terms[col];
    ColAction action;
    action.col = static_cast<uint32_t>(col);
    if (!t.is_var) {
      action.kind = ColAction::Kind::kCheckConst;
      action.constant = t.constant;
    } else if (bound[t.var]) {
      action.kind = ColAction::Kind::kCheckVar;
      action.var = t.var;
    } else {
      action.kind = ColAction::Kind::kBind;
      action.var = t.var;
      bound[t.var] = true;
    }
    actions.push_back(action);
  }
  return actions;
}

bool CloseInterval(Value lo, bool lo_strict, Value hi, bool hi_strict,
                   Value* out_lo, Value* out_hi) {
  if (lo_strict) {
    if (lo == std::numeric_limits<Value>::max()) return false;
    ++lo;
  }
  if (hi_strict) {
    if (hi == std::numeric_limits<Value>::min()) return false;
    --hi;
  }
  if (lo > hi) return false;
  *out_lo = lo;
  *out_hi = hi;
  return true;
}

ResolvedRange ResolveRange(const AtomSpec& atom, const Value* binding) {
  const auto value_of = [&](const BoundSpec& b) {
    return b.kind == BoundSpec::Kind::kVar ? binding[b.var] : b.constant;
  };
  Value lo = std::numeric_limits<Value>::min();
  bool lo_strict = false;
  if (atom.lower.present()) {
    lo = value_of(atom.lower);
    lo_strict = atom.lower.strict;
  }
  Value hi = std::numeric_limits<Value>::max();
  bool hi_strict = false;
  if (atom.upper.present()) {
    hi = value_of(atom.upper);
    hi_strict = atom.upper.strict;
  }
  ResolvedRange r;
  r.empty = !CloseInterval(lo, lo_strict, hi, hi_strict, &r.lo, &r.hi);
  return r;
}

bool ProbeRange(const storage::Relation& rel, size_t col,
                const ResolvedRange& range, ColumnProbeStats* stats,
                std::vector<storage::RowId>* rows) {
  if (!rel.HasIndex(col)) return false;
  // Record the demand before deciding: declined ranges on a hash column
  // are the signal AdaptiveIndexPolicy re-kinds on.
  if (stats != nullptr) stats->range_probes++;
  if (range.empty) {
    rows->clear();
    return true;
  }
  if (!storage::IndexKindIsOrdered(rel.IndexKindOf(col))) return false;
  Value key_min;
  Value key_max;
  if (!rel.IndexKeyBounds(col, &key_min, &key_max)) {
    // Ordered index with no keys: the relation is empty.
    rows->clear();
    return true;
  }
  if (!optimizer::RangeProbeProfitable(range.lo, range.hi, key_min, key_max)) {
    return false;
  }
  rows->clear();
  CARAC_CHECK_OK(rel.ProbeRange(col, range.lo, range.hi, rows));
  // Relation::ProbeRange yields ascending (key, RowId); the evaluators iterate in
  // ascending RowId — the filter scan's order — so re-sort. This pass is
  // the cost RangeProbeProfitable weighs against the scan.
  std::sort(rows->begin(), rows->end());
  return true;
}

AccessPath AccessPath::Resolve(const storage::DatabaseSet& db,
                               const AtomSpec& atom,
                               const std::vector<bool>& bound_before,
                               AccessProfiler* profiler) {
  const storage::Relation& rel =
      db.Get(atom.predicate, storage::DbKind::kDerived);
  AccessPath path;
  path.rel_ = &rel;
  path.atom_ = &atom;
  path.window_ = db.Window(atom.predicate, atom.window);
  const int32_t probe_col = FirstProbeColumn(
      atom, [&](LocalVar v) { return bound_before[v]; },
      [&](size_t col) { return rel.HasIndex(col); });
  if (probe_col >= 0) {
    const LocalTerm& key = atom.terms[probe_col];
    path.kind_ = Kind::kPoint;
    path.col_ = static_cast<size_t>(probe_col);
    path.key_var_ = key.is_var ? key.var : -1;
    path.key_const_ = key.constant;
  } else if (atom.has_range() &&
             rel.HasIndex(static_cast<size_t>(atom.range_col))) {
    path.kind_ = Kind::kRange;
    path.col_ = static_cast<size_t>(atom.range_col);
  } else {
    return path;
  }
  path.stats_ = ProbeStatsSlot(profiler, atom.predicate, path.col_);
  return path;
}

void AccessPath::OpenBatch(const Value* keys, size_t n,
                           storage::RowCursor* cursors) const {
  rel_->BatchProbe(col_, keys, n, cursors);
  stats_->batch_windows++;
  stats_->point_probes += n;
  for (size_t k = 0; k < n; ++k) {
    cursors[k] = cursors[k].Window(window_.lo, window_.hi);
    stats_->point_hits += !cursors[k].empty();
  }
}

}  // namespace carac::ir
