#ifndef CARAC_IR_ACCESS_PATH_H_
#define CARAC_IR_ACCESS_PATH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ir/exec_context.h"
#include "ir/irop.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace carac::ir {

// The access-path layer: the single owner of "how does this atom read its
// relation". The push interpreter, the pull evaluator and the bytecode VM
// keep their own control flow (recursive join, Volcano pipeline, register
// VM) but resolve, open, batch-probe and profile relation accesses only
// through this header.

/// Per-column behaviour of one relational atom, precomputed at plan-build
/// time so the per-row match loop allocates nothing. A variable's first
/// occurrence within the atom binds; later occurrences check (R(x, x)
/// filters on its 2nd column).
struct ColAction {
  enum class Kind : uint8_t { kCheckConst, kCheckVar, kBind };
  Kind kind = Kind::kBind;
  uint32_t col = 0;
  storage::Value constant = 0;
  LocalVar var = -1;
};

/// Builds the action list for `atom`, marking the variables it binds in
/// `bound`.
std::vector<ColAction> BuildColActions(const AtomSpec& atom,
                                       std::vector<bool>& bound);

/// Applies `actions` to `row`: false on a failed check, true with all
/// binds applied otherwise.
inline bool ApplyColActions(const std::vector<ColAction>& actions,
                            storage::TupleView row, storage::Value* binding) {
  for (const ColAction& action : actions) {
    const storage::Value v = row[action.col];
    switch (action.kind) {
      case ColAction::Kind::kCheckConst:
        if (v != action.constant) return false;
        break;
      case ColAction::Kind::kCheckVar:
        if (v != binding[action.var]) return false;
        break;
      case ColAction::Kind::kBind:
        binding[action.var] = v;
        break;
    }
  }
  return true;
}

/// Re-applies only the binds of `actions` to a row whose checks already
/// passed (the batched joins' second pass over a window).
inline void ApplyColBinds(const std::vector<ColAction>& actions,
                          storage::TupleView row, storage::Value* binding) {
  for (const ColAction& action : actions) {
    if (action.kind == ColAction::Kind::kBind) {
      binding[action.var] = row[action.col];
    }
  }
}

/// The point-probe rule every evaluator and static compiler shares: the
/// first column whose key is known before the atom runs (a constant, or a
/// variable for which `is_bound(var)` holds) and for which
/// `has_index(col)` holds. -1 when no column qualifies. A variable first
/// bound by the atom itself (the second x of R(x, x)) is a within-row
/// check, not a probe key.
template <typename IsBound, typename HasIndex>
int32_t FirstProbeColumn(const AtomSpec& atom, IsBound&& is_bound,
                         HasIndex&& has_index) {
  for (size_t col = 0; col < atom.terms.size(); ++col) {
    const LocalTerm& t = atom.terms[col];
    if ((!t.is_var || is_bound(t.var)) && has_index(col)) {
      return static_cast<int32_t>(col);
    }
  }
  return -1;
}

// ---- Probe and profiling primitives ----
//
// The VM resolves its (relation, column) per instruction and memoizes
// opens itself, so it calls these directly; everything else goes through
// AccessPath below.

/// The runtime counters for (rel, column).
inline ColumnProbeStats* ProbeStatsSlot(AccessProfiler* profiler,
                                        storage::RelationId rel,
                                        size_t column) {
  return profiler->Slot(rel, column);
}

/// Point probe on an indexed column, counted into `stats` (null: record
/// nothing). The caller counts its `point_hits`: a hit is a probe with
/// rows inside the atom's RowId window, so it is counted on the bucket
/// cut to that window.
inline storage::RowCursor ProbePoint(const storage::Relation& rel,
                                     size_t col, storage::Value key,
                                     ColumnProbeStats* stats) {
  if (stats != nullptr) stats->point_probes++;
  return rel.Probe(col, key);
}

/// A fully resolved, closed range [lo, hi] for one annotated atom (see
/// AtomSpec::range_col). `empty` marks a contradiction (e.g. x > 5,
/// x < 3): the atom can match nothing, whatever the index holds.
struct ResolvedRange {
  storage::Value lo = 0;
  storage::Value hi = 0;
  bool empty = false;
};

/// Turns a half-open/strict interval into the closed [lo, hi] form the
/// indexes probe, saturating at the Value domain edges (a strict lower
/// bound at INT64_MAX, or a strict upper bound at INT64_MIN, admits
/// nothing). Returns false when the closed interval is empty.
bool CloseInterval(storage::Value lo, bool lo_strict, storage::Value hi,
                   bool hi_strict, storage::Value* out_lo,
                   storage::Value* out_hi);

/// Materializes `atom`'s annotated bounds against the current binding
/// array (bound-variable bounds read `binding[var]`; the annotation pass
/// guarantees those variables are bound before the atom executes).
/// Missing sides widen to the Value domain edge.
ResolvedRange ResolveRange(const AtomSpec& atom,
                           const storage::Value* binding);

/// Range probe, the counterpart of ProbePoint: attempts to serve a
/// resolved range through the index on `col`. Returns true with *rows holding the matching RowIds in ASCENDING
/// RowId order — the same emission order a filtered full scan would
/// produce, which is what keeps results byte-identical with pushdown on
/// or off. Returns false when the caller should fall back to scan +
/// residual filters: no index on the column, an unordered index kind,
/// or a range too wide to beat the scan (optimizer::RangeProbeProfitable
/// against the index's key extremes).
///
/// Demand recording: whenever an index exists, `stats->range_probes` is
/// incremented even when the probe is declined — a hash-kind column that
/// keeps attracting range demand is exactly what AdaptiveIndexPolicy
/// re-kinds to an ordered organization. `stats` may be null (sizing
/// passes that must not double-count).
bool ProbeRange(const storage::Relation& rel, size_t col,
                const ResolvedRange& range, ColumnProbeStats* stats,
                std::vector<storage::RowId>* rows);

// ---- Resolved access paths ----

/// The row sequence an AccessPath opens, in ascending RowId order:
/// positions [0, size()) map to RowIds either densely (a scan: RowId ==
/// first row + position) or through a cursor (a point-probe bucket or a
/// range-probe row list). Both forms take the atom's RowId window
/// (DatabaseSet::Window): ascending order makes the rows inside it one
/// run, so the sequence is simply shorter. Sharding windows index
/// positions, so every shard of one open sees the same sequence.
class RowSeq {
 public:
  static RowSeq Dense(size_t num_rows, storage::RowInterval window = {}) {
    RowSeq seq;
    const size_t end = std::min<size_t>(num_rows, window.hi);
    seq.first_ = window.lo;
    seq.size_ = end > window.lo ? end - window.lo : 0;
    seq.dense_ = true;
    return seq;
  }
  RowSeq(storage::RowCursor rows, storage::RowInterval window)
      : rows_(rows.Window(window.lo, window.hi)),
        size_(rows_.size()),
        dense_(false) {}

  size_t size() const { return size_; }
  storage::RowId operator[](size_t pos) const {
    return dense_ ? first_ + static_cast<storage::RowId>(pos) : rows_[pos];
  }

  /// Calls fn(row) for positions [begin, min(end, size())). The
  /// dense-or-cursor branch is taken once here, not per row.
  template <typename Fn>
  void ForEach(size_t begin, size_t end, Fn&& fn) const {
    end = std::min(end, size_);
    if (dense_) {
      for (size_t pos = begin; pos < end; ++pos) {
        fn(first_ + static_cast<storage::RowId>(pos));
      }
      return;
    }
    for (size_t pos = begin; pos < end; ++pos) fn(rows_[pos]);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEach(0, size_, fn);
  }

 private:
  RowSeq() = default;

  storage::RowCursor rows_;
  storage::RowId first_ = 0;
  size_t size_ = 0;
  bool dense_ = false;
};

/// How one positive relational atom reads its relation, decided once at
/// plan-build time: a point probe on an indexed column keyed by a
/// constant or an already-bound variable, a range probe over the atom's
/// pushed-down bounds, or a full scan. Carries the (predicate, column)
/// counter slot, so opening it is the only place probes are profiled,
/// and the atom's RowId window (AtomSpec::window), so it is the only place
/// an old-only or delta atom is bounded.
class AccessPath {
 public:
  enum class Kind : uint8_t { kScan, kPoint, kRange };

  AccessPath() = default;

  /// Resolves `atom`'s access to its relation in `db` given the variables
  /// bound before it runs: a point probe on FirstProbeColumn when there
  /// is one (a point probe always beats a range); otherwise a range probe
  /// when the atom carries annotated bounds on an indexed column;
  /// otherwise a scan. Every atom reads Derived: the atom's window is
  /// taken once here (db.Window), and every sequence and batch the path
  /// opens is cut to it. Counters go to `profiler` (the context's, or a
  /// shard's).
  static AccessPath Resolve(const storage::DatabaseSet& db,
                            const AtomSpec& atom,
                            const std::vector<bool>& bound_before,
                            AccessProfiler* profiler);

  Kind kind() const { return kind_; }
  const storage::Relation& rel() const { return *rel_; }
  /// Point paths keyed by a variable bound earlier in the join (the
  /// shape batched probing accelerates), rather than by a constant.
  bool key_is_var() const { return key_var_ >= 0; }
  LocalVar key_var() const { return key_var_; }

  /// Opens the row sequence under `binding`, recording the probe. A
  /// range path whose probe the index declines opens as a scan (the
  /// residual comparison builtins keep the result identical). The
  /// sequence stays valid until the next Open()/Size() of this path.
  RowSeq Open(const storage::Value* binding) {
    return OpenRecording(binding, stats_);
  }

  /// Length of the sequence Open(binding) would return — the same
  /// decision against the same index state — with stats recording off,
  /// so shard sizing never double-counts the probes the workers take.
  size_t Size(const storage::Value* binding) {
    return OpenRecording(binding, nullptr).size();
  }

  /// Resolves a window of point-probe keys in one BatchProbe call
  /// (requires kind() == kPoint): cursors[k] holds keys[k]'s bucket, cut
  /// to the row window. Records point_probes, point_hits (the keys with
  /// rows in the window) and batch_windows.
  void OpenBatch(const storage::Value* keys, size_t n,
                 storage::RowCursor* cursors) const;

 private:
  RowSeq OpenRecording(const storage::Value* binding,
                       ColumnProbeStats* stats) {
    switch (kind_) {
      case Kind::kPoint: {
        RowSeq rows(ProbePoint(*rel_, col_,
                               key_var_ >= 0 ? binding[key_var_] : key_const_,
                               stats),
                    window_);
        if (stats != nullptr) stats->point_hits += rows.size() != 0;
        return rows;
      }
      case Kind::kRange:
        if (ProbeRange(*rel_, col_, ResolveRange(*atom_, binding), stats,
                          &range_rows_)) {
          return RowSeq(
              storage::RowCursor(range_rows_.data(), range_rows_.size()),
              window_);
        }
        break;
      case Kind::kScan:
        break;
    }
    return RowSeq::Dense(rel_->NumRows(), window_);
  }

  const storage::Relation* rel_ = nullptr;
  const AtomSpec* atom_ = nullptr;
  storage::RowInterval window_;
  Kind kind_ = Kind::kScan;
  size_t col_ = 0;
  LocalVar key_var_ = -1;
  storage::Value key_const_ = 0;
  ColumnProbeStats* stats_ = nullptr;
  // Owns the rows a range-path RowSeq views.
  std::vector<storage::RowId> range_rows_;
};

}  // namespace carac::ir

#endif  // CARAC_IR_ACCESS_PATH_H_
