#ifndef CARAC_STORAGE_DATABASE_H_
#define CARAC_STORAGE_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/relation.h"
#include "storage/symbol_table.h"

namespace carac::storage {

/// Dense id of a relation inside a DatabaseSet.
using RelationId = uint32_t;

/// Which store of a relation an operator reads or writes (paper §V-D):
///   Derived  — all facts discovered so far (plus EDB facts),
///   DeltaNew — write-only facts discovered in the current iteration.
/// The paper's third store, DeltaKnown (the previous iteration's facts),
/// is the tail of the append-only Derived arena: a RowWindow, not a store.
enum class DbKind : uint8_t { kDerived = 0, kDeltaNew = 1 };

/// The Derived rows an atom reads: every row, the "old" rows that predate
/// the current delta, or the delta itself (the paper's DeltaKnown).
enum class RowWindow : uint8_t { kAll = 0, kOld = 1, kDelta = 2 };

/// A half-open RowId interval [lo, hi) of a Derived arena.
struct RowInterval {
  RowId lo = 0;
  RowId hi = kAllRows;
};

/// Owns both stores and the delta window of every relation plus the
/// symbol table. This is the paper's pluggable "relational layer":
/// read/write access, clear, swap and diff, with the relational operators
/// implemented on top by the interpreter and the compiled backends.
class DatabaseSet {
 public:
  DatabaseSet() = default;
  DatabaseSet(const DatabaseSet&) = delete;
  DatabaseSet& operator=(const DatabaseSet&) = delete;

  /// Registers a relation; ids are dense and returned in creation order.
  RelationId AddRelation(const std::string& name, size_t arity);

  size_t NumRelations() const { return stores_.size(); }
  const std::string& RelationName(RelationId id) const;
  size_t RelationArity(RelationId id) const;

  Relation& Get(RelationId id, DbKind kind);
  const Relation& Get(RelationId id, DbKind kind) const;

  /// When disabled, DeclareIndex becomes a no-op: probes fall back to
  /// filtered scans. Reproduces the paper's "Unindexed" configurations.
  void SetIndexingEnabled(bool enabled) { indexing_enabled_ = enabled; }
  bool indexing_enabled() const { return indexing_enabled_; }

  /// Organization used by subsequent DeclareIndex calls that have no
  /// per-column override (hash by default).
  void SetDefaultIndexKind(IndexKind kind) { index_kind_ = kind; }
  IndexKind default_index_kind() const { return index_kind_; }

  /// Pins the organization of the index on (`id`, `column`), overriding
  /// the default kind for subsequent DeclareIndex(id, column) calls. The
  /// optimizer's auto policy and DSL index hints register through here
  /// before lowering declares the rule indexes.
  void SetIndexKindOverride(RelationId id, size_t column, IndexKind kind);

  /// Declares an index on `column` of `id`'s Derived store, using the
  /// per-column override if one was set, else the default kind. DeltaNew
  /// carries no index: it is only written, and the emit dedup probes its
  /// dedup table.
  void DeclareIndex(RelationId id, size_t column);

  /// Declares an index on `column` of `id`'s Derived store with an
  /// explicit organization.
  void DeclareIndex(RelationId id, size_t column, IndexKind kind);

  /// Re-declares, replacing an existing declaration's kind on Derived
  /// (snapshot restore: the persisted kind is authoritative).
  void RedeclareIndex(RelationId id, size_t column, IndexKind kind);

  /// Inserts an EDB (or precomputed) fact into Derived; returns true if
  /// new. InsertFact is the ONLY entry point that marks a tuple as EDB:
  /// the evaluator writes derived facts through Get(...).Insert directly,
  /// so the per-relation EDB row list stays exact — it is what stratum
  /// recompute restores after clearing a relation.
  bool InsertFact(RelationId id, Tuple tuple);

  /// Pre-sizes the Derived arena and hash table of `id` for `rows` facts
  /// (bulk-load support; see Relation::Reserve).
  void Reserve(RelationId id, size_t rows);

  /// End-of-iteration maintenance for the relations of one stratum
  /// (SwapClearOp, §V-B1): appends DeltaNew to Derived, makes the appended
  /// rows the new delta window, and clears DeltaNew.
  void SwapClearMerge(const std::vector<RelationId>& relations);

  /// The RowId bound of `id`'s "old" Derived rows: the delta window's
  /// start. Every window ends at Derived's last row when it is set, and
  /// SPJs write DeltaNew, so Derived does not grow while a window is
  /// read; CHECKs that the window still ends at Derived's row count, once
  /// per call.
  RowId OldRowLimit(RelationId id) const;

  /// The Derived rows `window` selects for `id`: [0, kAllRows) for kAll,
  /// [0, OldRowLimit) for kOld and the delta window for kDelta (the last
  /// two CHECK as OldRowLimit does).
  RowInterval Window(RelationId id, RowWindow window) const {
    if (window == RowWindow::kAll) return {};
    const RowId lo = OldRowLimit(id);
    if (window == RowWindow::kOld) return {0, lo};
    return {lo, stores_[id].delta_hi};
  }

  /// Number of rows in `id`'s delta window (no CHECK: statistics read it
  /// at any time).
  size_t DeltaSize(RelationId id) const {
    return stores_[id].delta_hi - stores_[id].delta_lo;
  }

  /// The `diff` termination test: true if any delta window is non-empty.
  bool AnyDeltaNonEmpty(const std::vector<RelationId>& relations) const;

  // ---- Epoch bookkeeping (incremental evaluation) ----
  //
  // An update epoch is: append facts to Derived stores, then bring every
  // IDB relation back to fixpoint paying cost proportional to the delta.
  // The arena layout makes the delta cheap to name: relations are
  // append-only with dense RowIds, so "this epoch's new facts" is the
  // Derived row range past the per-relation watermark.

  /// Monotone epoch counter; advanced once per completed evaluation
  /// (full run or update epoch).
  uint64_t epoch() const { return epoch_; }

  /// True if `id`'s Derived store gained rows since the last epoch
  /// boundary.
  bool ChangedSinceWatermark(RelationId id) const;

  /// Clears DeltaNew of `id` and sets its delta window to the Derived rows
  /// appended past the epoch watermark (dropping any window the previous
  /// evaluation left). Copies nothing. Returns the number of rows in the
  /// window.
  size_t SeedDeltaFromWatermark(RelationId id);

  /// Ends the current epoch: advances every Derived watermark to its
  /// current row count and increments the epoch counter.
  void AdvanceEpoch();

  /// Drops Derived and DeltaNew of `id` and re-inserts its EDB facts (the
  /// tuples recorded by InsertFact) — the stratum-recompute reset. The
  /// delta window is left empty at the end of the re-inserted rows.
  /// Derived facts of the relation are lost by design; EDB facts survive
  /// even when they were appended after derived rows in the arena.
  void ResetToEdbFacts(RelationId id);

  /// Unloads `id` completely: both stores, the delta window and the EDB
  /// bookkeeping.
  /// Unlike the capacity-keeping Clear() the evaluator uses on deltas,
  /// this is a full logical delete (test/REPL support for reloading a
  /// relation's fact set).
  void ClearFacts(RelationId id);

  /// Clears both stores and the delta window of every relation (test
  /// support).
  void ClearAll();

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  // ---- Durable snapshots (implemented in storage/snapshot.cc) ----
  //
  // A snapshot serializes the full logical state of the set — every
  // Derived arena verbatim (insertion order and hence RowIds preserved),
  // the EDB row bookkeeping, the per-relation epoch watermarks, the
  // interned-symbol table and the epoch counter — under a versioned
  // header with per-section checksums. Deltas are NOT persisted: at a
  // closed epoch they are dead (the next epoch re-seeds them from the
  // watermarks), so an opened relation has an empty delta window.

  /// Writes a snapshot of the current state to `path` (atomically: a
  /// temp file in the same directory is renamed over `path` on success).
  util::Status SaveSnapshot(const std::string& path) const;

  /// Replaces this set's state with a snapshot previously written by
  /// SaveSnapshot. The set must either be empty (relations are
  /// registered from the snapshot) or already hold the same schema —
  /// relation count, names and arities in registration order (the usual
  /// case: the program source was re-parsed before restoring). Dedup
  /// hash tables and declared column indexes are rebuilt in memory;
  /// corruption anywhere (header, symbols, any relation section) fails
  /// with a diagnostic Status and leaves partially loaded relations
  /// overwritten — callers treat a failed open as a discarded set.
  util::Status OpenSnapshot(const std::string& path);

 private:
  /// The delta is the Derived RowIds [delta_lo, delta_hi).
  struct Store {
    std::unique_ptr<Relation> derived;
    std::unique_ptr<Relation> delta_new;
    RowId delta_lo = 0;
    RowId delta_hi = 0;
  };

  std::vector<Store> stores_;
  /// Per relation: Derived RowIds inserted via InsertFact (EDB facts).
  /// RowIds are stable in the append-only arena, so an entry stays valid
  /// until the relation is cleared — which only ResetToEdbFacts /
  /// ClearFacts (which maintain it) and ClearAll (which drops it) do to
  /// Derived. Kept OUT of Store: Get() resolves a Store per emission on
  /// the evaluator's hot path, and widening that array's stride past one
  /// cache line cost a measured ~20% on emission-heavy interpreted runs
  /// (CSPA-unoptimized A/B).
  std::vector<std::vector<RowId>> edb_rows_;
  SymbolTable symbols_;
  uint64_t epoch_ = 0;
  bool indexing_enabled_ = true;
  IndexKind index_kind_ = IndexKind::kHash;
  /// (relation, column) -> pinned organization; consulted by the
  /// two-argument DeclareIndex. Small (a handful of declared indexes per
  /// program), so an ordered map is plenty.
  std::map<std::pair<RelationId, size_t>, IndexKind> index_kind_overrides_;
};

}  // namespace carac::storage

#endif  // CARAC_STORAGE_DATABASE_H_
