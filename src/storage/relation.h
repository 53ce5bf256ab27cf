#ifndef CARAC_STORAGE_RELATION_H_
#define CARAC_STORAGE_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "storage/dedup_table.h"
#include "storage/index.h"
#include "storage/read_view.h"
#include "storage/tuple.h"
#include "util/hash.h"
#include "util/status.h"

namespace carac::storage {

class StagingBuffer;

/// An in-memory set-semantics relation backed by a columnar arena:
///
///   - Tuples live row-major in ONE contiguous std::vector<Value> arena
///     (`arity` values per row), identified by a dense 32-bit RowId in
///     insertion order. Inserting a tuple is an append — no per-tuple heap
///     node, no pointer chasing on scans.
///   - Set semantics comes from an open-addressing hash table (linear
///     probing, power-of-two capacity, wyhash-style mixing — util/hash.h)
///     mapping row hashes to RowIds (storage/dedup_table.h). Each slot is
///     4 bytes: a RowId plus a hash tag in the bits the RowId does not
///     need, so a probe skips most non-matching slots without reading the
///     arena, and a rehash is a flat re-bucketing pass.
///   - Per-column secondary indexes (storage/index.h) hold RowIds. RowIds
///     never move, so neither arena growth nor rehash invalidates an
///     index — incremental maintenance on insert is all that is needed.
///
/// Readers address rows through TupleView (pointer + arity span into the
/// arena) and must not hold views across an insert into the *same*
/// relation (arena growth may reallocate). The evaluator never does:
/// rules read Derived and write DeltaNew.
///
/// The arena buffer itself is held through a shared_ptr so the serving
/// layer can pin epoch-snapshot read views (PinView): once a buffer has
/// been pinned, any operation that would invalidate its rows — growth
/// past capacity, Clear, LoadContents — RETIRES the buffer (installs a
/// fresh copy for the live relation) instead of mutating it in place.
/// Appends within capacity keep the buffer: they only touch rows past
/// every pinned bound. Unpinned buffers grow and clear exactly as
/// before, so the evaluator's delta stores never pay for this.
class Relation {
 public:
  Relation(std::string name, size_t arity)
      : name_(std::move(name)),
        arity_(arity),
        arena_(std::make_shared<std::vector<Value>>()) {}

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Pre-sizes the arena and the hash table for `rows` tuples so bulk
  /// loads do not pay growth/rehash churn. Never shrinks.
  void Reserve(size_t rows);

  /// Inserts a tuple (copying it into the arena); returns true if it was
  /// new. Indexes are maintained incrementally. Accepts Tuple or
  /// TupleView; `tuple` may not alias this relation's own arena unless it
  /// is already present (a self-view is by definition a duplicate, so
  /// that case is safe).
  bool Insert(TupleView tuple) {
    CARAC_CHECK(tuple.size() == arity_);
    return InsertHashed(tuple, Hash(tuple));
  }
  /// Overloads for Tuple lvalues and braced call sites (`Insert({1, 2})`),
  /// which cannot reach the TupleView conversion on their own.
  bool Insert(const Tuple& tuple) { return Insert(TupleView(tuple)); }
  bool Insert(std::initializer_list<Value> values) {
    return Insert(TupleView(values.begin(), values.size()));
  }

  bool Contains(TupleView tuple) const {
    CARAC_CHECK(tuple.size() == arity_);
    return ContainsHashed(tuple, Hash(tuple));
  }
  bool Contains(const Tuple& tuple) const {
    return Contains(TupleView(tuple));
  }
  bool Contains(std::initializer_list<Value> values) const {
    return Contains(TupleView(values.begin(), values.size()));
  }

  /// RowId of the row equal to `tuple`, or kNoRow when absent.
  static constexpr RowId kNoRow = DedupTable::kEmpty;
  RowId FindRow(TupleView tuple) const {
    CARAC_CHECK(tuple.size() == arity_);
    return FindRowHashed(tuple, Hash(tuple));
  }

  // ---- Hash-once probes (the emit kernel, storage/emit_window.h) ----
  //
  // The same operations on a tuple of arity() values whose Hash() the
  // caller computed once and hands to every table it probes.

  /// The dedup hash of a row of this relation's arity.
  uint64_t Hash(TupleView tuple) const {
    return util::HashSpan(tuple.data(), arity_);
  }
  bool ContainsHashed(TupleView tuple, uint64_t hash) const {
    return num_rows_ != 0 && FindRowHashed(tuple, hash) != kNoRow;
  }
  RowId FindRowHashed(TupleView tuple, uint64_t hash) const {
    return table_.Find(hash, [&](RowId row) {
      return RowValuesEqual(RowData(row), tuple.data(), arity_);
    });
  }
  bool InsertHashed(TupleView tuple, uint64_t hash);
  /// Pulls the home slot of `hash` towards the cache.
  void PrefetchSlot(uint64_t hash) const { table_.Prefetch(hash); }

  // ---- Row addressing ----

  uint32_t NumRows() const { return num_rows_; }

  /// Raw row-major pointer to row `row` (arity() values).
  const Value* RowData(RowId row) const {
    return arena_data_ + static_cast<size_t>(row) * arity_;
  }

  TupleView View(RowId row) const { return TupleView(RowData(row), arity_); }

  /// Range-for support over all rows, in insertion (RowId) order:
  ///   for (TupleView t : rel.rows()) ...
  class RowIterator {
   public:
    RowIterator(const Relation* rel, RowId row) : rel_(rel), row_(row) {}
    TupleView operator*() const { return rel_->View(row_); }
    RowIterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator!=(const RowIterator& other) const {
      return row_ != other.row_;
    }

   private:
    const Relation* rel_;
    RowId row_;
  };
  class RowRange {
   public:
    explicit RowRange(const Relation* rel) : rel_(rel) {}
    RowIterator begin() const { return RowIterator(rel_, 0); }
    RowIterator end() const { return RowIterator(rel_, rel_->NumRows()); }

   private:
    const Relation* rel_;
  };
  RowRange rows() const { return RowRange(this); }

  // ---- Epoch watermark ----

  /// Rows with RowId >= watermark() were appended after the watermark was
  /// last advanced. Incremental evaluation advances the Derived watermark
  /// at every epoch boundary, so "this epoch's new facts" is exactly the
  /// row range [watermark, NumRows) — no per-tuple bookkeeping needed on
  /// top of the append-only arena.
  RowId watermark() const { return watermark_; }

  /// Records the current row count as the epoch boundary and lets the
  /// indexes compact over the now-stable row prefix (kSortedArray
  /// rebuilds its immutable arrays here — a quiescent point, so no
  /// reader ever observes the rebuild).
  void AdvanceWatermark() {
    watermark_ = num_rows_;
    StabilizeIndexes();
  }

  /// Tells every index that all current rows are stable (append-only
  /// arenas never remove rows before Clear). Must only be called at
  /// quiescent points — never while probe cursors are live.
  void StabilizeIndexes();

  // ---- Pinned read views (watermark-bounded cursors) ----

  /// Pins a zero-copy read view over rows [0, upto) (`upto` <= NumRows;
  /// the serving layer passes watermark() so the view is exactly the
  /// last closed epoch). The returned view stays valid for its whole
  /// lifetime regardless of what happens to this relation afterwards:
  /// pinning marks the current arena buffer shared, and every later
  /// operation that would disturb rows below `upto` retires the buffer
  /// instead of mutating it. Must be called from the relation's writer
  /// thread (a quiescent point); the VIEW may then be read from any
  /// thread concurrently with further writer appends.
  RelationReadView PinView(RowId upto);
  RelationReadView PinViewAtWatermark() { return PinView(watermark_); }

  // ---- Indexes ----

  /// Declares an index on `column` (idempotent — the first declaration's
  /// kind wins) and builds it over the current contents.
  void DeclareIndex(size_t column, IndexKind kind = IndexKind::kHash);

  /// Declares an index on `column` with `kind`, REPLACING an existing
  /// declaration of a different kind (rebuilt over current contents).
  /// Snapshot restore uses this: the persisted per-index kind is
  /// authoritative over whatever the engine declared at Prepare().
  void RedeclareIndex(size_t column, IndexKind kind);

  bool HasIndex(size_t column) const {
    return column < index_by_column_.size() &&
           index_by_column_[column] != kNoIndex;
  }

  /// Probes the index on `column` for `value`, returning a cursor over
  /// the matching RowIds (valid until this relation gains rows — the
  /// TupleView aliasing rule). Requires HasIndex(column).
  RowCursor Probe(size_t column, Value value) const;

  /// Resolves `n` probe keys against the index on `column` in one call,
  /// writing one cursor per key (see IndexBase::BatchProbe). Requires
  /// HasIndex(column).
  void BatchProbe(size_t column, const Value* keys, size_t n,
                  RowCursor* out) const;

  /// Kind of the index on `column`. Requires HasIndex(column).
  IndexKind IndexKindOf(size_t column) const;

  /// Range probe [lo, hi] in ascending column order. Requires
  /// HasIndex(column); fails with FailedPrecondition (naming the kind) if
  /// the index kind is not ordered.
  util::Status ProbeRange(size_t column, Value lo, Value hi,
                          std::vector<RowId>* out) const;

  /// Smallest/largest key in the index on `column` (see
  /// IndexBase::KeyBounds). False when the index is empty or its kind
  /// does not track key bounds. Requires HasIndex(column).
  bool IndexKeyBounds(size_t column, Value* min, Value* max) const {
    return indexes_[index_by_column_[column]]->KeyBounds(min, max);
  }

  /// Index declarations in declaration order (snapshot serialization).
  size_t NumIndexes() const { return indexes_.size(); }
  const IndexBase& IndexAt(size_t i) const { return *indexes_[i]; }

  // ---- Bulk maintenance ----

  /// Removes all tuples, keeping index declarations and storage capacity
  /// (delta stores are cleared every iteration; dropping capacity would
  /// re-pay growth each time). Resets the epoch watermark: after a clear
  /// every subsequently inserted row is "new".
  void Clear();

  /// Moves all tuples of `other` into this relation. `other` is
  /// cleared.
  void Absorb(Relation* other);

  /// Bulk-merges one worker's staging buffer into this relation in staged
  /// order, skipping rows present in `unless_in` (the Derived store, when
  /// this relation is a DeltaNew). Returns the number of rows actually
  /// inserted. Merging each worker's buffer in fixed worker order is the
  /// parallel evaluator's determinism step: the resulting insertion
  /// sequence is identical to the single-threaded one.
  size_t InsertStaged(const StagingBuffer& staged, const Relation* unless_in);

  /// Copies index *declarations* (not contents) from another relation.
  void CopyIndexDeclarations(const Relation& other);

  /// Sorted copy of all rows, for golden tests and result extraction.
  std::vector<Tuple> SortedRows() const;

  // ---- Snapshot support (storage/snapshot.cc) ----

  /// The raw row-major arena (NumRows() * arity() values, insertion
  /// order). Snapshot write serializes it verbatim; that is what makes a
  /// loaded relation byte-identical to the saved one — RowIds, insertion
  /// order and hence SortedRows all survive.
  const std::vector<Value>& arena() const { return *arena_; }

  /// Replaces this relation's contents with `num_rows` rows given
  /// row-major in `arena` (snapshot load). The rows must be distinct —
  /// they come from a set-semantics arena and are checksum-protected on
  /// disk; dedup is NOT re-verified here. Rebuilds the open-addressing
  /// table from scratch and re-populates any declared index, then sets
  /// the epoch watermark to `watermark` (<= num_rows).
  void LoadContents(std::vector<Value> arena, uint32_t num_rows,
                    RowId watermark);

 private:
  static constexpr size_t kNoIndex = static_cast<size_t>(-1);

  /// Grows the slot table to `new_slots` (a power of two) and re-buckets
  /// every row. Indexes are untouched: they store RowIds.
  void Rehash(size_t new_slots);

  /// Makes room for `values` total arena values WITHOUT reallocating the
  /// current buffer in place: when capacity is short, the contents move
  /// to a fresh, larger buffer and the old one is retired (pinned views
  /// keep it alive through their shared_ptr).
  void EnsureArenaCapacity(size_t values);

  /// Installs `fresh` as the live arena buffer, abandoning the current
  /// one to whatever pinned views still hold it.
  void AdoptArena(std::shared_ptr<std::vector<Value>> fresh);

  std::string name_;
  size_t arity_;
  /// Row-major tuple storage: row r occupies [r*arity, (r+1)*arity).
  /// Shared so pinned read views can outlive a retire (see class
  /// comment); all mutation goes through this relation.
  std::shared_ptr<std::vector<Value>> arena_;
  /// Cached arena_->data() — the RowData hot path stays one member load,
  /// exactly as with the previous inline vector. Refreshed whenever the
  /// buffer or its allocation can change.
  const Value* arena_data_ = nullptr;
  /// True once PinView handed the CURRENT buffer to a reader; cleared
  /// when the buffer is retired. While set, Clear/LoadContents/growth
  /// must swap buffers instead of touching pinned rows.
  bool arena_shared_ = false;
  uint32_t num_rows_ = 0;
  /// Epoch boundary: rows >= watermark_ arrived after the last
  /// AdvanceWatermark() call.
  RowId watermark_ = 0;
  /// Open-addressing dedup table over the arena rows (tagged RowIds).
  DedupTable table_;
  /// Owned through the interface; the concrete organization is chosen at
  /// declaration time (storage/index.h factory).
  std::vector<std::unique_ptr<IndexBase>> indexes_;
  // Maps column -> position in indexes_, or kNoIndex.
  std::vector<size_t> index_by_column_;
};

}  // namespace carac::storage

#endif  // CARAC_STORAGE_RELATION_H_
