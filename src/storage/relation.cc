#include "storage/relation.h"

#include <algorithm>

#include "storage/emit_window.h"
#include "storage/staging_buffer.h"
#include "util/hash.h"
#include "util/status.h"

namespace carac::storage {

namespace {

/// Kind-dispatched index maintenance: one predictable switch instead of
/// a virtual call per indexed column per insert. The Fast entry points of
/// the header-defined kinds inline here.
inline void IndexAdd(IndexBase* index, RowId row, Value key) {
  switch (index->kind()) {
    case IndexKind::kHash:
      static_cast<HashIndex*>(index)->AddFast(row, key);
      return;
    case IndexKind::kSorted:
      static_cast<SortedIndex*>(index)->AddFast(row, key);
      return;
    case IndexKind::kBtree:
      static_cast<BtreeIndex*>(index)->AddFast(row, key);
      return;
    case IndexKind::kSortedArray:
      static_cast<SortedArrayIndex*>(index)->AddFast(row, key);
      return;
    case IndexKind::kLearned:
      // Inherited tail append; the model only covers the stable prefix.
      static_cast<LearnedIndex*>(index)->AddFast(row, key);
      return;
  }
}

/// Kind-dispatched probe, same rationale as IndexAdd.
inline RowCursor IndexProbe(const IndexBase& index, Value value) {
  switch (index.kind()) {
    case IndexKind::kHash:
      return static_cast<const HashIndex&>(index).ProbeFast(value);
    case IndexKind::kSorted:
      return static_cast<const SortedIndex&>(index).ProbeFast(value);
    case IndexKind::kBtree:
      return static_cast<const BtreeIndex&>(index).ProbeFast(value);
    case IndexKind::kSortedArray:
      return static_cast<const SortedArrayIndex&>(index).ProbeFast(value);
    case IndexKind::kLearned:
      return static_cast<const LearnedIndex&>(index).ProbeFast(value);
  }
  return RowCursor();  // Unreachable.
}

}  // namespace

void Relation::Reserve(size_t rows) {
  EnsureArenaCapacity(rows * arity_);
  // Size the table so `rows` entries stay under the 3/4 load ceiling.
  const size_t wanted = DedupTable::SlotsFor(rows);
  if (wanted > table_.capacity()) Rehash(wanted);
}

void Relation::EnsureArenaCapacity(size_t values) {
  if (arena_->capacity() >= values) return;
  // Geometric growth, like the plain vector this replaces.
  const size_t grown = std::max(values, arena_->capacity() * 2);
  if (!arena_shared_) {
    arena_->reserve(grown);
    arena_data_ = arena_->data();
    return;
  }
  // Pinned views are reading this buffer: moving its contents in place
  // would reallocate under them. Copy into a fresh buffer and retire the
  // old one — it stays alive through the views' shared ownership.
  auto fresh = std::make_shared<std::vector<Value>>();
  fresh->reserve(grown);
  fresh->assign(arena_->begin(), arena_->end());
  AdoptArena(std::move(fresh));
}

void Relation::AdoptArena(std::shared_ptr<std::vector<Value>> fresh) {
  arena_ = std::move(fresh);
  arena_data_ = arena_->data();
  arena_shared_ = false;
}

RelationReadView Relation::PinView(RowId upto) {
  CARAC_CHECK(upto <= num_rows_);
  // A zero-row view never dereferences the buffer, so only nonempty pins
  // force copy-on-retire semantics onto later mutations.
  if (upto > 0) arena_shared_ = true;
  return RelationReadView(
      std::shared_ptr<const std::vector<Value>>(arena_), arena_data_, upto,
      arity_);
}

bool Relation::InsertHashed(TupleView tuple, uint64_t hash) {
  // Grow at 3/4 load so linear-probe chains stay short.
  if (table_.NeedsGrowth(num_rows_)) Rehash(table_.capacity() * 2);
  // 0xFFFFFFFF is the empty-slot sentinel, so it must never become a live
  // RowId — fail loudly instead of silently corrupting dedup at 2^32-1
  // rows.
  CARAC_CHECK(num_rows_ < kNoRow);
  const bool fresh = table_.Insert(hash, num_rows_, [&](RowId row) {
    return RowValuesEqual(RowData(row), tuple.data(), arity_);
  });
  if (!fresh) return false;
  // New row: append to the arena (its RowId is already published).
  // Capacity is ensured up front so the append itself never reallocates —
  // rows below any pinned view's bound stay where its readers see them.
  EnsureArenaCapacity((static_cast<size_t>(num_rows_) + 1) * arity_);
  arena_->insert(arena_->end(), tuple.begin(), tuple.end());
  for (const std::unique_ptr<IndexBase>& index : indexes_) {
    IndexAdd(index.get(), num_rows_, tuple[index->column()]);
  }
  ++num_rows_;
  return true;
}

void Relation::Rehash(size_t new_slots) {
  table_.Rebuild(new_slots, num_rows_, [&](RowId row) {
    return util::HashSpan(RowData(row), arity_);
  });
}

void Relation::DeclareIndex(size_t column, IndexKind kind) {
  CARAC_CHECK(column < arity_);
  if (HasIndex(column)) return;
  if (index_by_column_.size() < arity_) {
    index_by_column_.resize(arity_, kNoIndex);
  }
  index_by_column_[column] = indexes_.size();
  indexes_.push_back(MakeIndex(column, kind));
  IndexBase& index = *indexes_.back();
  for (RowId row = 0; row < num_rows_; ++row) {
    index.Add(row, RowData(row)[column]);
  }
  // A bulk build is a quiescent point: everything present is stable.
  index.Stabilize(num_rows_);
}

void Relation::RedeclareIndex(size_t column, IndexKind kind) {
  if (HasIndex(column) && IndexKindOf(column) != kind) {
    std::unique_ptr<IndexBase>& slot = indexes_[index_by_column_[column]];
    slot = MakeIndex(column, kind);
    for (RowId row = 0; row < num_rows_; ++row) {
      slot->Add(row, RowData(row)[column]);
    }
    slot->Stabilize(num_rows_);
    return;
  }
  DeclareIndex(column, kind);
}

RowCursor Relation::Probe(size_t column, Value value) const {
  CARAC_CHECK(HasIndex(column));
  return IndexProbe(*indexes_[index_by_column_[column]], value);
}

void Relation::BatchProbe(size_t column, const Value* keys, size_t n,
                          RowCursor* out) const {
  CARAC_CHECK(HasIndex(column));
  indexes_[index_by_column_[column]]->BatchProbe(keys, n, out);
}

IndexKind Relation::IndexKindOf(size_t column) const {
  CARAC_CHECK(HasIndex(column));
  return indexes_[index_by_column_[column]]->kind();
}

util::Status Relation::ProbeRange(size_t column, Value lo, Value hi,
                                  std::vector<RowId>* out) const {
  CARAC_CHECK(HasIndex(column));
  return indexes_[index_by_column_[column]]->ProbeRange(lo, hi, out);
}

void Relation::StabilizeIndexes() {
  for (const std::unique_ptr<IndexBase>& index : indexes_) {
    index->Stabilize(num_rows_);
  }
}

void Relation::Clear() {
  num_rows_ = 0;
  watermark_ = 0;
  if (arena_shared_) {
    // Pinned views may still be walking this buffer; recycling its
    // storage would overwrite rows under their readers. Retire it — the
    // views' shared ownership keeps it alive — and start fresh. Delta
    // stores are never pinned, so the evaluator's per-iteration clears
    // keep today's capacity-preserving fast path.
    AdoptArena(std::make_shared<std::vector<Value>>());
  } else {
    arena_->clear();
  }
  table_.Clear();
  for (const std::unique_ptr<IndexBase>& index : indexes_) index->Clear();
}

void Relation::Absorb(Relation* other) {
  CARAC_CHECK(other->arity_ == arity_);
  Reserve(num_rows_ + other->num_rows_);
  for (RowId row = 0; row < other->num_rows_; ++row) {
    Insert(other->View(row));
  }
  other->Clear();
}

size_t Relation::InsertStaged(const StagingBuffer& staged,
                              const Relation* unless_in) {
  CARAC_CHECK(staged.arity() == arity_);
  if (staged.empty()) return 0;
  Reserve(static_cast<size_t>(num_rows_) + staged.NumRows());
  EmitWindow window;
  window.Bind(unless_in, this);
  return window.InsertRows(staged.RowData(0), staged.NumRows());
}

void Relation::CopyIndexDeclarations(const Relation& other) {
  for (const std::unique_ptr<IndexBase>& index : other.indexes_) {
    DeclareIndex(index->column(), index->kind());
  }
}

void Relation::LoadContents(std::vector<Value> arena, uint32_t num_rows,
                            RowId watermark) {
  CARAC_CHECK(arena.size() == static_cast<size_t>(num_rows) * arity_);
  CARAC_CHECK(watermark <= num_rows);
  // Adopt the loaded arena as a fresh buffer; any pinned views keep the
  // retired one (a snapshot open under live readers must not mutate the
  // rows they are scanning).
  AdoptArena(std::make_shared<std::vector<Value>>(std::move(arena)));
  num_rows_ = num_rows;
  watermark_ = watermark;
  // Rebuild the dedup table at the same load factor Reserve() targets.
  Rehash(DedupTable::SlotsFor(num_rows));
  for (const std::unique_ptr<IndexBase>& index : indexes_) {
    index->Clear();
    for (RowId row = 0; row < num_rows_; ++row) {
      index->Add(row, RowData(row)[index->column()]);
    }
    // Snapshot load is a quiescent point: the loaded rows are stable.
    index->Stabilize(num_rows_);
  }
}

std::vector<Tuple> Relation::SortedRows() const {
  std::vector<Tuple> out;
  out.reserve(num_rows_);
  for (RowId row = 0; row < num_rows_; ++row) {
    out.push_back(View(row).ToTuple());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace carac::storage
