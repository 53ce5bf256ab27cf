#include "storage/database.h"

#include <algorithm>
#include <utility>

#include "util/status.h"

namespace carac::storage {

const char* DbKindName(DbKind kind) {
  switch (kind) {
    case DbKind::kDerived:
      return "derived";
    case DbKind::kDeltaKnown:
      return "delta_known";
    case DbKind::kDeltaNew:
      return "delta_new";
  }
  return "?";
}

RelationId DatabaseSet::AddRelation(const std::string& name, size_t arity) {
  const RelationId id = static_cast<RelationId>(stores_.size());
  Store store;
  store.derived = std::make_unique<Relation>(name, arity);
  store.delta_known = std::make_unique<Relation>(name + "_dk", arity);
  store.delta_new = std::make_unique<Relation>(name + "_dn", arity);
  stores_.push_back(std::move(store));
  edb_rows_.emplace_back();
  return id;
}

const std::string& DatabaseSet::RelationName(RelationId id) const {
  CARAC_CHECK(id < stores_.size());
  return stores_[id].derived->name();
}

size_t DatabaseSet::RelationArity(RelationId id) const {
  CARAC_CHECK(id < stores_.size());
  return stores_[id].derived->arity();
}

Relation& DatabaseSet::Get(RelationId id, DbKind kind) {
  CARAC_CHECK(id < stores_.size());
  Store& store = stores_[id];
  switch (kind) {
    case DbKind::kDerived:
      return *store.derived;
    case DbKind::kDeltaKnown:
      return *store.delta_known;
    case DbKind::kDeltaNew:
      return *store.delta_new;
  }
  return *store.derived;  // Unreachable.
}

const Relation& DatabaseSet::Get(RelationId id, DbKind kind) const {
  return const_cast<DatabaseSet*>(this)->Get(id, kind);
}

void DatabaseSet::SetIndexKindOverride(RelationId id, size_t column,
                                       IndexKind kind) {
  index_kind_overrides_[{id, column}] = kind;
}

void DatabaseSet::DeclareIndex(RelationId id, size_t column) {
  const auto it = index_kind_overrides_.find({id, column});
  DeclareIndex(id, column,
               it != index_kind_overrides_.end() ? it->second : index_kind_);
}

void DatabaseSet::DeclareIndex(RelationId id, size_t column,
                               IndexKind kind) {
  if (!indexing_enabled_) return;
  CARAC_CHECK(id < stores_.size());
  Store& store = stores_[id];
  store.derived->DeclareIndex(column, kind);
  store.delta_known->DeclareIndex(column, kind);
  store.delta_new->DeclareIndex(column, kind);
}

void DatabaseSet::RedeclareIndex(RelationId id, size_t column,
                                 IndexKind kind) {
  if (!indexing_enabled_) return;
  CARAC_CHECK(id < stores_.size());
  Store& store = stores_[id];
  store.derived->RedeclareIndex(column, kind);
  store.delta_known->RedeclareIndex(column, kind);
  store.delta_new->RedeclareIndex(column, kind);
}

bool DatabaseSet::InsertFact(RelationId id, Tuple tuple) {
  Relation& derived = Get(id, DbKind::kDerived);
  CARAC_CHECK(tuple.size() == derived.arity());
  const uint64_t hash = derived.Hash(tuple);
  if (derived.InsertHashed(tuple, hash)) {
    edb_rows_[id].push_back(derived.NumRows() - 1);
    return true;
  }
  // Dedup hit: the tuple already exists — but possibly only as a DERIVED
  // row. An asserted fact must survive stratum recompute regardless of
  // what the rules conclude, so register the existing row as EDB too.
  // edb_rows_ stays ascending (appends use strictly increasing RowIds),
  // making the membership probe a binary search; a mid-vector insert
  // happens only on this re-assertion path.
  const RowId row = derived.FindRowHashed(tuple, hash);
  std::vector<RowId>& rows = edb_rows_[id];
  const auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it == rows.end() || *it != row) rows.insert(it, row);
  return false;
}

void DatabaseSet::Reserve(RelationId id, size_t rows) {
  Get(id, DbKind::kDerived).Reserve(rows);
}

void DatabaseSet::SwapClearMerge(const std::vector<RelationId>& relations) {
  for (RelationId id : relations) {
    Store& store = stores_[id];
    store.delta_known->Clear();
    std::swap(store.delta_known, store.delta_new);
    // Merge the freshly swapped-in DeltaKnown into Derived: every fact
    // readable from a delta must also be readable from Derived.
    const Relation& known = *store.delta_known;
    if (!known.empty()) {
      store.derived->Reserve(store.derived->size() + known.size());
      for (RowId row = 0; row < known.NumRows(); ++row) {
        store.derived->Insert(known.View(row));
      }
    }
  }
}

RowId DatabaseSet::OldRowLimit(RelationId id) const {
  CARAC_CHECK(id < stores_.size());
  const Store& store = stores_[id];
  const Relation& derived = *store.derived;
  const Relation& known = *store.delta_known;
  if (known.empty()) return derived.NumRows();
  CARAC_CHECK(known.NumRows() <= derived.NumRows());
  const RowId limit = derived.NumRows() - known.NumRows();
  CARAC_CHECK(derived.View(limit) == known.View(0));
  return limit;
}

bool DatabaseSet::AnyDeltaKnownNonEmpty(
    const std::vector<RelationId>& relations) const {
  for (RelationId id : relations) {
    if (!stores_[id].delta_known->empty()) return true;
  }
  return false;
}

bool DatabaseSet::ChangedSinceWatermark(RelationId id) const {
  CARAC_CHECK(id < stores_.size());
  const Relation& derived = *stores_[id].derived;
  return derived.NumRows() > derived.watermark();
}

size_t DatabaseSet::SeedDeltaFromWatermark(RelationId id) {
  CARAC_CHECK(id < stores_.size());
  Store& store = stores_[id];
  store.delta_known->Clear();
  store.delta_new->Clear();
  const Relation& derived = *store.derived;
  const RowId begin = derived.watermark();
  const RowId end = derived.NumRows();
  if (begin >= end) return 0;
  store.delta_known->Reserve(end - begin);
  for (RowId row = begin; row < end; ++row) {
    store.delta_known->Insert(derived.View(row));
  }
  return end - begin;
}

void DatabaseSet::AdvanceEpoch() {
  for (Store& store : stores_) store.derived->AdvanceWatermark();
  ++epoch_;
}

void DatabaseSet::ResetToEdbFacts(RelationId id) {
  CARAC_CHECK(id < stores_.size());
  Store& store = stores_[id];
  // Materialize before clearing: edb_rows_ points into the arena that
  // Clear() is about to drop.
  std::vector<Tuple> facts;
  facts.reserve(edb_rows_[id].size());
  for (RowId row : edb_rows_[id]) {
    facts.push_back(store.derived->View(row).ToTuple());
  }
  store.derived->Clear();
  store.delta_known->Clear();
  store.delta_new->Clear();
  edb_rows_[id].clear();
  store.derived->Reserve(facts.size());
  for (Tuple& fact : facts) InsertFact(id, std::move(fact));
}

void DatabaseSet::ClearFacts(RelationId id) {
  CARAC_CHECK(id < stores_.size());
  Store& store = stores_[id];
  store.derived->Clear();
  store.delta_known->Clear();
  store.delta_new->Clear();
  edb_rows_[id].clear();
}

void DatabaseSet::ClearAll() {
  for (Store& store : stores_) {
    store.derived->Clear();
    store.delta_known->Clear();
    store.delta_new->Clear();
  }
  for (std::vector<RowId>& rows : edb_rows_) rows.clear();
  epoch_ = 0;
}

}  // namespace carac::storage

