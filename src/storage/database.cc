#include "storage/database.h"

#include <algorithm>
#include <utility>

#include "util/status.h"

namespace carac::storage {

RelationId DatabaseSet::AddRelation(const std::string& name, size_t arity) {
  const RelationId id = static_cast<RelationId>(stores_.size());
  Store store;
  store.derived = std::make_unique<Relation>(name, arity);
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
  stores_[id].derived->DeclareIndex(column, kind);
}

void DatabaseSet::RedeclareIndex(RelationId id, size_t column,
                                 IndexKind kind) {
  if (!indexing_enabled_) return;
  CARAC_CHECK(id < stores_.size());
  stores_[id].derived->RedeclareIndex(column, kind);
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
    Relation& derived = *store.derived;
    Relation& fresh = *store.delta_new;
    store.delta_lo = derived.NumRows();
    if (!fresh.empty()) {
      derived.Reserve(derived.size() + fresh.size());
      for (RowId row = 0; row < fresh.NumRows(); ++row) {
        derived.Insert(fresh.View(row));
      }
      fresh.Clear();
    }
    store.delta_hi = derived.NumRows();
  }
}

RowId DatabaseSet::OldRowLimit(RelationId id) const {
  CARAC_CHECK(id < stores_.size());
  const Store& store = stores_[id];
  CARAC_CHECK(store.delta_hi == store.derived->NumRows());
  return store.delta_lo;
}

bool DatabaseSet::AnyDeltaNonEmpty(
    const std::vector<RelationId>& relations) const {
  for (RelationId id : relations) {
    if (stores_[id].delta_lo != stores_[id].delta_hi) return true;
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
  store.delta_new->Clear();
  const Relation& derived = *store.derived;
  store.delta_hi = derived.NumRows();
  store.delta_lo = std::min(derived.watermark(), store.delta_hi);
  return store.delta_hi - store.delta_lo;
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
  store.delta_new->Clear();
  edb_rows_[id].clear();
  store.derived->Reserve(facts.size());
  for (Tuple& fact : facts) InsertFact(id, std::move(fact));
  store.delta_lo = store.delta_hi = store.derived->NumRows();
}

void DatabaseSet::ClearFacts(RelationId id) {
  CARAC_CHECK(id < stores_.size());
  Store& store = stores_[id];
  store.derived->Clear();
  store.delta_new->Clear();
  store.delta_lo = store.delta_hi = 0;
  edb_rows_[id].clear();
}

void DatabaseSet::ClearAll() {
  for (Store& store : stores_) {
    store.derived->Clear();
    store.delta_new->Clear();
    store.delta_lo = store.delta_hi = 0;
  }
  for (std::vector<RowId>& rows : edb_rows_) rows.clear();
  epoch_ = 0;
}

}  // namespace carac::storage

