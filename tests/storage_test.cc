#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/dedup_table.h"
#include "storage/emit_window.h"
#include "storage/relation.h"
#include "storage/staging_buffer.h"
#include "storage/symbol_table.h"
#include "storage/tuple.h"
#include "util/rng.h"

namespace carac::storage {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  const Value a = table.Intern("serialize");
  const Value b = table.Intern("serialize");
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SymbolTableTest, DistinctStringsDistinctIds) {
  SymbolTable table;
  EXPECT_NE(table.Intern("a"), table.Intern("b"));
  EXPECT_EQ(table.Lookup(table.Intern("a")), "a");
  EXPECT_EQ(table.Lookup(table.Intern("b")), "b");
}

TEST(SymbolTableTest, SymbolRangeDisjointFromSmallIntegers) {
  SymbolTable table;
  const Value id = table.Intern("x");
  EXPECT_TRUE(SymbolTable::IsSymbol(id));
  EXPECT_FALSE(SymbolTable::IsSymbol(0));
  EXPECT_FALSE(SymbolTable::IsSymbol(123456789));
  EXPECT_FALSE(SymbolTable::IsSymbol(-5));
}

TEST(TupleTest, HashEqualForEqualTuples) {
  TupleHash hash;
  EXPECT_EQ(hash(Tuple{1, 2, 3}), hash(Tuple{1, 2, 3}));
  EXPECT_NE(hash(Tuple{1, 2, 3}), hash(Tuple{3, 2, 1}));
  EXPECT_NE(hash(Tuple{1}), hash(Tuple{1, 0}));
}

TEST(TupleTest, ToString) {
  EXPECT_EQ(TupleToString({1, 2}), "(1, 2)");
  EXPECT_EQ(TupleToString({}), "()");
}

TEST(TupleViewTest, ViewsCompareByContents) {
  const Tuple a{1, 2, 3};
  const Tuple b{1, 2, 3};
  const Tuple c{1, 2, 4};
  EXPECT_EQ(TupleView(a), TupleView(b));
  EXPECT_NE(TupleView(a), TupleView(c));
  EXPECT_NE(TupleView(a), TupleView(a.data(), 2));
  EXPECT_EQ(TupleView(a).ToTuple(), a);
  EXPECT_EQ(TupleHash()(a), TupleHash()(TupleView(b)));
}

TEST(RelationTest, InsertDeduplicates) {
  Relation rel("R", 2);
  EXPECT_TRUE(rel.Insert({1, 2}));
  EXPECT_FALSE(rel.Insert({1, 2}));
  EXPECT_TRUE(rel.Insert({2, 1}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains({1, 2}));
  EXPECT_FALSE(rel.Contains({9, 9}));
}

TEST(RelationTest, IndexProbeFindsMatches) {
  Relation rel("R", 2);
  rel.DeclareIndex(0);
  rel.Insert({1, 10});
  rel.Insert({1, 11});
  rel.Insert({2, 20});
  EXPECT_TRUE(rel.HasIndex(0));
  EXPECT_FALSE(rel.HasIndex(1));
  EXPECT_EQ(rel.Probe(0, 1).size(), 2u);
  EXPECT_EQ(rel.Probe(0, 2).size(), 1u);
  EXPECT_TRUE(rel.Probe(0, 3).empty());
}

TEST(RelationTest, IndexBuiltOverExistingRows) {
  Relation rel("R", 2);
  rel.Insert({5, 6});
  rel.Insert({5, 7});
  rel.DeclareIndex(0);  // Declared after inserts.
  EXPECT_EQ(rel.Probe(0, 5).size(), 2u);
}

TEST(RelationTest, IndexMaintainedAcrossInserts) {
  Relation rel("R", 2);
  rel.DeclareIndex(1);
  rel.Insert({1, 9});
  rel.Insert({2, 9});
  rel.Insert({3, 8});
  EXPECT_EQ(rel.Probe(1, 9).size(), 2u);
  rel.Insert({4, 9});
  EXPECT_EQ(rel.Probe(1, 9).size(), 3u);
}

TEST(RelationTest, DeclareIndexIdempotent) {
  Relation rel("R", 2);
  rel.DeclareIndex(0);
  rel.DeclareIndex(0);
  rel.Insert({1, 2});
  EXPECT_EQ(rel.Probe(0, 1).size(), 1u);
}

TEST(RelationTest, ClearKeepsIndexDeclarations) {
  Relation rel("R", 2);
  rel.DeclareIndex(0);
  rel.Insert({1, 2});
  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_TRUE(rel.HasIndex(0));
  rel.Insert({3, 4});
  EXPECT_EQ(rel.Probe(0, 3).size(), 1u);
}

TEST(RelationTest, AbsorbMovesAllTuples) {
  Relation a("A", 2), b("B", 2);
  a.Insert({1, 1});
  b.Insert({1, 1});  // Duplicate of a's row.
  b.Insert({2, 2});
  a.Absorb(&b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(a.Contains({2, 2}));
}

TEST(RelationTest, SortedRowsIsSortedAndComplete) {
  Relation rel("R", 2);
  rel.Insert({3, 0});
  rel.Insert({1, 0});
  rel.Insert({2, 0});
  const auto rows = rel.SortedRows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], 1);
  EXPECT_EQ(rows[1][0], 2);
  EXPECT_EQ(rows[2][0], 3);
}

TEST(RelationTest, RowIdsFollowInsertionOrderAndViewsReadThem) {
  Relation rel("R", 3);
  rel.Insert({7, 8, 9});
  rel.Insert({1, 2, 3});
  ASSERT_EQ(rel.NumRows(), 2u);
  EXPECT_EQ(rel.View(0), TupleView(Tuple{7, 8, 9}));
  EXPECT_EQ(rel.View(1), TupleView(Tuple{1, 2, 3}));
  EXPECT_EQ(rel.RowData(1)[2], 3);
  // Range-for yields the same rows in RowId order.
  RowId expected = 0;
  for (TupleView t : rel.rows()) {
    EXPECT_EQ(t, rel.View(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 2u);
}

TEST(RelationTest, SurvivesRehashAndArenaGrowth) {
  // Far past the initial table size, forcing several rehashes and arena
  // reallocations; dedup, membership and index probes must all hold.
  Relation rel("R", 2);
  rel.DeclareIndex(0);
  constexpr int64_t kRows = 10000;
  for (int64_t i = 0; i < kRows; ++i) {
    EXPECT_TRUE(rel.Insert({i, i * 31}));
  }
  for (int64_t i = 0; i < kRows; ++i) {
    EXPECT_FALSE(rel.Insert({i, i * 31}));  // All duplicates.
  }
  EXPECT_EQ(rel.size(), static_cast<size_t>(kRows));
  EXPECT_TRUE(rel.Contains({4321, 4321 * 31}));
  EXPECT_FALSE(rel.Contains({4321, 0}));
  ASSERT_EQ(rel.Probe(0, 777).size(), 1u);
  EXPECT_EQ(rel.View(rel.Probe(0, 777)[0])[1], 777 * 31);
}

TEST(RelationTest, ReserveDoesNotChangeContents) {
  Relation rel("R", 2);
  rel.Insert({1, 2});
  rel.Reserve(5000);
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains({1, 2}));
  EXPECT_FALSE(rel.Insert({1, 2}));
  for (int64_t i = 0; i < 100; ++i) rel.Insert({i, i});
  EXPECT_EQ(rel.size(), 101u);
}

TEST(RelationTest, NullaryRelationHoldsAtMostOneRow) {
  Relation rel("Unit", 0);
  EXPECT_FALSE(rel.Contains(Tuple{}));
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(Tuple{}));
  size_t rows_seen = 0;
  for (TupleView t : rel.rows()) {
    EXPECT_TRUE(t.empty());
    ++rows_seen;
  }
  EXPECT_EQ(rows_seen, 1u);
}

/// The Derived rows in `r`'s delta window, in RowId order.
std::vector<Tuple> DeltaRows(const DatabaseSet& db, RelationId r) {
  const RowInterval window = db.Window(r, RowWindow::kDelta);
  const Relation& derived = db.Get(r, DbKind::kDerived);
  std::vector<Tuple> rows;
  for (RowId row = window.lo; row < window.hi; ++row) {
    rows.push_back(derived.View(row).ToTuple());
  }
  return rows;
}

/// Makes `rows` `r`'s delta window the way an iteration does: emit them
/// into DeltaNew, then merge.
void MergeDelta(DatabaseSet* db, RelationId r,
                std::initializer_list<Tuple> rows) {
  for (const Tuple& row : rows) db->Get(r, DbKind::kDeltaNew).Insert(row);
  db->SwapClearMerge({r});
}

TEST(DatabaseSetTest, TwoStoresAndADeltaWindowPerRelation) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  db.Get(r, DbKind::kDerived).Insert({1, 2});
  db.Get(r, DbKind::kDeltaNew).Insert({5, 6});
  EXPECT_EQ(db.Get(r, DbKind::kDerived).size(), 1u);
  EXPECT_EQ(db.Get(r, DbKind::kDeltaNew).size(), 1u);
  EXPECT_EQ(db.DeltaSize(r), 0u);
  EXPECT_EQ(db.RelationName(r), "R");
  EXPECT_EQ(db.RelationArity(r), 2u);
}

TEST(DatabaseSetTest, SwapClearMergeSemantics) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  db.InsertFact(r, {1, 1});                        // Derived seed.
  MergeDelta(&db, r, {{9, 9}});                    // Previous delta.
  db.Get(r, DbKind::kDeltaNew).Insert({2, 2});     // This iteration.

  db.SwapClearMerge({r});

  // The new rows are the delta; the previous delta is old; DeltaNew is
  // empty; derived gained the merge.
  EXPECT_EQ(DeltaRows(db, r), (std::vector<Tuple>{{2, 2}}));
  EXPECT_EQ(db.OldRowLimit(r), 2u);
  EXPECT_EQ(db.Get(r, DbKind::kDeltaNew).size(), 0u);
  EXPECT_TRUE(db.Get(r, DbKind::kDerived).Contains({1, 1}));
  EXPECT_TRUE(db.Get(r, DbKind::kDerived).Contains({9, 9}));
  EXPECT_TRUE(db.Get(r, DbKind::kDerived).Contains({2, 2}));
}

TEST(DatabaseSetTest, DeltaWindowSubsetOfDerivedAfterSwap) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 1);
  MergeDelta(&db, r, {{7}});
  const std::vector<Tuple> delta = DeltaRows(db, r);
  EXPECT_EQ(delta, (std::vector<Tuple>{{7}}));
  for (const Tuple& t : delta) {
    EXPECT_TRUE(db.Get(r, DbKind::kDerived).Contains(t));
  }
}

TEST(DatabaseSetTest, AnyDeltaNonEmpty) {
  DatabaseSet db;
  const RelationId a = db.AddRelation("A", 1);
  const RelationId b = db.AddRelation("B", 1);
  EXPECT_FALSE(db.AnyDeltaNonEmpty({a, b}));
  MergeDelta(&db, b, {{1}});
  EXPECT_TRUE(db.AnyDeltaNonEmpty({a, b}));
  EXPECT_FALSE(db.AnyDeltaNonEmpty({a}));
  // A merge of nothing empties the window: the `diff` test's fixpoint.
  db.SwapClearMerge({b});
  EXPECT_FALSE(db.AnyDeltaNonEmpty({a, b}));
}

TEST(DatabaseSetTest, IndexingDisabledMakesDeclareNoOp) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  db.SetIndexingEnabled(false);
  db.DeclareIndex(r, 0);
  EXPECT_FALSE(db.Get(r, DbKind::kDerived).HasIndex(0));
  db.SetIndexingEnabled(true);
  db.DeclareIndex(r, 0);
  EXPECT_TRUE(db.Get(r, DbKind::kDerived).HasIndex(0));
}

TEST(DatabaseSetTest, DeclareIndexCoversDerivedOnly) {
  // DeltaNew is write-only (the emit dedup probes its dedup table), so it
  // carries no index; RedeclareIndex re-kinds Derived alone.
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  db.DeclareIndex(r, 1, IndexKind::kHash);
  EXPECT_TRUE(db.Get(r, DbKind::kDerived).HasIndex(1));
  EXPECT_FALSE(db.Get(r, DbKind::kDeltaNew).HasIndex(1));
  db.RedeclareIndex(r, 1, IndexKind::kBtree);
  EXPECT_EQ(db.Get(r, DbKind::kDerived).IndexKindOf(1), IndexKind::kBtree);
  EXPECT_FALSE(db.Get(r, DbKind::kDeltaNew).HasIndex(1));
}

TEST(DatabaseSetTest, ClearAllEmptiesEverything) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 1);
  db.InsertFact(r, {1});
  MergeDelta(&db, r, {{2}});
  db.Get(r, DbKind::kDeltaNew).Insert({3});
  db.ClearAll();
  EXPECT_EQ(db.Get(r, DbKind::kDerived).size(), 0u);
  EXPECT_EQ(db.Get(r, DbKind::kDeltaNew).size(), 0u);
  EXPECT_EQ(db.DeltaSize(r), 0u);
  EXPECT_EQ(db.OldRowLimit(r), 0u);
}

TEST(RelationTest, WatermarkTracksEpochBoundary) {
  Relation r("R", 1);
  r.Insert({1});
  r.Insert({2});
  EXPECT_EQ(r.watermark(), 0u);  // Everything is "new" before an epoch.
  r.AdvanceWatermark();
  EXPECT_EQ(r.watermark(), 2u);
  r.Insert({3});
  EXPECT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.watermark(), 2u);  // Row 2 is past the watermark.
  r.Clear();
  EXPECT_EQ(r.watermark(), 0u);  // A cleared relation starts over.
}

TEST(DatabaseSetTest, SeedDeltaFromWatermarkWindowsOnlyNewRows) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 1);
  db.InsertFact(r, {1});
  MergeDelta(&db, r, {{9}});  // A window the epoch leaves behind.
  db.AdvanceEpoch();
  db.InsertFact(r, {2});
  db.InsertFact(r, {3});
  db.Get(r, DbKind::kDeltaNew).Insert({8});  // Residue: must be dropped.
  EXPECT_TRUE(db.ChangedSinceWatermark(r));
  EXPECT_EQ(db.SeedDeltaFromWatermark(r), 2u);
  EXPECT_EQ(DeltaRows(db, r), (std::vector<Tuple>{{2}, {3}}));
  EXPECT_EQ(db.Get(r, DbKind::kDeltaNew).size(), 0u);
  db.AdvanceEpoch();
  EXPECT_FALSE(db.ChangedSinceWatermark(r));
  EXPECT_EQ(db.SeedDeltaFromWatermark(r), 0u);
  EXPECT_EQ(db.DeltaSize(r), 0u);
  EXPECT_EQ(db.OldRowLimit(r), 4u);
}

/// `r`'s delta window is [lo, Derived's row count).
void ExpectWindow(const DatabaseSet& db, RelationId r, RowId lo) {
  const RowId rows = db.Get(r, DbKind::kDerived).NumRows();
  EXPECT_EQ(db.OldRowLimit(r), lo);
  const RowInterval delta = db.Window(r, RowWindow::kDelta);
  EXPECT_EQ(delta.lo, lo);
  EXPECT_EQ(delta.hi, rows);
  const RowInterval old = db.Window(r, RowWindow::kOld);
  EXPECT_EQ(old.lo, 0u);
  EXPECT_EQ(old.hi, lo);
  EXPECT_EQ(db.DeltaSize(r), rows - lo);
}

TEST(DatabaseSetTest, DeltaWindowFollowsEveryTransition) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  ExpectWindow(db, r, 0);
  db.InsertFact(r, {1, 1});
  db.InsertFact(r, {1, 2});

  // Init pass: DeltaNew holds rows new to Derived (the emit dedup), in
  // emission order, not value order; they become the window as appended.
  MergeDelta(&db, r, {{5, 5}, {3, 3}, {4, 4}});
  ExpectWindow(db, r, 2);
  EXPECT_EQ(DeltaRows(db, r), (std::vector<Tuple>{{5, 5}, {3, 3}, {4, 4}}));

  // A loop iteration: the previous delta becomes old.
  MergeDelta(&db, r, {{9, 9}, {7, 7}});
  ExpectWindow(db, r, 5);
  EXPECT_EQ(DeltaRows(db, r), (std::vector<Tuple>{{9, 9}, {7, 7}}));

  // The last iteration derives nothing: every row is old.
  db.SwapClearMerge({r});
  ExpectWindow(db, r, 7);

  // An update epoch windows the rows past the watermark.
  db.AdvanceEpoch();
  db.InsertFact(r, {20, 20});
  db.InsertFact(r, {21, 21});
  EXPECT_EQ(db.SeedDeltaFromWatermark(r), 2u);
  ExpectWindow(db, r, 7);
  EXPECT_EQ(DeltaRows(db, r), (std::vector<Tuple>{{20, 20}, {21, 21}}));

  // A saved snapshot opens with an empty window at Derived's end.
  const std::string path = ::testing::TempDir() + "carac_delta_window.snap";
  ASSERT_TRUE(db.SaveSnapshot(path).ok());
  DatabaseSet opened;
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  std::remove(path.c_str());
  ExpectWindow(opened, r, 9);

  // Stratum recompute: back to the EDB facts, with an empty window.
  db.ResetToEdbFacts(r);
  ExpectWindow(db, r, 4);

  // Unloading the relation empties it and its window.
  db.ClearFacts(r);
  ExpectWindow(db, r, 0);
}

TEST(DatabaseSetDeathTest, OldRowLimitRejectsDerivedGrowthPastTheWindow) {
  // A window ends at Derived's last row: only the merge and the seed set
  // one, and SPJs write DeltaNew. A Derived that grew past it (here by a
  // direct insert) makes every windowed read CHECK-fail.
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  db.InsertFact(r, {1, 1});
  MergeDelta(&db, r, {{2, 2}});
  ASSERT_EQ(db.OldRowLimit(r), 1u);
  db.Get(r, DbKind::kDerived).Insert({3, 3});
  EXPECT_DEATH(db.OldRowLimit(r), "CARAC_CHECK failed");
  EXPECT_DEATH(db.Window(r, RowWindow::kDelta), "CARAC_CHECK failed");
  EXPECT_DEATH(db.Window(r, RowWindow::kOld), "CARAC_CHECK failed");
  // Reading every row needs no window.
  EXPECT_EQ(db.Window(r, RowWindow::kAll).hi, kAllRows);
}

TEST(DatabaseSetTest, AdvanceEpochCounts) {
  DatabaseSet db;
  EXPECT_EQ(db.epoch(), 0u);
  db.AdvanceEpoch();
  db.AdvanceEpoch();
  EXPECT_EQ(db.epoch(), 2u);
  db.ClearAll();
  EXPECT_EQ(db.epoch(), 0u);
}

TEST(DatabaseSetTest, ResetToEdbFactsDropsDerivedKeepsEdb) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 1);
  db.InsertFact(r, {1});                      // EDB.
  db.Get(r, DbKind::kDerived).Insert({2});    // Derived by a rule.
  db.InsertFact(r, {3});                      // EDB appended after it.
  MergeDelta(&db, r, {{4}});
  db.ResetToEdbFacts(r);
  EXPECT_EQ(db.Get(r, DbKind::kDerived).size(), 2u);
  EXPECT_TRUE(db.Get(r, DbKind::kDerived).Contains({1}));
  EXPECT_FALSE(db.Get(r, DbKind::kDerived).Contains({2}));
  EXPECT_TRUE(db.Get(r, DbKind::kDerived).Contains({3}));
  EXPECT_FALSE(db.Get(r, DbKind::kDerived).Contains({4}));
  EXPECT_EQ(db.DeltaSize(r), 0u);
  // The reset is itself re-resettable: EDB bookkeeping was rebuilt.
  db.Get(r, DbKind::kDerived).Insert({5});
  db.ResetToEdbFacts(r);
  EXPECT_EQ(db.Get(r, DbKind::kDerived).size(), 2u);
}

TEST(DatabaseSetTest, ClearFactsUnloadsEverything) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 1);
  db.InsertFact(r, {1});
  db.Get(r, DbKind::kDeltaNew).Insert({2});
  db.ClearFacts(r);
  EXPECT_EQ(db.Get(r, DbKind::kDerived).size(), 0u);
  EXPECT_EQ(db.Get(r, DbKind::kDeltaNew).size(), 0u);
  // A fact re-inserted after the unload is EDB again.
  db.InsertFact(r, {7});
  db.Get(r, DbKind::kDerived).Insert({8});
  db.ResetToEdbFacts(r);
  EXPECT_TRUE(db.Get(r, DbKind::kDerived).Contains({7}));
  EXPECT_FALSE(db.Get(r, DbKind::kDerived).Contains({8}));
}

TEST(DatabaseSetTest, IndexesSurviveSwapClear) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  db.DeclareIndex(r, 0);
  db.InsertFact(r, {4, 1});
  MergeDelta(&db, r, {{4, 5}});
  // The merged rows answer Derived's probes, and the window cut of the
  // bucket is exactly the delta row.
  const RowCursor bucket = db.Get(r, DbKind::kDerived).Probe(0, 4);
  EXPECT_EQ(bucket.size(), 2u);
  const RowInterval delta = db.Window(r, RowWindow::kDelta);
  const RowCursor cut = bucket.Window(delta.lo, delta.hi);
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0], 1u);
}

TEST(ReadViewTest, PinnedViewSurvivesArenaGrowth) {
  Relation rel("R", 2);
  for (Value v = 0; v < 8; ++v) rel.Insert({v, v + 1});
  rel.AdvanceWatermark();
  const RelationReadView view = rel.PinViewAtWatermark();
  ASSERT_EQ(view.NumRows(), 8u);
  // Grow far past the pinned buffer's capacity: the live relation
  // retires to a fresh buffer, the view keeps reading the old one.
  for (Value v = 100; v < 1100; ++v) rel.Insert({v, v + 1});
  EXPECT_EQ(view.NumRows(), 8u);
  for (RowId row = 0; row < view.NumRows(); ++row) {
    EXPECT_EQ(view.View(row)[0], static_cast<Value>(row));
    EXPECT_EQ(view.View(row)[1], static_cast<Value>(row) + 1);
  }
  EXPECT_EQ(rel.size(), 1008u);
}

TEST(ReadViewTest, PinnedViewSurvivesClearAndReload) {
  Relation rel("R", 1);
  rel.Insert({10});
  rel.Insert({20});
  rel.AdvanceWatermark();
  const RelationReadView view = rel.PinViewAtWatermark();
  rel.Clear();
  rel.Insert({99});
  // The view still serves the rows it pinned, not the new contents.
  ASSERT_EQ(view.NumRows(), 2u);
  EXPECT_EQ(view.View(0)[0], 10);
  EXPECT_EQ(view.View(1)[0], 20);
  rel.LoadContents({7, 8, 9}, 3, 3);
  ASSERT_EQ(view.NumRows(), 2u);
  EXPECT_EQ(view.View(0)[0], 10);
  EXPECT_EQ(rel.size(), 3u);
}

TEST(ReadViewTest, ViewBoundHidesRowsPastWatermark) {
  Relation rel("R", 1);
  rel.Insert({1});
  rel.AdvanceWatermark();
  rel.Insert({2});  // Past the watermark: invisible to the pinned view.
  const RelationReadView view = rel.PinViewAtWatermark();
  EXPECT_EQ(view.NumRows(), 1u);
  EXPECT_EQ(view.View(0)[0], 1);
  // Appends within capacity land above the bound without retiring.
  rel.Insert({3});
  EXPECT_EQ(view.NumRows(), 1u);
  EXPECT_EQ(rel.size(), 3u);
}

TEST(ReadViewTest, SortedRowIdsMatchesSortedRows) {
  Relation rel("R", 2);
  rel.Insert({3, 1});
  rel.Insert({1, 9});
  rel.Insert({2, 4});
  rel.Insert({1, 2});
  rel.AdvanceWatermark();
  const RelationReadView view = rel.PinViewAtWatermark();
  const std::vector<Tuple> sorted = rel.SortedRows();
  const std::vector<RowId> ids = view.SortedRowIds();
  ASSERT_EQ(ids.size(), sorted.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(view.View(ids[i]).ToTuple(), sorted[i]);
  }
}

TEST(ReadViewTest, UnpinnedRelationKeepsCapacityOnClear) {
  // Delta stores are cleared every iteration and are never pinned; the
  // copy-on-retire machinery must not tax them. (A zero-row pin does not
  // force retirement either — it can never observe the buffer.)
  Relation rel("R", 1);
  for (Value v = 0; v < 64; ++v) rel.Insert({v});
  const RelationReadView empty = rel.PinView(0);
  EXPECT_TRUE(empty.empty());
  const Value* before = rel.RowData(0);
  rel.Clear();
  for (Value v = 0; v < 64; ++v) rel.Insert({v});
  // Same buffer, same address: the clear recycled storage in place.
  EXPECT_EQ(rel.RowData(0), before);
}

// ---- The emit kernel (EmitWindow) and its tagged slot format ----

/// The unbuffered emit loop the kernel must reproduce: a tuple in Derived
/// is dropped, any other is appended to DeltaNew unless already there.
struct EmitOracle {
  std::set<Tuple> derived;
  std::set<Tuple> delta;
  std::vector<Tuple> delta_order;

  bool Emit(const Tuple& t) {
    if (derived.count(t) > 0 || !delta.insert(t).second) return false;
    delta_order.push_back(t);
    return true;
  }
};

std::vector<Tuple> RowsInOrder(const Relation& rel) {
  std::vector<Tuple> rows;
  for (TupleView t : rel.rows()) rows.push_back(t.ToTuple());
  return rows;
}

TEST(EmitWindowTest, MatchesSetOracleAcrossAritiesAndRehashes) {
  for (size_t arity : {0u, 1u, 2u, 3u, 5u}) {
    util::Rng rng(100 + arity);
    Relation derived("D", arity);
    Relation delta_new("N", arity);
    EmitOracle oracle;
    EmitWindow window;
    // Rounds of "SPJs" of random length (many shorter than one window, so
    // a partial window is flushed at the end), each followed by the merge
    // of DeltaNew into Derived: both tables grow across several rehash
    // boundaries while the window is in use.
    for (int spj = 0; spj < 60; ++spj) {
      window.Bind(&derived, &delta_new);
      const size_t emits = rng.NextBounded(4 * EmitWindow::kWindow) + 1;
      uint64_t want_inserted = 0;
      for (size_t i = 0; i < emits; ++i) {
        Tuple t;
        for (size_t c = 0; c < arity; ++c) {
          // A domain that grows with the rounds: early rounds are nearly
          // all duplicates, later ones keep inserting.
          t.push_back(static_cast<Value>(rng.NextBounded(8 + 4 * spj)));
        }
        want_inserted += oracle.Emit(t);
        window.Emit(t);
      }
      ASSERT_EQ(window.Flush(), want_inserted)
          << "arity " << arity << " spj " << spj;
      ASSERT_EQ(RowsInOrder(delta_new), oracle.delta_order)
          << "arity " << arity << " spj " << spj;
      for (const Tuple& t : oracle.delta_order) {
        derived.Insert(t);
        oracle.derived.insert(t);
      }
      delta_new.Clear();
      oracle.delta.clear();
      oracle.delta_order.clear();
    }
    EXPECT_EQ(derived.size(), oracle.derived.size()) << "arity " << arity;
    const std::vector<Tuple> expected(oracle.derived.begin(),
                                      oracle.derived.end());
    EXPECT_EQ(derived.SortedRows(), expected) << "arity " << arity;
  }
}

TEST(EmitWindowTest, DuplicateInsideOneWindowInsertsOnce) {
  Relation derived("D", 2);
  Relation delta_new("N", 2);
  derived.Insert({9, 9});
  EmitWindow window;
  window.Bind(&derived, &delta_new);
  for (const Tuple& t : std::vector<Tuple>{
           {1, 2}, {1, 2}, {9, 9}, {3, 4}, {1, 2}, {3, 4}}) {
    window.Emit(t);
  }
  EXPECT_EQ(window.Flush(), 2u);
  EXPECT_EQ(RowsInOrder(delta_new), (std::vector<Tuple>{{1, 2}, {3, 4}}));
}

TEST(EmitWindowTest, PartialWindowIsInvisibleUntilFlush) {
  Relation delta_new("N", 1);
  EmitWindow window;
  window.Bind(nullptr, &delta_new);
  for (Value v = 0; v < 5; ++v) window.Emit(Tuple{v});
  EXPECT_EQ(delta_new.size(), 0u);
  EXPECT_EQ(window.Flush(), 5u);
  EXPECT_EQ(delta_new.size(), 5u);
  // The count restarts: a second flush reports only its own inserts.
  window.Emit(Tuple{4});
  window.Emit(Tuple{5});
  EXPECT_EQ(window.Flush(), 1u);
}

TEST(EmitWindowTest, FullWindowsFlushAsTheyFill) {
  Relation delta_new("N", 1);
  EmitWindow window;
  window.Bind(nullptr, &delta_new);
  for (Value v = 0; v < static_cast<Value>(EmitWindow::kWindow) + 1; ++v) {
    window.Emit(Tuple{v});
  }
  // The first window went out when the (kWindow + 1)-th tuple arrived.
  EXPECT_EQ(delta_new.size(), EmitWindow::kWindow);
  EXPECT_EQ(window.Flush(), EmitWindow::kWindow + 1);
}

TEST(EmitWindowTest, StagedBindingFiltersDerivedAndDeltaNew) {
  Relation derived("D", 2);
  Relation delta_new("N", 2);
  derived.Insert({1, 1});
  delta_new.Insert({2, 2});
  StagingBuffer staging;
  staging.Reset(2);
  EmitWindow window;
  window.BindStaged(derived, delta_new, &staging);
  for (const Tuple& t : std::vector<Tuple>{
           {1, 1}, {3, 3}, {2, 2}, {3, 3}, {4, 4}}) {
    window.Emit(t);
  }
  EXPECT_EQ(window.Flush(), 2u);
  ASSERT_EQ(staging.NumRows(), 2u);
  EXPECT_EQ(staging.View(0), TupleView(Tuple{3, 3}));
  EXPECT_EQ(staging.View(1), TupleView(Tuple{4, 4}));
  // The merge runs the same kernel over the staged rows.
  derived.Insert({4, 4});
  EXPECT_EQ(delta_new.InsertStaged(staging, &derived), 1u);
  EXPECT_EQ(RowsInOrder(delta_new), (std::vector<Tuple>{{2, 2}, {3, 3}}));
}

TEST(DedupTableTest, EqualTagsFallBackToTheRowCompare) {
  // Every hash identical: one probe chain, one tag, so only the caller's
  // row compare tells the rows apart.
  DedupTable table;
  const uint64_t hash = 0x1234567890abcdefULL;
  std::vector<Value> rows;
  auto equals_to = [&](Value v) {
    return [&rows, v](uint32_t row) { return rows[row] == v; };
  };
  for (Value v = 0; v < 10; ++v) {
    ASSERT_FALSE(table.NeedsGrowth(rows.size()));
    ASSERT_TRUE(table.Insert(hash, static_cast<uint32_t>(rows.size()),
                             equals_to(v)));
    rows.push_back(v);
  }
  for (Value v = 0; v < 10; ++v) {
    EXPECT_FALSE(table.Insert(hash, 99, equals_to(v)));
    EXPECT_EQ(table.Find(hash, equals_to(v)), static_cast<uint32_t>(v));
  }
  EXPECT_EQ(table.Find(hash, equals_to(10)), DedupTable::kEmpty);
  table.Clear();
  EXPECT_EQ(table.Find(hash, equals_to(0)), DedupTable::kEmpty);
}

TEST(DedupTableTest, FindRowAcrossGrowthClearAndLoadContents) {
  Relation rel("R", 3);
  constexpr Value kRows = 5000;  // Crosses nine doublings from 16 slots.
  for (Value i = 0; i < kRows; ++i) {
    ASSERT_TRUE(rel.Insert({i, -i, i * i}));
    // The newest row and an early one stay findable at every size.
    ASSERT_EQ(rel.FindRow(Tuple{i, -i, i * i}), static_cast<RowId>(i));
    ASSERT_EQ(rel.FindRow(Tuple{0, 0, 0}), 0u);
  }
  EXPECT_EQ(rel.FindRow(Tuple{1, 1, 1}), Relation::kNoRow);

  // A snapshot-style reload rebuilds the tagged table from the arena.
  Relation loaded("R", 3);
  loaded.LoadContents(rel.arena(), rel.NumRows(), rel.NumRows());
  for (Value i = 0; i < kRows; i += 7) {
    EXPECT_EQ(loaded.FindRow(Tuple{i, -i, i * i}), static_cast<RowId>(i));
  }
  EXPECT_FALSE(loaded.Insert({5, -5, 25}));
  EXPECT_TRUE(loaded.Insert({5, 5, 5}));
  EXPECT_EQ(loaded.FindRow(Tuple{5, 5, 5}), static_cast<RowId>(kRows));

  // Clear keeps the table's size but forgets every row.
  rel.Clear();
  EXPECT_EQ(rel.FindRow(Tuple{0, 0, 0}), Relation::kNoRow);
  EXPECT_TRUE(rel.Insert({7, -7, 49}));
  EXPECT_EQ(rel.FindRow(Tuple{7, -7, 49}), 0u);
}

TEST(DatabaseSetTest, ReassertedDerivedRowBecomesEdb) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  for (Value i = 0; i < 100; ++i) db.Get(r, DbKind::kDerived).Insert({i, i});
  // Already present as a derived row: not new, but registered as EDB, so
  // it survives the stratum-recompute reset; the other rows do not.
  EXPECT_FALSE(db.InsertFact(r, {42, 42}));
  EXPECT_TRUE(db.InsertFact(r, {42, 43}));
  db.ResetToEdbFacts(r);
  EXPECT_EQ(RowsInOrder(db.Get(r, DbKind::kDerived)),
            (std::vector<Tuple>{{42, 42}, {42, 43}}));
}

}  // namespace
}  // namespace carac::storage
