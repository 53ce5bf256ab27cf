#include <gtest/gtest.h>

#include "datalog/dsl.h"
#include "datalog/parser.h"
#include "ir/lowering.h"
#include "optimizer/freshness.h"
#include "optimizer/join_order.h"
#include "optimizer/selectivity.h"
#include "optimizer/statistics.h"

namespace carac::optimizer {
namespace {

using datalog::Dsl;
using datalog::Program;
using ir::AtomSpec;
using ir::IROp;
using ir::LocalTerm;
using ir::OpKind;

AtomSpec RelAtom(datalog::PredicateId pred,
                 std::vector<LocalTerm> terms,
                 storage::RowWindow window = storage::RowWindow::kAll) {
  AtomSpec atom;
  atom.predicate = pred;
  atom.window = window;
  atom.terms = std::move(terms);
  return atom;
}

TEST(StatsSnapshotTest, CapturesCardinalitiesAndIndexes) {
  storage::DatabaseSet db;
  const auto r = db.AddRelation("R", 2);
  db.DeclareIndex(r, 1);
  db.InsertFact(r, {1, 2});
  db.Get(r, storage::DbKind::kDeltaNew).Insert({3, 4});
  db.SwapClearMerge({r});  // Derived holds 2 rows, the delta window 1.

  StatsSnapshot snap = StatsSnapshot::Capture(db);
  EXPECT_EQ(snap.Cardinality(r, storage::RowWindow::kAll), 2u);
  EXPECT_EQ(snap.Cardinality(r, storage::RowWindow::kDelta), 1u);
  // Old-only atoms are priced as all of Derived.
  EXPECT_EQ(snap.Cardinality(r, storage::RowWindow::kOld), 2u);
  EXPECT_TRUE(snap.HasIndex(r, 1));
  EXPECT_FALSE(snap.HasIndex(r, 0));
}

TEST(SelectivityTest, CountsBoundConditions) {
  std::set<ir::LocalVar> bound{0};
  AtomSpec atom = RelAtom(0, {LocalTerm::Var(0), LocalTerm::Var(1)});
  EXPECT_EQ(CountBoundConditions(atom, bound), 1);
  AtomSpec with_const =
      RelAtom(0, {LocalTerm::Const(5), LocalTerm::Var(1)});
  EXPECT_EQ(CountBoundConditions(with_const, bound), 1);
  AtomSpec self_join = RelAtom(0, {LocalTerm::Var(2), LocalTerm::Var(2)});
  EXPECT_EQ(CountBoundConditions(self_join, bound), 1);
}

TEST(SelectivityTest, Connectivity) {
  std::set<ir::LocalVar> bound{1};
  EXPECT_TRUE(IsConnected(RelAtom(0, {LocalTerm::Var(1), LocalTerm::Var(2)}),
                          bound));
  EXPECT_FALSE(IsConnected(RelAtom(0, {LocalTerm::Var(3), LocalTerm::Var(4)}),
                           bound));
}

class JoinOrderTest : public ::testing::Test {
 protected:
  /// Three relations with very different cardinalities:
  /// Big (1000), Mid (100), Tiny (2).
  void SetUp() override {
    big_ = db_.AddRelation("Big", 2);
    mid_ = db_.AddRelation("Mid", 2);
    tiny_ = db_.AddRelation("Tiny", 2);
    for (int i = 0; i < 1000; ++i) db_.InsertFact(big_, {i, i + 1});
    for (int i = 0; i < 100; ++i) db_.InsertFact(mid_, {i, i + 1});
    db_.InsertFact(tiny_, {0, 1});
    db_.InsertFact(tiny_, {1, 2});
  }

  /// SPJ: H(l0,l3) :- Big(l0,l1), Mid(l1,l2), Tiny(l2,l3) in given order.
  std::unique_ptr<IROp> MakeSpj(std::vector<AtomSpec> atoms) {
    auto op = std::make_unique<IROp>(OpKind::kSpj);
    op->target = big_;
    op->atoms = std::move(atoms);
    op->head_terms = {LocalTerm::Var(0), LocalTerm::Var(3)};
    op->num_locals = 4;
    return op;
  }

  storage::DatabaseSet db_;
  datalog::PredicateId big_, mid_, tiny_;
};

TEST_F(JoinOrderTest, SmallestRelationFirst) {
  auto op = MakeSpj({
      RelAtom(big_, {LocalTerm::Var(0), LocalTerm::Var(1)}),
      RelAtom(mid_, {LocalTerm::Var(1), LocalTerm::Var(2)}),
      RelAtom(tiny_, {LocalTerm::Var(2), LocalTerm::Var(3)}),
  });
  StatsSnapshot stats = StatsSnapshot::Capture(db_);
  JoinOrderConfig config;
  EXPECT_TRUE(ReorderSubquery(stats, config, op.get()));
  EXPECT_EQ(op->atoms[0].predicate, tiny_);
}

TEST_F(JoinOrderTest, AvoidsCartesianProducts) {
  // Tiny(l2,l3) and Big(l0,l1) share nothing; Mid connects them. After
  // Tiny, Mid must come before Big even though Big x Tiny is "possible".
  auto op = MakeSpj({
      RelAtom(tiny_, {LocalTerm::Var(2), LocalTerm::Var(3)}),
      RelAtom(big_, {LocalTerm::Var(0), LocalTerm::Var(1)}),
      RelAtom(mid_, {LocalTerm::Var(1), LocalTerm::Var(2)}),
  });
  StatsSnapshot stats = StatsSnapshot::Capture(db_);
  JoinOrderConfig config;
  ReorderSubquery(stats, config, op.get());
  EXPECT_EQ(op->atoms[0].predicate, tiny_);
  EXPECT_EQ(op->atoms[1].predicate, mid_);
  EXPECT_EQ(op->atoms[2].predicate, big_);
}

TEST_F(JoinOrderTest, EmptyDeltaGoesFirst) {
  // The paper's 7th-iteration example: an empty delta should lead the
  // join even though it is "disconnected" — anything times zero is zero.
  auto op = MakeSpj({
      RelAtom(big_, {LocalTerm::Var(0), LocalTerm::Var(1)}),
      RelAtom(mid_, {LocalTerm::Var(1), LocalTerm::Var(2)}),
      RelAtom(tiny_, {LocalTerm::Var(2), LocalTerm::Var(3)},
              storage::RowWindow::kDelta),  // Empty delta window.
  });
  StatsSnapshot stats = StatsSnapshot::Capture(db_);
  JoinOrderConfig config;
  ReorderSubquery(stats, config, op.get());
  EXPECT_EQ(op->atoms[0].window, storage::RowWindow::kDelta);
}

TEST_F(JoinOrderTest, RulesOnlyModeIgnoresCardinalities) {
  auto op = MakeSpj({
      RelAtom(big_, {LocalTerm::Var(0), LocalTerm::Var(1)}),
      RelAtom(mid_, {LocalTerm::Var(1), LocalTerm::Var(2)}),
      RelAtom(tiny_, {LocalTerm::Var(2), LocalTerm::Var(3)}),
  });
  StatsSnapshot stats = StatsSnapshot::Capture(db_);
  JoinOrderConfig config;
  config.use_cardinalities = false;
  ReorderSubquery(stats, config, op.get());
  // Without cardinalities all atoms look alike; order must still be
  // connected (no cartesian products).
  std::set<ir::LocalVar> bound;
  for (size_t i = 0; i < op->atoms.size(); ++i) {
    if (i > 0) {
      EXPECT_TRUE(IsConnected(op->atoms[i], bound));
    }
    for (const LocalTerm& t : op->atoms[i].terms) {
      if (t.is_var) bound.insert(t.var);
    }
  }
}

TEST_F(JoinOrderTest, ReorderReportsNoChangeOnOptimalInput) {
  auto op = MakeSpj({
      RelAtom(tiny_, {LocalTerm::Var(2), LocalTerm::Var(3)}),
      RelAtom(mid_, {LocalTerm::Var(1), LocalTerm::Var(2)}),
      RelAtom(big_, {LocalTerm::Var(0), LocalTerm::Var(1)}),
  });
  StatsSnapshot stats = StatsSnapshot::Capture(db_);
  JoinOrderConfig config;
  EXPECT_FALSE(ReorderSubquery(stats, config, op.get()));
}

TEST_F(JoinOrderTest, SingleAtomNeverChanges) {
  auto op = MakeSpj({RelAtom(big_, {LocalTerm::Var(0), LocalTerm::Var(1)})});
  op->head_terms = {LocalTerm::Var(0), LocalTerm::Var(1)};
  StatsSnapshot stats = StatsSnapshot::Capture(db_);
  JoinOrderConfig config;
  EXPECT_FALSE(ReorderSubquery(stats, config, op.get()));
}

TEST(FreshnessTest, UnknownNodeIsStale) {
  storage::DatabaseSet db;
  const auto r = db.AddRelation("R", 1);
  IROp op(OpKind::kSpj);
  op.atoms = {RelAtom(r, {LocalTerm::Var(0)})};
  FreshnessTracker tracker(0.1);
  EXPECT_FALSE(tracker.IsFresh(1, op, StatsSnapshot::Capture(db)));
}

TEST(FreshnessTest, UnchangedStatsAreFresh) {
  storage::DatabaseSet db;
  const auto r = db.AddRelation("R", 1);
  db.InsertFact(r, {1});
  IROp op(OpKind::kSpj);
  op.atoms = {RelAtom(r, {LocalTerm::Var(0)})};
  FreshnessTracker tracker(0.1);
  StatsSnapshot snap = StatsSnapshot::Capture(db);
  tracker.Record(1, op, snap);
  EXPECT_TRUE(tracker.IsFresh(1, op, snap));
}

TEST(FreshnessTest, UniformGrowthStaysFresh) {
  storage::DatabaseSet db;
  const auto a = db.AddRelation("A", 1);
  const auto b = db.AddRelation("B", 1);
  for (int i = 0; i < 10; ++i) db.InsertFact(a, {i});
  for (int i = 0; i < 10; ++i) db.InsertFact(b, {i});
  IROp op(OpKind::kSpj);
  op.atoms = {RelAtom(a, {LocalTerm::Var(0)}),
              RelAtom(b, {LocalTerm::Var(0)})};
  FreshnessTracker tracker(0.1);
  tracker.Record(1, op, StatsSnapshot::Capture(db));
  // Double both: relative shares unchanged -> still fresh.
  for (int i = 10; i < 20; ++i) db.InsertFact(a, {i});
  for (int i = 10; i < 20; ++i) db.InsertFact(b, {i});
  EXPECT_TRUE(tracker.IsFresh(1, op, StatsSnapshot::Capture(db)));
}

TEST(FreshnessTest, RelativeShiftGoesStale) {
  storage::DatabaseSet db;
  const auto a = db.AddRelation("A", 1);
  const auto b = db.AddRelation("B", 1);
  for (int i = 0; i < 10; ++i) db.InsertFact(a, {i});
  for (int i = 0; i < 10; ++i) db.InsertFact(b, {i});
  IROp op(OpKind::kSpj);
  op.atoms = {RelAtom(a, {LocalTerm::Var(0)}),
              RelAtom(b, {LocalTerm::Var(0)})};
  FreshnessTracker tracker(0.1);
  tracker.Record(1, op, StatsSnapshot::Capture(db));
  // Grow only b: shares shift from 50/50 to ~9/91.
  for (int i = 10; i < 100; ++i) db.InsertFact(b, {i});
  EXPECT_FALSE(tracker.IsFresh(1, op, StatsSnapshot::Capture(db)));
}

TEST(FreshnessTest, ForgetMakesStale) {
  storage::DatabaseSet db;
  const auto r = db.AddRelation("R", 1);
  IROp op(OpKind::kSpj);
  op.atoms = {RelAtom(r, {LocalTerm::Var(0)})};
  FreshnessTracker tracker(0.1);
  StatsSnapshot snap = StatsSnapshot::Capture(db);
  tracker.Record(7, op, snap);
  EXPECT_TRUE(tracker.IsFresh(7, op, snap));
  tracker.Forget(7);
  EXPECT_FALSE(tracker.IsFresh(7, op, snap));
}

TEST(JoinOrderSubtreeTest, ReordersEverySubquery) {
  datalog::Program p;
  Dsl dsl(&p);
  auto big = dsl.Relation("Big", 2);
  auto tiny = dsl.Relation("Tiny", 2);
  auto out = dsl.Relation("Out", 2);
  auto [x, y, z] = dsl.Vars<3>();
  out(x, z) <<= big(x, y) & tiny(y, z);
  for (int i = 0; i < 200; ++i) big.Fact(i, i + 1);
  tiny.Fact(0, 1);

  ir::IRProgram irp;
  ASSERT_TRUE(ir::LowerProgram(&p, true, &irp).ok());
  StatsSnapshot stats = StatsSnapshot::Capture(p.db());
  JoinOrderConfig config;
  const int changed = ReorderSubtree(stats, config, irp.root.get());
  EXPECT_GE(changed, 1);
}

datalog::PredicateId PredByName(const datalog::Program& p,
                                const std::string& name) {
  for (datalog::PredicateId id = 0; id < p.NumPredicates(); ++id) {
    if (p.PredicateName(id) == name) return id;
  }
  ADD_FAILURE() << "no predicate " << name;
  return 0;
}

TEST(AccessPathProfileTest, ClassifiesPointAndRangeUses) {
  datalog::Program p;
  ASSERT_TRUE(datalog::ParseDatalog(R"(
    Edge(1, 2).
    Path(x, y) :- Edge(x, y).
    Path(x, z) :- Path(x, y), Edge(y, z).
    Num(1).
    InRange(x) :- Num(x), x >= 0, x <= 9.
  )", &p).ok());
  const AccessPathProfile profile = ProfileAccessPaths(p);

  // y joins Path and Edge: both sides of the join are point-probed.
  const auto edge0 = profile.columns.find({PredByName(p, "Edge"), 0});
  ASSERT_NE(edge0, profile.columns.end());
  EXPECT_GE(edge0->second.point_uses, 1u);
  EXPECT_EQ(edge0->second.range_uses, 0u);
  const auto path1 = profile.columns.find({PredByName(p, "Path"), 1});
  ASSERT_NE(path1, profile.columns.end());
  EXPECT_GE(path1->second.point_uses, 1u);

  // x in the InRange rule is only ever compared: a range-only column.
  const auto num0 = profile.columns.find({PredByName(p, "Num"), 0});
  ASSERT_NE(num0, profile.columns.end());
  EXPECT_EQ(num0->second.point_uses, 0u);
  EXPECT_GE(num0->second.range_uses, 1u);
}

TEST(ChooseIndexKindTest, OnlyRangeOnlyColumnsLeaveHash) {
  const ColumnAccess range_only{/*point_uses=*/0, /*range_uses=*/2};
  EXPECT_EQ(ChooseIndexKind(range_only, /*edb_rows=*/10, /*is_idb=*/true),
            storage::IndexKind::kBtree);
  EXPECT_EQ(ChooseIndexKind(range_only, /*edb_rows=*/10, /*is_idb=*/false),
            storage::IndexKind::kSorted);
  EXPECT_EQ(ChooseIndexKind(range_only, kSortedArrayMinRows,
                            /*is_idb=*/false),
            storage::IndexKind::kSortedArray);

  // Any point evidence keeps the O(1) organization, range uses or not.
  const ColumnAccess mixed{/*point_uses=*/1, /*range_uses=*/2};
  EXPECT_EQ(ChooseIndexKind(mixed, kSortedArrayMinRows, /*is_idb=*/true),
            storage::IndexKind::kHash);
  const ColumnAccess point_only{/*point_uses=*/3, /*range_uses=*/0};
  EXPECT_EQ(ChooseIndexKind(point_only, 10, /*is_idb=*/false),
            storage::IndexKind::kHash);
}

}  // namespace
}  // namespace carac::optimizer
