// The access-path layer (ir/access_path.h) and its profiling contract.
//
// AccessPath unit tests: for every index kind and every path kind, Open()
// yields a sequence whose filtered rows equal the filtered full scan in
// ascending RowId order, and Size() decides identically while recording
// nothing. An old-only atom sees exactly the rows below OldRowLimit, a
// delta atom exactly the delta window.
//
// Profiler parity: the push and pull engines open the same paths, so they
// must leave identical per-(relation, column) probe counters on the same
// program, at every thread count and batch window.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "core/engine.h"
#include "datalog/dsl.h"
#include "ir/access_path.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/relation.h"

namespace carac::ir {
namespace {

using storage::IndexKind;
using storage::Relation;
using storage::RowId;
using storage::RowWindow;
using storage::Value;

constexpr IndexKind kAllKinds[] = {IndexKind::kHash, IndexKind::kSorted,
                                   IndexKind::kBtree, IndexKind::kSortedArray,
                                   IndexKind::kLearned};
constexpr datalog::PredicateId kPred = 3;
constexpr LocalVar kX = 0;
constexpr LocalVar kY = 1;

constexpr RowId kRows = 200;

/// A DatabaseSet whose relation kPred is R(k, v): 200 rows, k = i % 17
/// (duplicate-heavy), v = i (unique), with both columns indexed by `kind`.
/// The last `delta_rows` rows go through DeltaNew and the merge, so they
/// are the delta window and OldRowLimit(kPred) == 200 - delta_rows.
struct FilledDb {
  storage::DatabaseSet db;

  FilledDb(IndexKind kind, RowId delta_rows) {
    for (datalog::PredicateId p = 0; p <= kPred; ++p) {
      db.AddRelation("R" + std::to_string(p), 2);
    }
    db.DeclareIndex(kPred, 0, kind);
    db.DeclareIndex(kPred, 1, kind);
    Relation& fresh = db.Get(kPred, storage::DbKind::kDeltaNew);
    for (Value i = 0; i < static_cast<Value>(kRows); ++i) {
      (i < static_cast<Value>(kRows - delta_rows) ? rel() : fresh)
          .Insert({i % 17, i});
    }
    db.SwapClearMerge({kPred});
  }
  Relation& rel() { return db.Get(kPred, storage::DbKind::kDerived); }
};

/// The RowIds [lo, hi) `window` selects when the last `delta_rows` of the
/// 200 rows are the delta.
std::pair<RowId, RowId> Expected(RowWindow window, RowId delta_rows) {
  switch (window) {
    case RowWindow::kAll:
      break;
    case RowWindow::kOld:
      return {0, kRows - delta_rows};
    case RowWindow::kDelta:
      return {kRows - delta_rows, kRows};
  }
  return {0, kRows};
}

AtomSpec Atom(LocalTerm k, LocalTerm v) {
  AtomSpec atom;
  atom.predicate = kPred;
  atom.terms = {k, v};
  return atom;
}

/// Annotates R(x, y) with lo <= y < hi on column 1.
AtomSpec RangeAtom(Value lo, Value hi) {
  AtomSpec atom = Atom(LocalTerm::Var(kX), LocalTerm::Var(kY));
  atom.range_col = 1;
  atom.lower = BoundSpec{BoundSpec::Kind::kConst, lo, -1, false};
  atom.upper = BoundSpec{BoundSpec::Kind::kConst, hi, -1, true};
  return atom;
}

/// Whether `row` satisfies `atom` under `binding`: its constants, its
/// pre-bound variables and its range annotation (the residual filters).
bool Matches(const Relation& rel, RowId row, const AtomSpec& atom,
             const std::vector<bool>& bound, const Value* binding) {
  const storage::TupleView t = rel.View(row);
  for (size_t col = 0; col < atom.terms.size(); ++col) {
    const LocalTerm& term = atom.terms[col];
    if (!term.is_var && t[col] != term.constant) return false;
    if (term.is_var && bound[term.var] && t[col] != binding[term.var]) {
      return false;
    }
  }
  if (atom.has_range()) {
    const ResolvedRange r = ResolveRange(atom, binding);
    const Value v = t[static_cast<size_t>(atom.range_col)];
    if (r.empty || v < r.lo || v > r.hi) return false;
  }
  return true;
}

uint64_t Recorded(const AccessProfiler& profiler) {
  uint64_t total = 0;
  for (const auto& [key, stats] : profiler.counters()) {
    total += stats.point_probes + stats.point_hits + stats.range_probes +
             stats.batch_windows;
  }
  return total;
}

struct Expectation {
  AccessPath::Kind kind;
  bool exact;  // The sequence holds only matching rows (probe taken).
};

/// Opens `atom` reading `window` on a fresh R of `kind` whose last
/// `delta_rows` rows are the delta, and checks the layer's contract: the
/// atom sees exactly the window's rows.
void CheckOpen(IndexKind kind, const AtomSpec& spec,
               const std::vector<bool>& bound, const Value* binding,
               const Expectation& expect, RowWindow window = RowWindow::kAll,
               RowId delta_rows = 0) {
  SCOPED_TRACE(storage::IndexKindName(kind));
  SCOPED_TRACE("window=" + std::to_string(static_cast<int>(window)) +
               " delta_rows=" + std::to_string(delta_rows));
  FilledDb filled(kind, delta_rows);
  const Relation& rel = filled.rel();
  AtomSpec atom = spec;
  atom.window = window;
  const auto [lo, hi] = Expected(window, delta_rows);
  ASSERT_EQ(filled.db.OldRowLimit(kPred), kRows - delta_rows);
  AccessProfiler profiler;
  AccessPath path = AccessPath::Resolve(filled.db, atom, bound, &profiler);
  ASSERT_EQ(path.kind(), expect.kind);

  const size_t size = path.Size(binding);
  EXPECT_EQ(Recorded(profiler), 0u) << "sizing must record nothing";

  std::vector<RowId> opened;
  path.Open(binding).ForEach([&](RowId row) { opened.push_back(row); });
  EXPECT_EQ(opened.size(), size);
  for (size_t i = 1; i < opened.size(); ++i) {
    EXPECT_LT(opened[i - 1], opened[i]) << "ascending RowId order";
  }

  std::vector<RowId> filtered_open;
  for (RowId row : opened) {
    if (Matches(rel, row, atom, bound, binding)) filtered_open.push_back(row);
  }
  std::vector<RowId> filtered_scan;
  for (RowId row = lo; row < hi; ++row) {
    if (Matches(rel, row, atom, bound, binding)) filtered_scan.push_back(row);
  }
  EXPECT_FALSE(filtered_scan.empty());
  EXPECT_EQ(filtered_open, filtered_scan);
  if (expect.exact) {
    EXPECT_EQ(opened, filtered_scan);
  } else {
    EXPECT_EQ(opened.size(), hi - lo) << "declined opens as a scan";
  }

  // Exactly one probe recorded per Open of a probing path.
  const ColumnProbeStats total = [&] {
    ColumnProbeStats sum;
    for (const auto& [key, stats] : profiler.counters()) sum.MergeFrom(stats);
    return sum;
  }();
  EXPECT_EQ(total.point_probes,
            expect.kind == AccessPath::Kind::kPoint ? 1u : 0u);
  // A hit is a point probe with rows inside the window.
  EXPECT_EQ(total.point_hits,
            expect.kind == AccessPath::Kind::kPoint ? 1u : 0u);
  EXPECT_EQ(total.range_probes,
            expect.kind == AccessPath::Kind::kRange ? 1u : 0u);
}

TEST(AccessPathTest, ScanOpensEveryRow) {
  const std::vector<bool> bound(2, false);
  const Value binding[2] = {0, 0};
  for (IndexKind kind : kAllKinds) {
    CheckOpen(kind, Atom(LocalTerm::Var(kX), LocalTerm::Var(kY)), bound,
              binding, {AccessPath::Kind::kScan, /*exact=*/true});
  }
}

TEST(AccessPathTest, PointProbeOnConstantAndBoundVariable) {
  for (IndexKind kind : kAllKinds) {
    const std::vector<bool> none(2, false);
    const Value zero[2] = {0, 0};
    CheckOpen(kind, Atom(LocalTerm::Const(5), LocalTerm::Var(kY)), none, zero,
              {AccessPath::Kind::kPoint, /*exact=*/true});
    // x bound before the atom: the first bound indexed column is 0.
    const std::vector<bool> x_bound = {true, false};
    const Value x_is_3[2] = {3, 0};
    CheckOpen(kind, Atom(LocalTerm::Var(kX), LocalTerm::Var(kY)), x_bound,
              x_is_3, {AccessPath::Kind::kPoint, /*exact=*/true});
  }
}

TEST(AccessPathTest, RangeTakenOnOrderedKindsDeclinedOnHash) {
  const std::vector<bool> bound(2, false);
  const Value binding[2] = {0, 0};
  for (IndexKind kind : kAllKinds) {
    // 10 <= y < 30 covers 10% of the keys: ordered kinds take the probe.
    CheckOpen(kind, RangeAtom(10, 30), bound, binding,
              {AccessPath::Kind::kRange,
               /*exact=*/storage::IndexKindIsOrdered(kind)});
  }
}

TEST(AccessPathTest, WideRangeDeclinedOnEveryKind) {
  const std::vector<bool> bound(2, false);
  const Value binding[2] = {0, 0};
  for (IndexKind kind : kAllKinds) {
    // 0 <= y < 190 covers 95%: the scan wins, so the path opens densely.
    CheckOpen(kind, RangeAtom(0, 190), bound, binding,
              {AccessPath::Kind::kRange, /*exact=*/false});
  }
}

TEST(AccessPathTest, OldOnlyAtomsStopBelowTheDelta) {
  // Cuts near the end, mid-relation and at row 1 (only row 0 is old; the
  // x = 3 probe then has no old match, which CheckOpen's non-empty oracle
  // rejects, so that case stops at the mid cut).
  const std::vector<bool> none(2, false);
  const std::vector<bool> x_bound = {true, false};
  const Value zero[2] = {0, 0};
  const Value x_is_3[2] = {3, 0};
  for (RowId delta_rows : {1u, 50u, 199u}) {
    for (IndexKind kind : kAllKinds) {
      CheckOpen(kind, Atom(LocalTerm::Var(kX), LocalTerm::Var(kY)), none, zero,
                {AccessPath::Kind::kScan, /*exact=*/true}, RowWindow::kOld,
                delta_rows);
      CheckOpen(kind, Atom(LocalTerm::Const(0), LocalTerm::Var(kY)), none,
                zero, {AccessPath::Kind::kPoint, /*exact=*/true},
                RowWindow::kOld, delta_rows);
      if (delta_rows < 190) {
        CheckOpen(kind, Atom(LocalTerm::Var(kX), LocalTerm::Var(kY)),
                  x_bound, x_is_3, {AccessPath::Kind::kPoint, /*exact=*/true},
                  RowWindow::kOld, delta_rows);
      }
      CheckOpen(kind, RangeAtom(0, 30), none, zero,
                {AccessPath::Kind::kRange,
                 /*exact=*/storage::IndexKindIsOrdered(kind)},
                RowWindow::kOld, delta_rows);
    }
  }
}

TEST(AccessPathTest, DeltaAtomsReadOnlyTheDelta) {
  // Windows of the last 20 rows, the back half and all but row 0. Each
  // holds a k = 0 and a k = 3 row and values in [170, 190), so every
  // open has matches (CheckOpen's non-empty oracle).
  const std::vector<bool> none(2, false);
  const std::vector<bool> x_bound = {true, false};
  const Value zero[2] = {0, 0};
  const Value x_is_3[2] = {3, 0};
  for (RowId delta_rows : {20u, 100u, 199u}) {
    for (IndexKind kind : kAllKinds) {
      CheckOpen(kind, Atom(LocalTerm::Var(kX), LocalTerm::Var(kY)), none, zero,
                {AccessPath::Kind::kScan, /*exact=*/true}, RowWindow::kDelta,
                delta_rows);
      CheckOpen(kind, Atom(LocalTerm::Const(0), LocalTerm::Var(kY)), none,
                zero, {AccessPath::Kind::kPoint, /*exact=*/true},
                RowWindow::kDelta, delta_rows);
      CheckOpen(kind, Atom(LocalTerm::Var(kX), LocalTerm::Var(kY)), x_bound,
                x_is_3, {AccessPath::Kind::kPoint, /*exact=*/true},
                RowWindow::kDelta, delta_rows);
      CheckOpen(kind, RangeAtom(170, 190), none, zero,
                {AccessPath::Kind::kRange,
                 /*exact=*/storage::IndexKindIsOrdered(kind)},
                RowWindow::kDelta, delta_rows);
    }
  }
}

TEST(AccessPathTest, PointProbeBeatsRange) {
  FilledDb filled(IndexKind::kBtree, 0);
  AccessProfiler profiler;
  AtomSpec atom = RangeAtom(10, 30);
  atom.terms[0] = LocalTerm::Const(4);
  const AccessPath path = AccessPath::Resolve(
      filled.db, atom, std::vector<bool>(2, false), &profiler);
  EXPECT_EQ(path.kind(), AccessPath::Kind::kPoint);
  EXPECT_FALSE(path.key_is_var());
}

TEST(AccessPathTest, OpenBatchMatchesPointProbesAndRecordsOnce) {
  // Every cursor is the bucket cut to the atom's window: all rows, the
  // old rows below RowId 150, or a delta of the last 1, 50 or 150 rows.
  // Every key counts as a probe; a hit is a key with rows in the window.
  const std::pair<RowWindow, RowId> cases[] = {
      {RowWindow::kAll, 0},     {RowWindow::kOld, 50},
      {RowWindow::kDelta, 1},   {RowWindow::kDelta, 50},
      {RowWindow::kDelta, 150},
  };
  for (const auto& [window, delta_rows] : cases) {
    for (IndexKind kind : kAllKinds) {
      SCOPED_TRACE(storage::IndexKindName(kind));
      SCOPED_TRACE("window=" + std::to_string(static_cast<int>(window)) +
                   " delta_rows=" + std::to_string(delta_rows));
      FilledDb filled(kind, delta_rows);
      const Relation& rel = filled.rel();
      const auto [lo, hi] = Expected(window, delta_rows);
      AtomSpec atom = Atom(LocalTerm::Var(kX), LocalTerm::Var(kY));
      atom.window = window;
      AccessProfiler profiler;
      const AccessPath path =
          AccessPath::Resolve(filled.db, atom, {true, false}, &profiler);
      ASSERT_EQ(path.kind(), AccessPath::Kind::kPoint);
      ASSERT_TRUE(path.key_is_var());
      const Value keys[] = {1, 1, 40, 16, 0};
      storage::RowCursor cursors[5];
      path.OpenBatch(keys, 5, cursors);
      uint64_t hits = 0;
      for (size_t k = 0; k < 5; ++k) {
        std::vector<RowId> batched;
        std::vector<RowId> single;
        cursors[k].ForEach([&](RowId row) { batched.push_back(row); });
        rel.Probe(0, keys[k]).ForEach([&](RowId row) {
          if (row >= lo && row < hi) single.push_back(row);
        });
        EXPECT_EQ(batched, single) << "key " << keys[k];
        hits += !single.empty();
      }
      const ColumnProbeStats& stats = profiler.counters().at({kPred, 0});
      EXPECT_EQ(stats.batch_windows, 1u);
      EXPECT_EQ(stats.point_probes, 5u);
      EXPECT_EQ(stats.point_hits, hits);
      if (window == RowWindow::kAll) {
        EXPECT_EQ(hits, 4u);  // Key 40 matches nothing.
      }
    }
  }
}

TEST(AccessPathTest, FirstProbeColumnSkipsKeysTheAtomBindsItself) {
  // R(x, x) with nothing bound: the second x is a within-row check, not
  // a probe key, so no column qualifies.
  const AtomSpec atom = Atom(LocalTerm::Var(kX), LocalTerm::Var(kX));
  const int32_t col = FirstProbeColumn(
      atom, [](LocalVar) { return false; }, [](size_t) { return true; });
  EXPECT_EQ(col, -1);
  const int32_t unindexed_first = FirstProbeColumn(
      Atom(LocalTerm::Const(1), LocalTerm::Const(2)),
      [](LocalVar) { return false; }, [](size_t c) { return c == 1; });
  EXPECT_EQ(unindexed_first, 1);
}

// ---- Push/pull profiler parity ----

using WorkloadFn = std::function<analysis::Workload()>;

analysis::Workload MakeAndersenWorkload() {
  analysis::SListConfig config;
  config.scale = 4;
  return analysis::MakeAndersen(config, analysis::RuleOrder::kHandOptimized);
}

analysis::Workload MakeCspaWorkload() {
  analysis::CspaConfig config;
  config.total_tuples = 600;
  // This structure seed derives the fewest tuples at 600 (the default's
  // interpreted run is ~7x longer), keeping the sweep test-sized.
  config.seed = 3;
  return analysis::MakeCspa(config, analysis::RuleOrder::kHandOptimized);
}

analysis::Workload MakeBoundedReachWorkload() {
  // Reach's recursive rule carries y >= 20 and y < 200 on Reach's second
  // column: a const-bounded range atom under the join.
  const auto edges = analysis::GenerateSparseGraph(
      /*seed=*/23, /*num_vertices=*/250, /*num_edges=*/800, /*zipf_s=*/1.1);
  analysis::Workload w;
  w.name = "BoundedReach";
  w.program = std::make_unique<datalog::Program>();
  datalog::Dsl dsl(w.program.get());
  auto edge = dsl.Relation("Edge", 2);
  auto reach = dsl.Relation("Reach", 2);
  auto [x, y, z] = dsl.Vars<3>();
  reach(x, y) <<= edge(x, y);
  reach(x, z) <<= reach(x, y) & edge(y, z) & dsl.Ge(y, 20) & dsl.Lt(y, 200);
  w.output = reach.id();
  for (const auto& e : edges) {
    w.program->AddFact(edge.id(), {e.first, e.second});
  }
  return w;
}

std::map<AccessProfiler::Key, ColumnProbeStats> Profile(
    const WorkloadFn& make, EngineStyle style, int threads, uint32_t window) {
  analysis::Workload w = make();
  core::EngineConfig config;
  config.engine_style = style;
  config.num_threads = threads;
  config.parallel_min_outer_rows = 1;
  config.probe_batch_window = window;
  core::Engine engine(w.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  return engine.profiler().counters();
}

void CheckParity(const std::string& name, const WorkloadFn& make,
                 bool expect_batches, bool expect_ranges) {
  for (int threads : {1, 2}) {
    for (uint32_t window : {0u, 64u}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads) +
                   " window=" + std::to_string(window));
      const auto push = Profile(make, EngineStyle::kPush, threads, window);
      const auto pull = Profile(make, EngineStyle::kPull, threads, window);
      ASSERT_EQ(push.size(), pull.size());
      ColumnProbeStats total;
      for (const auto& [key, stats] : push) {
        auto it = pull.find(key);
        ASSERT_NE(it, pull.end())
            << "rel " << key.first << " col " << key.second;
        const ColumnProbeStats& other = it->second;
        EXPECT_EQ(stats.point_probes, other.point_probes) << key.first;
        EXPECT_EQ(stats.point_hits, other.point_hits) << key.first;
        EXPECT_EQ(stats.range_probes, other.range_probes) << key.first;
        EXPECT_EQ(stats.batch_windows, other.batch_windows) << key.first;
        total.MergeFrom(stats);
      }
      EXPECT_GT(total.point_probes, 0u);
      EXPECT_EQ(total.batch_windows > 0, expect_batches && window > 0);
      if (expect_ranges) {
        EXPECT_GT(total.range_probes, 0u);
      }
    }
  }
}

TEST(ProfilerParityTest, AndersenPushEqualsPull) {
  CheckParity("andersen", MakeAndersenWorkload, /*expect_batches=*/true,
              /*expect_ranges=*/false);
}

TEST(ProfilerParityTest, CspaPushEqualsPull) {
  CheckParity("cspa", MakeCspaWorkload, /*expect_batches=*/true,
              /*expect_ranges=*/false);
}

TEST(ProfilerParityTest, BoundedReachPushEqualsPull) {
  // The comparison builtins schedule right behind Reach, so no atom pair
  // is batch-eligible here; the range path carries this program.
  CheckParity("bounded_reach", MakeBoundedReachWorkload,
              /*expect_batches=*/false, /*expect_ranges=*/true);
}

}  // namespace
}  // namespace carac::ir
