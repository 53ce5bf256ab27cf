// Incremental (epoch-based) evaluation: AddFacts() + Update() must land
// on exactly the model a from-scratch run over the union of the facts
// produces. The headline suites pin tc and Andersen incremental runs to
// the SAME goldens the one-shot storage_golden_test uses — an update
// epoch is not allowed to drift from batch evaluation by a single byte.
// The rest covers the non-monotone fallbacks (negation and aggregates
// retract; their strata recompute and the retraction cascades
// downstream) and the Status contract for API misuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "core/engine.h"
#include "datalog/dsl.h"

#ifndef CARAC_GOLDEN_DIR
#error "CARAC_GOLDEN_DIR must point at tests/goldens"
#endif

namespace carac {
namespace {

using datalog::Dsl;
using datalog::Program;
using storage::Tuple;

std::string Render(const std::vector<Tuple>& rows) {
  std::ostringstream out;
  for (const Tuple& t : rows) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << '\t';
      out << t[i];
    }
    out << '\n';
  }
  return out.str();
}

std::string ReadGolden(const std::string& name) {
  const std::string path =
      std::string(CARAC_GOLDEN_DIR) + "/" + name + ".golden";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// ---- tc pinned to the committed golden, across engines and threads ----

void CheckTcIncremental(const core::EngineConfig& config, size_t num_batches,
                        size_t* rekind_events = nullptr) {
  const auto edges = analysis::GenerateSparseGraph(
      /*seed=*/11, /*num_vertices=*/300, /*num_edges=*/900, /*zipf_s=*/1.1);
  // Initial load: all but the last ~1% per extra batch.
  const size_t delta = edges.size() / 100;
  const size_t initial = edges.size() - delta * (num_batches - 1);
  const std::vector<analysis::Edge> head(edges.begin(),
                                         edges.begin() + initial);

  analysis::Workload w =
      analysis::MakeTransitiveClosure(head, analysis::RuleOrder::kHandOptimized);
  core::Engine engine(w.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());

  const datalog::PredicateId edge = w.relations.at("Edge");
  for (size_t b = 1; b < num_batches; ++b) {
    std::vector<Tuple> batch;
    for (size_t i = initial + (b - 1) * delta;
         i < initial + b * delta && i < edges.size(); ++i) {
      batch.push_back({edges[i].first, edges[i].second});
    }
    CARAC_CHECK_OK(engine.AddFacts(edge, batch));
    core::EpochReport report;
    CARAC_CHECK_OK(engine.Update(&report));
    EXPECT_FALSE(report.full);
    EXPECT_EQ(report.strata_recomputed, 0u);  // Purely positive program.
    EXPECT_GE(report.seeded_rows, batch.size());
  }
  EXPECT_EQ(Render(engine.Results(w.output)), ReadGolden("tc"));
  if (rekind_events != nullptr) {
    ASSERT_NE(engine.adaptive_policy(), nullptr);
    *rekind_events = engine.adaptive_policy()->events().size();
  }
}

TEST(IncrementalGoldenTest, TcPushEngine) {
  CheckTcIncremental(core::EngineConfig{}, 3);
}

TEST(IncrementalGoldenTest, TcPullEngine) {
  core::EngineConfig config;
  config.engine_style = ir::EngineStyle::kPull;
  CheckTcIncremental(config, 3);
}

TEST(IncrementalGoldenTest, TcParallel) {
  for (int threads : {2, 4}) {
    core::EngineConfig config;
    config.num_threads = threads;
    config.parallel_min_outer_rows = 1;
    CheckTcIncremental(config, 3);
  }
}

TEST(IncrementalGoldenTest, TcJitBytecode) {
  core::EngineConfig config;
  config.mode = core::EvalMode::kJit;
  config.jit.backend = backends::BackendKind::kBytecode;
  CheckTcIncremental(config, 3);
}

// ---- Self-tuning: adaptive re-kinding must not move a golden byte ----

TEST(IncrementalGoldenTest, TcAdaptiveRekindsAndStaysGolden) {
  // Start every index on a deliberately wrong static kind for this
  // point-probe-dominated workload (btree) with the policy armed hot
  // (no evidence gate, immediate hysteresis): migrations MUST fire
  // across the multi-epoch run, and the output must stay byte-identical
  // to the committed golden through every rebuild.
  core::EngineConfig config;
  config.index_kind = storage::IndexKind::kBtree;
  config.adaptive_indexes = true;
  config.adaptive.min_probes = 1;
  config.adaptive.hysteresis_epochs = 1;
  config.adaptive.cooldown_epochs = 0;
  size_t rekinds = 0;
  CheckTcIncremental(config, 6, &rekinds);
  EXPECT_GT(rekinds, 0u);
}

TEST(IncrementalGoldenTest, TcAdaptiveParallelStaysGolden) {
  // Same, across the shard/stage/merge path: per-shard profilers merge
  // at the same serial point as staged rows, so the policy sees the same
  // evidence and the golden must not move at any thread count.
  for (int threads : {2, 4}) {
    core::EngineConfig config;
    config.index_kind = storage::IndexKind::kBtree;
    config.adaptive_indexes = true;
    config.adaptive.min_probes = 1;
    config.adaptive.hysteresis_epochs = 1;
    config.adaptive.cooldown_epochs = 0;
    config.num_threads = threads;
    config.parallel_min_outer_rows = 1;
    size_t rekinds = 0;
    CheckTcIncremental(config, 6, &rekinds);
    EXPECT_GT(rekinds, 0u) << threads << " threads";
  }
}

// ---- Self-tuning: declined range demand re-kinds hash to ordered ----

TEST(IncrementalGoldenTest, RangeDemandRekindsHashToOrdered) {
  // A range-constrained recursion (Reach col1 is bounded by a comparison
  // builtin, never point-probed by the full tree) forced to start on hash
  // everywhere. Range pushdown records the demand even though the hash
  // index declines to serve it — that declined demand is exactly the
  // evidence the adaptive policy needs, so with the policy armed hot the
  // column MUST migrate to an ordered kind, after which the same builtin
  // serves through ProbeRange. Every epoch must land on the model a
  // from-scratch run over the union of the facts produces.
  const auto edges = analysis::GenerateSparseGraph(
      /*seed=*/7, /*num_vertices=*/150, /*num_edges=*/450, /*zipf_s=*/1.1);
  auto build = [](datalog::Program* program, datalog::PredicateId* edge_id) {
    Dsl dsl(program);
    auto edge = dsl.Relation("Edge", 2);
    auto reach = dsl.Relation("Reach", 2);
    auto [x, y, z] = dsl.Vars<3>();
    reach(x, y) <<= edge(x, y);
    reach(x, z) <<= reach(x, y) & edge(y, z) & dsl.Lt(y, 60);
    *edge_id = edge.id();
    return reach.id();
  };

  // Reference: a default-config from-scratch run over all the facts.
  Program ref_program;
  datalog::PredicateId ref_edge;
  const datalog::PredicateId ref_reach = build(&ref_program, &ref_edge);
  core::Engine ref(&ref_program, core::EngineConfig{});
  CARAC_CHECK_OK(ref.Prepare());
  std::vector<Tuple> all_facts;
  for (const auto& e : edges) all_facts.push_back({e.first, e.second});
  CARAC_CHECK_OK(ref.AddFacts(ref_edge, all_facts));
  CARAC_CHECK_OK(ref.Run());
  const std::string expected = Render(ref.Results(ref_reach));

  core::EngineConfig config;
  config.index_kind = storage::IndexKind::kHash;
  config.adaptive_indexes = true;
  config.adaptive.min_probes = 1;
  config.adaptive.hysteresis_epochs = 1;
  config.adaptive.cooldown_epochs = 0;
  Program program;
  datalog::PredicateId edge_id;
  const datalog::PredicateId reach_id = build(&program, &edge_id);
  core::Engine engine(&program, config);
  CARAC_CHECK_OK(engine.Prepare());

  constexpr size_t kBatches = 3;
  const size_t delta = edges.size() / 50;
  const size_t initial = edges.size() - delta * (kBatches - 1);
  std::vector<Tuple> head(all_facts.begin(),
                          all_facts.begin() + static_cast<ptrdiff_t>(initial));
  CARAC_CHECK_OK(engine.AddFacts(edge_id, head));
  CARAC_CHECK_OK(engine.Run());
  for (size_t b = 1; b < kBatches; ++b) {
    std::vector<Tuple> batch(
        all_facts.begin() + static_cast<ptrdiff_t>(initial + (b - 1) * delta),
        all_facts.begin() + static_cast<ptrdiff_t>(initial + b * delta));
    CARAC_CHECK_OK(engine.AddFacts(edge_id, batch));
    CARAC_CHECK_OK(engine.Update());
  }
  EXPECT_EQ(Render(engine.Results(reach_id)), expected);

  ASSERT_NE(engine.adaptive_policy(), nullptr);
  const auto& events = engine.adaptive_policy()->events();
  ASSERT_FALSE(events.empty());
  bool reach_went_ordered = false;
  for (const optimizer::RekindEvent& event : events) {
    if (event.relation == reach_id && event.column == 1 &&
        storage::IndexKindIsOrdered(event.to)) {
      reach_went_ordered = true;
      // Migration must not be a last-epoch fluke: later epochs run (and
      // stay correct) with the ordered kind actually serving the range.
      EXPECT_LT(event.epoch, kBatches);
    }
  }
  EXPECT_TRUE(reach_went_ordered);
}

TEST(IncrementalGoldenTest, TcAdaptiveDefaultKnobsStayGolden) {
  // Production knobs (256-probe gate, 2-epoch hysteresis + cooldown):
  // whether or not any migration clears the gate on this small workload,
  // the run must stay golden.
  core::EngineConfig config;
  config.adaptive_indexes = true;
  CheckTcIncremental(config, 4);
}

// ---- Andersen pinned to the committed golden ----

void CheckAndersenGolden(const core::EngineConfig& config,
                         size_t* rekind_events = nullptr) {
  analysis::SListConfig slist;
  slist.scale = 2;
  analysis::Workload w =
      analysis::MakeAndersen(slist, analysis::RuleOrder::kHandOptimized);

  // Snapshot every relation's facts (construction inserts them into
  // Derived), unload, and replay: all but the last 1% of each relation
  // up front, the tail as an update epoch.
  storage::DatabaseSet& db = w.program->db();
  std::vector<std::vector<Tuple>> initial(db.NumRelations());
  std::vector<std::vector<Tuple>> tail(db.NumRelations());
  for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
    const storage::Relation& rel = db.Get(id, storage::DbKind::kDerived);
    // ~1% tail per relation, at least one row for any relation big
    // enough to survive losing one.
    const size_t rows = rel.NumRows();
    const size_t tail_n =
        rows >= 10 ? std::max<size_t>(1, rows / 100) : 0;
    for (storage::RowId row = 0; row < rows; ++row) {
      (row < rows - tail_n ? initial : tail)[id].push_back(
          rel.View(row).ToTuple());
    }
    db.ClearFacts(id);
  }

  core::Engine engine(w.program.get(), config);
  for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
    CARAC_CHECK_OK(engine.AddFacts(id, initial[id]));
  }
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  size_t tail_total = 0;
  for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
    CARAC_CHECK_OK(engine.AddFacts(id, tail[id]));
    tail_total += tail[id].size();
  }
  ASSERT_GT(tail_total, 0u);
  core::EpochReport report;
  CARAC_CHECK_OK(engine.Update(&report));
  EXPECT_FALSE(report.full);
  EXPECT_EQ(Render(engine.Results(w.output)), ReadGolden("andersen"));
  if (rekind_events != nullptr) {
    ASSERT_NE(engine.adaptive_policy(), nullptr);
    *rekind_events = engine.adaptive_policy()->events().size();
  }
}

TEST(IncrementalGoldenTest, Andersen) {
  CheckAndersenGolden(core::EngineConfig{});
}

TEST(IncrementalGoldenTest, AndersenAdaptiveRekindsAndStaysGolden) {
  // Multi-relation, multi-column program under a hot adaptive policy
  // starting from the wrong static kind: re-kinds must fire and the
  // golden must not move.
  core::EngineConfig config;
  config.index_kind = storage::IndexKind::kBtree;
  config.adaptive_indexes = true;
  config.adaptive.min_probes = 1;
  config.adaptive.hysteresis_epochs = 1;
  config.adaptive.cooldown_epochs = 0;
  size_t rekinds = 0;
  CheckAndersenGolden(config, &rekinds);
  EXPECT_GT(rekinds, 0u);
}

// ---- A one-fact epoch probes per delta row, it does not scan ----

/// Total point probes the engine has recorded so far.
uint64_t PointProbes(const core::Engine& engine) {
  uint64_t total = 0;
  for (const auto& [key, stats] : engine.profiler().counters()) {
    total += stats.point_probes;
  }
  return total;
}

/// Runs Andersen (scale 2) with its last AddrOf fact held out, then adds
/// that fact as one epoch. Update variants join their atoms in connected
/// order after the delta, so every atom past the delta is an index probe
/// keyed by bound variables, and the epoch makes fewer point probes than
/// it considers tuples. A variant such as [dPointsTo(a,o), Load(v,p),
/// PointsTo(p,a)] would scan Load per delta row instead.
TEST(IncrementalProbeTest, OneFactAndersenEpochProbesPerDeltaRow) {
  core::EngineConfig push;
  core::EngineConfig pull;
  pull.engine_style = ir::EngineStyle::kPull;
  core::EngineConfig bytecode;
  bytecode.mode = core::EvalMode::kJit;
  bytecode.jit.backend = backends::BackendKind::kBytecode;
  core::EngineConfig threads;
  threads.num_threads = 2;
  threads.parallel_min_outer_rows = 1;
  const std::pair<const char*, core::EngineConfig> configs[] = {
      {"push", push}, {"pull", pull}, {"bytecode", bytecode},
      {"2 threads", threads}};
  for (const auto& [name, config] : configs) {
    SCOPED_TRACE(name);
    analysis::SListConfig slist;
    slist.scale = 2;
    analysis::Workload w =
        analysis::MakeAndersen(slist, analysis::RuleOrder::kHandOptimized);
    storage::DatabaseSet& db = w.program->db();
    const datalog::PredicateId addr_of = w.relations.at("AddrOf");
    std::vector<Tuple> facts =
        db.Get(addr_of, storage::DbKind::kDerived).SortedRows();
    ASSERT_GT(facts.size(), 1u);
    const Tuple held_out = facts.back();
    facts.pop_back();
    db.ClearFacts(addr_of);

    core::Engine engine(w.program.get(), config);
    CARAC_CHECK_OK(engine.AddFacts(addr_of, facts));
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    const uint64_t probes_before = PointProbes(engine);
    CARAC_CHECK_OK(engine.AddFacts(addr_of, {held_out}));
    core::EpochReport report;
    CARAC_CHECK_OK(engine.Update(&report));
    EXPECT_FALSE(report.full);
    const uint64_t probes = PointProbes(engine) - probes_before;
    EXPECT_GT(report.stats.tuples_considered, 0u);
    EXPECT_LT(probes, report.stats.tuples_considered)
        << "point probes " << probes << " for "
        << report.stats.tuples_considered << " tuples considered";
    EXPECT_EQ(Render(engine.Results(w.output)), ReadGolden("andersen"));
  }
}

// ---- Non-monotone fallbacks: negation and aggregates retract ----

TEST(IncrementalSemanticsTest, NegationRetractsOnUpdate) {
  Program p;
  Dsl dsl(&p);
  auto node = dsl.Relation("Node", 1);
  auto closed = dsl.Relation("Closed", 1);
  auto open = dsl.Relation("Open", 1);
  auto x = dsl.Var();
  open(x) <<= node(x) & !closed(x);
  node.Fact(1);
  node.Fact(2);
  node.Fact(3);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.ResultSize(open.id()), 3u);

  // Growing the negated relation must RETRACT Open(2): the stratum
  // recomputes instead of propagating a monotone delta.
  ASSERT_TRUE(engine.AddFacts(closed.id(), {{2}}).ok());
  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_EQ(report.strata_recomputed, 1u);
  EXPECT_EQ(engine.Results(open.id()),
            (std::vector<Tuple>{{1}, {3}}));
}

TEST(IncrementalSemanticsTest, RetractionCascadesDownstream) {
  Program p;
  Dsl dsl(&p);
  auto node = dsl.Relation("Node", 1);
  auto closed = dsl.Relation("Closed", 1);
  auto open = dsl.Relation("Open", 1);
  auto link = dsl.Relation("Link", 2);
  auto reach = dsl.Relation("Reach", 1);
  auto [x, y] = dsl.Vars<2>();
  open(x) <<= node(x) & !closed(x);
  reach(x) <<= open(x) & link(0, x);
  reach(y) <<= reach(x) & link(x, y) & open(y);
  for (int i = 1; i <= 4; ++i) node.Fact(i);
  link.Fact(0, 1);
  link.Fact(1, 2);
  link.Fact(2, 3);
  link.Fact(3, 4);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.ResultSize(reach.id()), 4u);

  // Closing node 2 cuts the chain: Open loses 2, and Reach — a LATER,
  // purely positive stratum — must lose 2, 3 and 4 through the
  // recompute cascade.
  ASSERT_TRUE(engine.AddFacts(closed.id(), {{2}}).ok());
  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_EQ(report.strata_recomputed, 2u);
  EXPECT_EQ(engine.Results(reach.id()), (std::vector<Tuple>{{1}}));
}

TEST(IncrementalSemanticsTest, AggregateRecomputesOnInputGrowth) {
  Program p;
  Dsl dsl(&p);
  auto link = dsl.Relation("Link", 2);
  auto deg = dsl.Relation("Deg", 2);
  auto [x, y, c] = dsl.Vars<3>();
  dsl.AggRule(deg(x, c), datalog::BodyExpr({link(x, y).atom()}),
              datalog::AggFunc::kCount);
  link.Fact(1, 10);
  link.Fact(1, 11);
  link.Fact(2, 10);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.Results(deg.id()),
            (std::vector<Tuple>{{1, 2}, {2, 1}}));

  // A new witness changes group 1's count from 2 to 3; the stale (1, 2)
  // tuple must disappear, which only the recompute fallback can do.
  ASSERT_TRUE(engine.AddFacts(link.id(), {{1, 12}}).ok());
  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_GE(report.strata_recomputed, 1u);
  EXPECT_EQ(engine.Results(deg.id()),
            (std::vector<Tuple>{{1, 3}, {2, 1}}));
}

TEST(IncrementalSemanticsTest, UntouchedNegationStaysIncremental) {
  Program p;
  Dsl dsl(&p);
  auto node = dsl.Relation("Node", 1);
  auto closed = dsl.Relation("Closed", 1);
  auto open = dsl.Relation("Open", 1);
  auto x = dsl.Var();
  open(x) <<= node(x) & !closed(x);
  node.Fact(1);
  closed.Fact(9);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());

  // Only the POSITIVE input grows: derivations stay monotone, so the
  // negation-bearing stratum may (and does) run incrementally.
  ASSERT_TRUE(engine.AddFacts(node.id(), {{2}}).ok());
  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_EQ(report.strata_recomputed, 0u);
  EXPECT_EQ(report.strata_incremental, 1u);
  EXPECT_EQ(engine.Results(open.id()), (std::vector<Tuple>{{1}, {2}}));
}

TEST(IncrementalSemanticsTest, ReassertedDerivedFactSurvivesRecompute) {
  Program p;
  Dsl dsl(&p);
  auto node = dsl.Relation("Node", 1);
  auto closed = dsl.Relation("Closed", 1);
  auto open = dsl.Relation("Open", 1);
  auto x = dsl.Var();
  open(x) <<= node(x) & !closed(x);
  node.Fact(1);
  node.Fact(2);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.ResultSize(open.id()), 2u);

  // Assert Open(2) as an EDB fact — it currently exists only as a
  // derived row, so the insert dedups. Then close node 2: the stratum
  // recomputes, the RULE no longer derives Open(2), but the asserted
  // fact must survive the reset (batch evaluation over the same facts
  // keeps it).
  ASSERT_TRUE(engine.AddFacts(open.id(), {{2}}).ok());
  ASSERT_TRUE(engine.AddFacts(closed.id(), {{2}}).ok());
  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_EQ(report.strata_recomputed, 1u);
  EXPECT_EQ(engine.Results(open.id()), (std::vector<Tuple>{{1}, {2}}));
}

TEST(IncrementalSemanticsTest, AotKeepsUpdateDeltasInFront) {
  // Rules-only AOT prices every atom identically, so without the
  // post-reorder re-fronting pass the constant-bearing Link atom would
  // beat the delta atom to position 0 — and empty-delta variants would
  // degrade from O(1) to a full Derived scan per epoch.
  Program p;
  Dsl dsl(&p);
  auto open = dsl.Relation("Open", 1);
  auto link = dsl.Relation("Link", 2);
  auto reach = dsl.Relation("Reach", 1);
  auto [x, y] = dsl.Vars<2>();
  reach(x) <<= open(x) & link(0, x);
  reach(y) <<= reach(x) & link(x, y);
  open.Fact(1);
  link.Fact(0, 1);

  core::EngineConfig config;
  config.aot_reorder = true;
  config.aot.use_fact_cardinalities = false;
  core::Engine engine(&p, config);
  ASSERT_TRUE(engine.Prepare().ok());

  std::function<void(ir::IROp*)> visit = [&](ir::IROp* op) {
    if (op->kind == ir::OpKind::kSpj) {
      ASSERT_FALSE(op->atoms.empty());
      EXPECT_EQ(op->atoms[0].window, storage::RowWindow::kDelta);
    }
    for (auto& child : op->children) visit(child.get());
  };
  ASSERT_NE(engine.ir().update_root, nullptr);
  visit(engine.ir().update_root.get());
}

// ---- Epoch bookkeeping ----

TEST(IncrementalSemanticsTest, NoChangeEpochSkipsEverything) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);
  edge.Fact(1, 2);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  const uint64_t epoch_after_run = engine.last_epoch().epoch;

  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_EQ(report.epoch, epoch_after_run + 1);
  EXPECT_EQ(report.seeded_rows, 0u);
  EXPECT_EQ(report.strata_skipped, 1u);
  EXPECT_EQ(report.strata_incremental, 0u);
  EXPECT_EQ(report.stats.tuples_inserted, 0u);
}

TEST(IncrementalSemanticsTest, RerunRecomputesFromScratch) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y, z] = dsl.Vars<3>();
  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);
  edge.Fact(1, 2);
  edge.Fact(2, 3);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  const uint64_t first_inserted = engine.last_epoch().stats.tuples_inserted;
  const auto first = engine.Results(path.id());
  // A re-entered Run() resets IDB relations to their EDB facts and
  // re-derives everything — same results, full re-derivation cost.
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.Results(path.id()), first);
  EXPECT_EQ(engine.last_epoch().stats.tuples_inserted, first_inserted);
}

TEST(IncrementalSemanticsTest, RunAfterAddFactsHandlesRetraction) {
  // The documented alternative to Update(): AddFacts then a full Run().
  // The re-run must NOT keep conclusions the new facts retract through
  // negation — and must leave the epoch state consistent, so a later
  // AddFacts + Update() still works.
  Program p;
  Dsl dsl(&p);
  auto a = dsl.Relation("A", 1);
  auto b = dsl.Relation("B", 1);
  auto r = dsl.Relation("R", 1);
  auto x = dsl.Var();
  r(x) <<= a(x) & !b(x);
  a.Fact(1);
  a.Fact(2);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.ResultSize(r.id()), 2u);

  ASSERT_TRUE(engine.AddFacts(b.id(), {{1}}).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.Results(r.id()), (std::vector<Tuple>{{2}}));

  ASSERT_TRUE(engine.AddFacts(b.id(), {{2}}).ok());
  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_EQ(report.strata_recomputed, 1u);
  EXPECT_EQ(engine.ResultSize(r.id()), 0u);
}

TEST(IncrementalSemanticsTest, FirstUpdateIsFullEvaluation) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y] = dsl.Vars<2>();
  path(x, y) <<= edge(x, y);
  edge.Fact(1, 2);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_TRUE(report.full);
  EXPECT_EQ(engine.ResultSize(path.id()), 1u);
}

// ---- API misuse: Status, not undefined behavior ----

TEST(EngineMisuseTest, UpdateBeforePrepareFails) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  (void)edge;
  core::Engine engine(&p, core::EngineConfig{});
  const util::Status status = engine.Update();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.ToString().find("Prepare"), std::string::npos);
}

TEST(EngineMisuseTest, RunBeforePrepareFails) {
  Program p;
  core::Engine engine(&p, core::EngineConfig{});
  const util::Status status = engine.Run();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
}

TEST(EngineMisuseTest, AddFactsUnknownPredicateFails) {
  Program p;
  Dsl dsl(&p);
  dsl.Relation("Edge", 2);
  core::Engine engine(&p, core::EngineConfig{});
  const util::Status status = engine.AddFacts(42, {{1, 2}});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("unknown predicate"), std::string::npos);
}

TEST(EngineMisuseTest, AddFactsWrongArityFails) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  core::Engine engine(&p, core::EngineConfig{});
  const util::Status status = engine.AddFacts(edge.id(), {{1, 2, 3}});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("arity"), std::string::npos);
  // Nothing was inserted for the offending tuple.
  EXPECT_EQ(p.db().Get(edge.id(), storage::DbKind::kDerived).size(), 0u);
}

TEST(EngineMisuseTest, AddFactsDuplicatesAreIdempotent) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto [x, y] = dsl.Vars<2>();
  path(x, y) <<= edge(x, y);
  edge.Fact(1, 2);

  core::Engine engine(&p, core::EngineConfig{});
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());
  // Re-adding an existing fact is a no-op epoch: set semantics dedups at
  // insert, so the watermark sees no new rows.
  ASSERT_TRUE(engine.AddFacts(edge.id(), {{1, 2}}).ok());
  core::EpochReport report;
  ASSERT_TRUE(engine.Update(&report).ok());
  EXPECT_EQ(report.seeded_rows, 0u);
  EXPECT_EQ(engine.ResultSize(path.id()), 1u);
}

}  // namespace
}  // namespace carac
