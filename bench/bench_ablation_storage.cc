// Ablation: the paper's storage axis, measured two ways.
//
// Section 1 — engine style (push vs pull, §V-D) crossed with index
// organization (hash vs sorted, the Soufflé-style ordered-index
// extension) on the CSPA macrobenchmark.
//
// Section 2 — storage *layout*: the columnar arena engine
// (storage/relation.h: contiguous row-major arena + open-addressing
// RowId table + RowId index buckets) against a reference node-based
// implementation of the same contract (std::unordered_set<Tuple> nodes +
// const Tuple* index buckets — the layout this engine replaced). Same
// insert/contains/probe workload on both, so the delta isolates exactly
// what the paper's storage ablation isolates: the data-structure
// substrate underneath an unchanged evaluator.

#include <unordered_map>
#include <unordered_set>

#include "analysis/factgen.h"
#include "bench_common.h"
#include "util/timer.h"

namespace {

using namespace carac;
using storage::Tuple;
using storage::TupleHash;
using storage::Value;

/// Reference node-based relation: one heap node per tuple, pointer
/// buckets in the index. Mirrors the pre-arena storage engine.
class NodeRelationRef {
 public:
  bool Insert(const Tuple& t) {
    auto [it, inserted] = rows_.insert(t);
    if (inserted) index0_[(*it)[0]].push_back(&*it);
    return inserted;
  }

  bool Contains(const Tuple& t) const { return rows_.count(t) > 0; }

  const std::vector<const Tuple*>& Probe(Value key) const {
    static const std::vector<const Tuple*> kEmpty;
    auto it = index0_.find(key);
    return it == index0_.end() ? kEmpty : it->second;
  }

 private:
  std::unordered_set<Tuple, TupleHash> rows_;
  std::unordered_map<Value, std::vector<const Tuple*>> index0_;
};

struct LayoutTimes {
  double insert_s = 0;
  double probe_s = 0;
  double contains_s = 0;
  int64_t checksum = 0;  // Defeats dead-code elimination; printed for sanity.
};

/// The workload both layouts run: bulk-insert `edges` (with duplicates
/// re-offered), then sweep column-0 probes summing the probed rows, then
/// a contains pass of half hits / half misses.
constexpr int kProbeSweeps = 40;

LayoutTimes RunArena(const std::vector<analysis::Edge>& edges,
                     int64_t num_vertices) {
  LayoutTimes times;
  storage::Relation rel("R", 2);
  rel.DeclareIndex(0);
  util::Timer timer;
  for (const auto& e : edges) rel.Insert({e.first, e.second});
  for (const auto& e : edges) rel.Insert({e.first, e.second});  // Dups.
  times.insert_s = timer.ElapsedSeconds();

  timer.Restart();
  for (int sweep = 0; sweep < kProbeSweeps; ++sweep) {
    for (int64_t v = 0; v < num_vertices; ++v) {
      for (storage::RowId row : rel.Probe(0, v)) {
        times.checksum += rel.View(row)[1];
      }
    }
  }
  times.probe_s = timer.ElapsedSeconds();

  timer.Restart();
  for (int sweep = 0; sweep < kProbeSweeps; ++sweep) {
    for (const auto& e : edges) {
      times.checksum += rel.Contains({e.first, e.second});
      times.checksum += rel.Contains({e.first, e.second + num_vertices});
    }
  }
  times.contains_s = timer.ElapsedSeconds();
  return times;
}

LayoutTimes RunNodeRef(const std::vector<analysis::Edge>& edges,
                       int64_t num_vertices) {
  LayoutTimes times;
  NodeRelationRef rel;
  util::Timer timer;
  for (const auto& e : edges) rel.Insert({e.first, e.second});
  for (const auto& e : edges) rel.Insert({e.first, e.second});  // Dups.
  times.insert_s = timer.ElapsedSeconds();

  timer.Restart();
  for (int sweep = 0; sweep < kProbeSweeps; ++sweep) {
    for (int64_t v = 0; v < num_vertices; ++v) {
      for (const Tuple* t : rel.Probe(v)) times.checksum += (*t)[1];
    }
  }
  times.probe_s = timer.ElapsedSeconds();

  timer.Restart();
  for (int sweep = 0; sweep < kProbeSweeps; ++sweep) {
    for (const auto& e : edges) {
      times.checksum += rel.Contains({e.first, e.second});
      times.checksum += rel.Contains({e.first, e.second + num_vertices});
    }
  }
  times.contains_s = timer.ElapsedSeconds();
  return times;
}

void PrintLayoutAblation() {
  const int64_t num_vertices = bench::LargeScale() ? 20000 : 4000;
  const int64_t num_edges = num_vertices * 8;
  const auto edges =
      analysis::GenerateSparseGraph(7, num_vertices, num_edges, 1.1);

  std::printf("\nAblation: storage layout (insert+probe+contains, %zu "
              "edges, %d probe sweeps)\n\n",
              edges.size(), kProbeSweeps);
  // Untimed warm-up pass of BOTH layouts first: page-faulting the edges
  // vector, allocator warm-up and CPU frequency ramp must not be charged
  // to whichever layout happens to run first.
  (void)RunNodeRef(edges, num_vertices);
  (void)RunArena(edges, num_vertices);
  const LayoutTimes node = RunNodeRef(edges, num_vertices);
  const LayoutTimes arena = RunArena(edges, num_vertices);
  if (node.checksum != arena.checksum) {
    std::printf("ERROR: layout checksums differ (%lld vs %lld)\n",
                static_cast<long long>(node.checksum),
                static_cast<long long>(arena.checksum));
  }

  harness::TablePrinter table(
      {"layout", "insert (s)", "probe (s)", "contains (s)", "total (s)",
       "speedup"});
  const double node_total = node.insert_s + node.probe_s + node.contains_s;
  const double arena_total =
      arena.insert_s + arena.probe_s + arena.contains_s;
  table.AddRow({"node-based reference", harness::FormatSeconds(node.insert_s),
                harness::FormatSeconds(node.probe_s),
                harness::FormatSeconds(node.contains_s),
                harness::FormatSeconds(node_total), "1.00x"});
  table.AddRow({"columnar arena", harness::FormatSeconds(arena.insert_s),
                harness::FormatSeconds(arena.probe_s),
                harness::FormatSeconds(arena.contains_s),
                harness::FormatSeconds(arena_total),
                harness::FormatSpeedup(node_total / arena_total)});
  table.Print();
  std::printf("\nExpected shape: the arena wins on every column — inserts "
              "append instead of\nallocating nodes, probes chase RowIds "
              "into contiguous memory instead of pointers.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseFlags(argc, argv);
  const bench::Sizes sizes = bench::Sizes::Get();
  auto factory = bench::Factory("CSPA", analysis::RuleOrder::kHandOptimized,
                                sizes);

  std::printf("Ablation: engine style x index organization (CSPA, "
              "hand-optimized, interpreted)\n\n");
  harness::TablePrinter table(
      {"configuration", "time (s)", "relative", "VAlias rows"});

  double reference = 0;
  for (ir::EngineStyle style : {ir::EngineStyle::kPush,
                                ir::EngineStyle::kPull}) {
    for (storage::IndexKind kind : {storage::IndexKind::kHash,
                                    storage::IndexKind::kSorted}) {
      core::EngineConfig config = harness::InterpretedConfig(true);
      config.engine_style = style;
      config.index_kind = kind;
      harness::Measurement m =
          harness::MeasureMedian(factory, config, sizes.reps);
      if (reference == 0) reference = m.seconds;
      const std::string label = std::string(ir::EngineStyleName(style)) +
                                " + " + storage::IndexKindName(kind);
      table.AddRow({label, harness::FormatSeconds(m.seconds),
                    harness::FormatSpeedup(reference / m.seconds),
                    std::to_string(m.result_size)});
    }
  }
  table.Print();
  std::printf("\nExpected shape: push vs pull differ only in per-row "
              "overhead; hash probes beat\nsorted probes on point lookups "
              "(sorted buys ordered range scans instead).\n");

  PrintLayoutAblation();
  return 0;
}
