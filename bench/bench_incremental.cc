// Incremental epoch latency vs full re-evaluation.
//
// The claim under test: with epoch-based evaluation, absorbing a fact
// delta costs proportional to the delta, not the database. For each
// workload and delta size (1% and 10% of the EDB) this bench measures
//   full:  evaluating the union of the facts from scratch, and
//   epoch: AddFacts(delta) + Update() on an engine already at fixpoint
//          over the other (100 - delta)% of the facts,
// checks both land on the same result cardinality, and reports the
// speedup, plus one "incremental" record per workload and delta size.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "bench_common.h"
#include "core/engine.h"
#include "util/timer.h"

namespace {

using namespace carac;

constexpr int kReps = 3;

struct IncResult {
  double full_seconds = 0;
  double epoch_seconds = 0;
  size_t output_rows = 0;
  size_t delta_rows = 0;
  bool consistent = true;
};

/// `make` must rebuild the identical workload on every call (the fact
/// generators are seeded, so it does).
IncResult Measure(const harness::WorkloadFactory& make,
                  const core::EngineConfig& config, double delta_frac) {
  IncResult result;

  // Full evaluation over the union of the facts: the shared harness
  // methodology (fresh engine per rep, Prepare() excluded, median kept).
  const harness::Measurement full =
      harness::MeasureMedian(make, config, kReps);
  CARAC_CHECK(full.ok);
  result.full_seconds = full.seconds;
  result.output_rows = full.result_size;

  // Incremental: pre-load all but the delta, reach fixpoint (untimed),
  // then time AddFacts + Update alone — the steady-state serving cost.
  std::vector<double> epoch_times;
  for (int rep = 0; rep < kReps; ++rep) {
    analysis::Workload w = make();
    const bench::FactSplit split = bench::SplitFacts(w, delta_frac);
    storage::DatabaseSet& db = w.program->db();
    for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
      db.ClearFacts(id);
    }
    core::Engine engine(w.program.get(), config);
    for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
      CARAC_CHECK_OK(engine.AddFacts(id, split.head[id]));
    }
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    util::Timer timer;
    for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
      CARAC_CHECK_OK(engine.AddFacts(id, split.tail[id]));
    }
    CARAC_CHECK_OK(engine.Update());
    epoch_times.push_back(timer.ElapsedSeconds());
    result.delta_rows = split.tail_rows;
    if (engine.ResultSize(w.output) != result.output_rows) {
      result.consistent = false;
    }
  }
  result.epoch_seconds = bench::Median(epoch_times);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // --threads applies to BOTH arms (full and epoch), so the reported
  // speedup stays an apples-to-apples comparison at that pool width.
  core::EngineConfig config;
  config.num_threads =
      bench::ParseFlags(argc, argv, bench::kThreadsFlag).threads;
  const bench::Sizes sizes = bench::Sizes::Get();
  // Edge/vertex ratio 1.5 keeps the closure sparse enough that a 1%
  // edge delta derives a proportionally small path delta; denser graphs
  // (ratio 3) make 1% of the edges rewrite >10% of the closure, which
  // caps the measurable speedup at the workload's physics rather than
  // the engine's epoch overhead.
  const int64_t tc_vertices = bench::LargeScale() ? 30000 : 10000;
  const int64_t tc_edges = bench::LargeScale() ? 45000 : 15000;

  std::printf("Incremental epochs: update latency vs full re-evaluation\n");
  std::printf("(tc: %lld vertices / %lld edges; andersen: slist scale "
              "%lld; threads=%d; median of %d)\n\n",
              static_cast<long long>(tc_vertices),
              static_cast<long long>(tc_edges),
              static_cast<long long>(sizes.slist_scale), config.num_threads,
              kReps);

  struct Spec {
    const char* name;
    harness::WorkloadFactory make;
  };
  const std::vector<Spec> specs = {
      {"tc",
       [&] {
         return analysis::MakeTransitiveClosure(
             analysis::GenerateSparseGraph(/*seed=*/11, tc_vertices,
                                           tc_edges, /*zipf_s=*/1.1),
             analysis::RuleOrder::kHandOptimized);
       }},
      {"andersen",
       [&] {
         analysis::SListConfig config;
         config.scale = sizes.slist_scale;
         return analysis::MakeAndersen(config,
                                       analysis::RuleOrder::kHandOptimized);
       }},
  };

  harness::TablePrinter table({"workload", "delta", "full (s)", "epoch (s)",
                               "speedup", "output rows"});
  bool all_consistent = true;
  for (const Spec& spec : specs) {
    for (int pct : {1, 10}) {
      const IncResult r = Measure(spec.make, config, pct / 100.0);
      all_consistent &= r.consistent;
      const double speedup =
          r.epoch_seconds > 0 ? r.full_seconds / r.epoch_seconds : 0;
      table.AddRow({spec.name, std::to_string(pct) + "% (" +
                                   std::to_string(r.delta_rows) + " rows)",
                    harness::FormatSeconds(r.full_seconds),
                    harness::FormatSeconds(r.epoch_seconds),
                    harness::FormatSpeedup(speedup),
                    std::to_string(r.output_rows)});
      harness::EmitRecord("bench_incremental", "incremental",
                          {{"workload", spec.name}, {"delta_pct", pct},
                           {"full_seconds", r.full_seconds, 6},
                           {"epoch_seconds", r.epoch_seconds, 6},
                           {"speedup", speedup, 2}});
    }
  }
  std::printf("\n");
  table.Print();
  if (!all_consistent) {
    std::fprintf(stderr,
                 "error: incremental epoch diverged from full evaluation\n");
    return 1;
  }
  return 0;
}
