// Thread-scaling of the parallel semi-naive fixpoint
// (EngineConfig::num_threads): transitive closure and Andersen's
// points-to, interpreted push engine, indexed, at 1/2/4/8 threads. The
// inputs are sized up from the figure benches so the rule deltas stay
// comfortably above the parallel dispatch threshold for most of the
// fixpoint — this is the workload regime the worker pool exists for.
//
// Besides the human table, each measurement emits a "scaling" record
// (workload, threads, seconds, speedup vs 1 thread) for the BENCH_*.json
// snapshot.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/factgen.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace carac;
  bench::ParseFlags(argc, argv);
  const bool large = bench::LargeScale();
  const bench::Sizes sizes = bench::Sizes::Get();

  struct ScalingWorkload {
    const char* name;
    harness::WorkloadFactory factory;
  };
  std::vector<ScalingWorkload> workloads;

  const int64_t tc_vertices = large ? 4000 : 1200;
  const int64_t tc_edges = tc_vertices * 4;
  workloads.push_back({"tc", [=] {
                         const auto edges = analysis::GenerateSparseGraph(
                             /*seed=*/11, tc_vertices, tc_edges,
                             /*zipf_s=*/1.1);
                         return analysis::MakeTransitiveClosure(
                             edges, analysis::RuleOrder::kHandOptimized);
                       }});
  analysis::SListConfig andersen;
  andersen.scale = large ? 8 : 4;
  workloads.push_back({"andersen", [=] {
                         return analysis::MakeAndersen(
                             andersen, analysis::RuleOrder::kHandOptimized);
                       }});

  std::printf("Parallel scaling: semi-naive fixpoint wall-clock by "
              "num_threads\n\n");
  harness::TablePrinter table(
      {"workload", "1 thread (s)", "2", "4", "8", "speedup@4"});

  for (const ScalingWorkload& w : workloads) {
    std::vector<std::string> row = {w.name};
    double base = 0;
    double at4 = 0;
    for (int threads : {1, 2, 4, 8}) {
      core::EngineConfig config = harness::InterpretedConfig(true);
      config.num_threads = threads;
      harness::Measurement m =
          harness::MeasureMedian(w.factory, config, sizes.reps);
      if (!m.ok) {
        std::fprintf(stderr, "error: %s at %d threads: %s\n", w.name,
                     threads, m.error.c_str());
        return 1;
      }
      if (threads == 1) base = m.seconds;
      if (threads == 4) at4 = m.seconds;
      const double speedup = m.seconds > 0 ? base / m.seconds : 0;
      harness::EmitRecord("bench_parallel_scaling", "scaling",
                          {{"workload", w.name}, {"threads", threads},
                           {"seconds", m.seconds, 4}, {"speedup", speedup, 2}});
      row.push_back(threads == 1 ? harness::FormatSeconds(m.seconds)
                                 : harness::FormatSeconds(m.seconds) + " (" +
                                       harness::FormatSpeedup(speedup) + ")");
    }
    row.push_back(at4 > 0 ? harness::FormatSpeedup(base / at4) : "-");
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\nExpected shape: near-linear scaling while deltas are "
              "large; the tail\niterations (tiny deltas) stay "
              "single-threaded by design, so speedup\nflattens below the "
              "thread count.\n");
  return 0;
}
