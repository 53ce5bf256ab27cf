// Durable-state cost model: snapshot write/load throughput, and the
// headline recovery claim — restarting from snapshot + fact-log tail is
// several times cheaper than re-evaluating the database from its inputs.
//
//   snapshot micro  SaveSnapshot / OpenSnapshot wall-clock and MB/s over
//                   a tc closure at fixpoint (sub-second; this is the
//                   slice the CI bench-smoke job runs via --micro).
//   recover         For each workload and log-tail size (1% and 10% of
//                   the EDB): `full` re-evaluates the union of the facts
//                   from scratch (the no-persistence restart), `recover`
//                   times Engine::Restore() — snapshot load + replay of
//                   the committed tail through one incremental epoch.
//                   Both arms must land on the same output cardinality.
//
// Each measurement also emits a "persistence" record: kind "snapshot"
// (rows, bytes, write_s, load_s) or kind "recover" (tail_pct, full_s,
// recover_s, speedup).

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "bench_common.h"
#include "core/engine.h"
#include "storage/database.h"
#include "util/timer.h"

namespace {

using namespace carac;

constexpr int kReps = 3;

std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("carac_bench_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Snapshot write/load micro over a tc closure at fixpoint.
void RunSnapshotMicro() {
  const int64_t vertices = bench::LargeScale() ? 20000 : 4000;
  const int64_t edges = bench::LargeScale() ? 30000 : 6000;
  analysis::Workload w = analysis::MakeTransitiveClosure(
      analysis::GenerateSparseGraph(/*seed=*/11, vertices, edges,
                                    /*zipf_s=*/1.1),
      analysis::RuleOrder::kHandOptimized);
  core::Engine engine(w.program.get(), core::EngineConfig{});
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  size_t total_rows = 0;
  for (storage::RelationId id = 0; id < w.program->db().NumRelations();
       ++id) {
    total_rows += w.program->db().Get(id, storage::DbKind::kDerived).size();
  }

  const std::string dir = ScratchDir("snapshot_micro");
  const std::string path = dir + "/snapshot.bin";
  std::vector<double> write_times;
  std::vector<double> load_times;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Timer write_timer;
    CARAC_CHECK_OK(w.program->db().SaveSnapshot(path));
    write_times.push_back(write_timer.ElapsedSeconds());

    storage::DatabaseSet loaded;
    util::Timer load_timer;
    CARAC_CHECK_OK(loaded.OpenSnapshot(path));
    load_times.push_back(load_timer.ElapsedSeconds());
    CARAC_CHECK(loaded.Get(w.output, storage::DbKind::kDerived).size() ==
                engine.ResultSize(w.output));
  }
  const uintmax_t bytes = std::filesystem::file_size(path);
  const double write_s = bench::Median(write_times);
  const double load_s = bench::Median(load_times);
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  std::printf("snapshot micro: tc %lld vertices / %lld edges, %zu stored "
              "rows, %.1f MB\n",
              static_cast<long long>(vertices),
              static_cast<long long>(edges), total_rows, mb);
  std::printf("  write: %s s (%.0f MB/s)   load: %s s (%.0f MB/s)\n",
              harness::FormatSeconds(write_s).c_str(), mb / write_s,
              harness::FormatSeconds(load_s).c_str(), mb / load_s);
  harness::EmitRecord("bench_persistence", "persistence",
                      {{"workload", "tc"}, {"kind", "snapshot"},
                       {"rows", total_rows}, {"bytes", bytes},
                       {"write_s", write_s, 6}, {"load_s", load_s, 6}});
  std::filesystem::remove_all(dir);
}

struct RecoverResult {
  double full_seconds = 0;
  double recover_seconds = 0;
  size_t output_rows = 0;
  size_t tail_rows = 0;
  bool consistent = true;
};

/// `make` must rebuild the identical workload on every call (the fact
/// generators are seeded, so it does).
RecoverResult MeasureRecover(const harness::WorkloadFactory& make,
                             const core::EngineConfig& base_config,
                             double tail_frac) {
  RecoverResult result;

  // The no-persistence restart: full evaluation over the union of the
  // facts (fresh engine per rep, Prepare() excluded, median kept).
  const harness::Measurement full =
      harness::MeasureMedian(make, base_config, kReps);
  CARAC_CHECK(full.ok);
  result.full_seconds = full.seconds;
  result.output_rows = full.result_size;

  // The persistent restart. Untimed setup builds the durable state a
  // serving process would leave behind: fixpoint over the head facts,
  // checkpoint, then the tail as one logged-and-committed epoch. The
  // timed section is Restore() alone — snapshot load + log replay.
  std::vector<double> recover_times;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::string dir = ScratchDir("recover");
    core::EngineConfig config = base_config;
    config.snapshot_dir = dir;
    {
      analysis::Workload w = make();
      const bench::FactSplit split = bench::SplitFacts(w, tail_frac);
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
      CARAC_CHECK_OK(engine.Checkpoint());
      for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
        CARAC_CHECK_OK(engine.AddFacts(id, split.tail[id]));
      }
      CARAC_CHECK_OK(engine.Update());
      result.tail_rows = split.tail_rows;
    }

    // Restart: re-parse the program source (untimed), then recover.
    analysis::Workload w = make();
    core::Engine engine(w.program.get(), config);
    CARAC_CHECK_OK(engine.Prepare());
    util::Timer timer;
    CARAC_CHECK_OK(engine.Restore());
    recover_times.push_back(timer.ElapsedSeconds());
    if (engine.ResultSize(w.output) != result.output_rows) {
      result.consistent = false;
    }
    std::filesystem::remove_all(dir);
  }
  result.recover_seconds = bench::Median(recover_times);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::ParseFlags(
      argc, argv, bench::kMicroFlag | bench::kThreadsFlag);
  core::EngineConfig config;
  config.num_threads = flags.threads;

  std::printf("Persistence: snapshot throughput and recover-vs-recompute\n\n");
  RunSnapshotMicro();
  if (flags.micro) return 0;
  std::printf("\n");

  // The tc arm runs on a GROWTH-ordered graph (analysis::
  // GenerateGrowthGraph): the fact-log tail is the newest edges at the
  // graph's frontier, the shape of an append-mostly serving workload.
  // On a random-order edge split, a 10% tail re-derives a super-linear
  // share of the closure — real derivations no engine can skip — which
  // measures the workload's physics, not the snapshot+log design. See
  // EXPERIMENTS.md for both protocols and numbers.
  const int64_t tc_vertices = bench::LargeScale() ? 120000 : 40000;
  const bench::Sizes sizes = bench::Sizes::Get();
  std::printf("recover-vs-recompute (tc: growth graph, %lld vertices; "
              "andersen: slist scale %lld; threads=%d; median of %d)\n\n",
              static_cast<long long>(tc_vertices),
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
             analysis::GenerateGrowthGraph(/*seed=*/11, tc_vertices,
                                           /*extra_edge_prob=*/0.3),
             analysis::RuleOrder::kHandOptimized);
       }},
      {"andersen",
       [&] {
         analysis::SListConfig slist;
         slist.scale = sizes.slist_scale;
         return analysis::MakeAndersen(slist,
                                       analysis::RuleOrder::kHandOptimized);
       }},
  };

  harness::TablePrinter table({"workload", "log tail", "full (s)",
                               "recover (s)", "speedup", "output rows"});
  bool all_consistent = true;
  for (const Spec& spec : specs) {
    for (int pct : {1, 10}) {
      const RecoverResult r =
          MeasureRecover(spec.make, config, pct / 100.0);
      all_consistent &= r.consistent;
      const double speedup =
          r.recover_seconds > 0 ? r.full_seconds / r.recover_seconds : 0;
      table.AddRow({spec.name, std::to_string(pct) + "% (" +
                                   std::to_string(r.tail_rows) + " rows)",
                    harness::FormatSeconds(r.full_seconds),
                    harness::FormatSeconds(r.recover_seconds),
                    harness::FormatSpeedup(speedup),
                    std::to_string(r.output_rows)});
      harness::EmitRecord("bench_persistence", "persistence",
                          {{"workload", spec.name}, {"kind", "recover"},
                           {"tail_pct", pct}, {"full_s", r.full_seconds, 6},
                           {"recover_s", r.recover_seconds, 6},
                           {"speedup", speedup, 2}});
    }
  }
  std::printf("\n");
  table.Print();
  if (!all_consistent) {
    std::fprintf(stderr,
                 "error: recovered state diverged from full evaluation\n");
    return 1;
  }
  return 0;
}
