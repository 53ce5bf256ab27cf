// Insertion order, not just contents: every Derived arena, in RowId order,
// must hash to the fingerprint pinned below for TC, Andersen and CSPA —
// under the push and pull interpreters and the bytecode and quotes JIT
// targets, at 1, 2 and 4 threads. The goldens and the parallel
// determinism suite compare SortedRows and stats only, so an emit path
// that reordered inserts (a buffered window flushed out of order, a merge
// in the wrong worker order) would pass them and change every RowId; it
// cannot pass this. The fingerprints were captured from the
// tuple-at-a-time emit loop that preceded the buffered emit kernel.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "core/engine.h"
#include "harness/runner.h"
#include "util/hash.h"

namespace carac {
namespace {

using backends::BackendKind;

/// The engines under test. Push and pull interpret; bytecode and quotes
/// run the JIT (blocking, per-rule granularity, full compilation), which
/// reorders atoms and recompiles as the relations grow.
enum class Target { kPush, kPull, kBytecode, kQuotes };

const char* TargetName(Target target) {
  switch (target) {
    case Target::kPush:
      return "push";
    case Target::kPull:
      return "pull";
    case Target::kBytecode:
      return "bytecode";
    case Target::kQuotes:
      return "quotes";
  }
  return "?";
}

core::EngineConfig ConfigFor(Target target, int threads) {
  core::EngineConfig config;
  switch (target) {
    case Target::kPush:
    case Target::kPull:
      config = harness::InterpretedConfig(true);
      config.engine_style = target == Target::kPush ? ir::EngineStyle::kPush
                                                    : ir::EngineStyle::kPull;
      break;
    case Target::kBytecode:
    case Target::kQuotes:
      config = harness::JitConfigOf(
          target == Target::kBytecode ? BackendKind::kBytecode
                                      : BackendKind::kQuotes,
          /*async=*/false, /*use_indexes=*/true, core::Granularity::kUnion,
          backends::CompileMode::kFull);
      break;
  }
  config.num_threads = threads;
  // Shard every subquery the pool can take, so 2 and 4 threads drive the
  // staged emit path and the merge on these small inputs.
  config.parallel_min_outer_rows = 1;
  return config;
}

analysis::Workload MakeTc() {
  const auto edges = analysis::GenerateSparseGraph(
      /*seed=*/11, /*num_vertices=*/300, /*num_edges=*/900, /*zipf_s=*/1.1);
  return analysis::MakeTransitiveClosure(edges,
                                         analysis::RuleOrder::kHandOptimized);
}

analysis::Workload MakeAndersen() {
  analysis::SListConfig config;
  config.scale = 2;
  return analysis::MakeAndersen(config, analysis::RuleOrder::kHandOptimized);
}

analysis::Workload MakeCspa() {
  analysis::CspaConfig config;
  config.total_tuples = 150;
  return analysis::MakeCspa(config, analysis::RuleOrder::kUnoptimized);
}

/// FNV-1a over every relation's Derived store: name, arity, row count and
/// the raw arena values in RowId order.
uint64_t Fingerprint(const storage::DatabaseSet& db) {
  uint64_t h = util::HashBytes("", 0);
  for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
    const storage::Relation& rel = db.Get(id, storage::DbKind::kDerived);
    const std::string& name = rel.name();
    const uint64_t shape[2] = {rel.arity(), rel.NumRows()};
    h = util::HashBytes(name.data(), name.size(), h);
    h = util::HashBytes(shape, sizeof shape, h);
    const std::vector<storage::Value>& arena = rel.arena();
    h = util::HashBytes(arena.data(), arena.size() * sizeof(storage::Value),
                        h);
  }
  return h;
}

uint64_t RunFingerprint(analysis::Workload (*make)(), Target target,
                        int threads) {
  analysis::Workload w = make();
  core::Engine engine(w.program.get(), ConfigFor(target, threads));
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  return Fingerprint(w.program->db());
}

bool CompilerAvailable() {
  const char* cxx = std::getenv("CARAC_CXX");
  const std::string probe = std::string(cxx != nullptr ? cxx : "c++") +
                            " --version > /dev/null 2>&1";
  return std::system(probe.c_str()) == 0;
}

/// Pinned fingerprints: the interpreters share one, the JIT targets (which
/// reorder atoms at runtime, and so may emit in another order) another.
struct Pin {
  uint64_t interpreted;
  uint64_t jit;
};

void CheckPinned(const char* name, analysis::Workload (*make)(), Pin pin) {
  for (Target target :
       {Target::kPush, Target::kPull, Target::kBytecode, Target::kQuotes}) {
    if (target == Target::kQuotes && !CompilerAvailable()) continue;
    const uint64_t want = target == Target::kPush || target == Target::kPull
                              ? pin.interpreted
                              : pin.jit;
    for (int threads : {1, 2, 4}) {
      EXPECT_EQ(RunFingerprint(make, target, threads), want)
          << name << " " << TargetName(target) << " " << threads
          << " threads";
    }
  }
}

TEST(InsertionOrderTest, TransitiveClosure) {
  CheckPinned("tc", MakeTc, {2192588465222027084u, 10827080995555416556u});
}

TEST(InsertionOrderTest, Andersen) {
  CheckPinned("andersen", MakeAndersen,
              {5254115369268922370u, 5254115369268922370u});
}

TEST(InsertionOrderTest, Cspa) {
  CheckPinned("cspa", MakeCspa, {12248712375368393252u, 35997778874805668u});
}

}  // namespace
}  // namespace carac
