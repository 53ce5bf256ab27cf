// Adaptive re-kinding convergence on a shifting workload. The driver
// replays the same probe stream — a point-only phase, a range-dominated
// phase, a mixed phase — against one relation under (a) every static
// IndexKind and (b) the adaptive policy starting from a deliberately
// neutral kind, recording per-phase time. The claims this bench stands
// on (EXPERIMENTS.md "Self-tuning indexes"):
//
//   convergence   within each phase the policy migrates to the kind the
//                 static sweep says is best, within hysteresis+cooldown
//                 epochs, and the re-kind events say so explicitly; the
//                 steady state (median of each phase's last epochs, after
//                 migrations settle) lands within ~10% of the best static
//                 kind FOR THAT PHASE;
//   total cost    the full stream — adaptation tax included: epochs spent
//                 mis-organized while hysteresis clears, plus the
//                 rebuilds themselves — is reported against the best
//                 single static kind, which must compromise across
//                 phases. (The adaptive-indexing literature separates
//                 these two: steady state is the convergence claim, the
//                 full stream is what a too-short phase costs you.)
//
// This drives Relation/AccessProfiler/AdaptiveIndexPolicy directly
// rather than through a Datalog program, so the phase mix is exactly
// controlled. (Engine-driven range traffic exists too: range pushdown
// lowers comparison builtins onto ProbeRange, and incremental_test's
// RangeDemandRekindsHashToOrdered covers the program-driven path
// end-to-end.) Hash-kind range demands fall back to a full filtered
// scan — exactly what a mis-organized column costs in practice, and
// the reason the policy exists.
//
// Each result is also emitted as a record: "phase" (per config and
// phase), "rekind" (one per policy event), "steady" (per phase) and one
// "summary". --micro shrinks the workload for the CI bench-smoke job.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ir/exec_context.h"
#include "optimizer/adaptive.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/relation.h"
#include "util/timer.h"

namespace {

using namespace carac;
using storage::DbKind;
using storage::IndexKind;
using storage::RelationId;
using storage::RowId;
using storage::Value;

constexpr char kBench[] = "bench_adaptive_convergence";

struct Phase {
  const char* name;
  int64_t point_probes;  // per epoch
  int64_t range_probes;  // per epoch
  int epochs;
};

struct Sizes {
  int64_t rows;
  int64_t keys;  // distinct key values
  int64_t span;  // range width in key values
  std::vector<Phase> phases;
};

Sizes GetSizes(bool micro) {
  Sizes s;
  if (micro) {
    s.rows = 20000;
    s.keys = 2048;
    s.span = 16;
    s.phases = {{"points", 2000, 0, 6},
                {"ranges", 100, 500, 6},
                {"mixed", 1600, 400, 6}};
  } else {
    s.rows = 200000;
    s.keys = 8192;
    s.span = 32;
    s.phases = {{"points", 20000, 0, 8},
                {"ranges", 1000, 5000, 8},
                {"mixed", 16000, 4000, 8}};
  }
  return s;
}

/// One database per configuration, identical contents: keys round-robin
/// over [0, keys), epoch closed after the load so ordered kinds measure
/// their stable prefix.
void BuildDatabase(IndexKind kind, const Sizes& s, storage::DatabaseSet* db,
                   RelationId* rel) {
  *rel = db->AddRelation("R", 2);
  db->DeclareIndex(*rel, 0, kind);
  storage::Relation& derived = db->Get(*rel, DbKind::kDerived);
  for (int64_t i = 0; i < s.rows; ++i) {
    derived.Insert({i % s.keys, i});
  }
  db->AdvanceEpoch();
}

/// Replays one epoch of `phase`'s probe mix, interleaved point/range in a
/// deterministic pseudo-random key order, recording demand into
/// `profiler` exactly like the evaluators do. Returns accumulated rows
/// (a checksum: every configuration must agree).
size_t RunEpochProbes(const storage::DatabaseSet& db, RelationId rel,
                      const Phase& phase, const Sizes& s,
                      ir::AccessProfiler* profiler) {
  const storage::Relation& derived = db.Get(rel, DbKind::kDerived);
  ir::ColumnProbeStats* stats = profiler->Slot(rel, 0);
  size_t hits = 0;
  std::vector<RowId> out;
  const int64_t total = phase.point_probes + phase.range_probes;
  int64_t points_done = 0, ranges_done = 0;
  for (int64_t op = 0; op < total; ++op) {
    // Interleave so neither flavour gets the cache to itself.
    const bool do_range =
        ranges_done < phase.range_probes &&
        (points_done >= phase.point_probes ||
         op * phase.range_probes >= ranges_done * total + total / 2);
    if (!do_range) {
      const Value key =
          static_cast<Value>((points_done * 2654435761u) % s.keys);
      const storage::RowCursor cursor = derived.Probe(0, key);
      stats->point_probes++;
      stats->point_hits += !cursor.empty();
      hits += cursor.size();
      ++points_done;
    } else {
      const Value lo =
          static_cast<Value>((ranges_done * 40503u) % (s.keys - s.span));
      out.clear();
      stats->range_probes++;
      const util::Status status =
          derived.ProbeRange(0, lo, lo + s.span - 1, &out);
      if (status.ok()) {
        hits += out.size();
      } else {
        // Hash organization: the demand still exists, the column just
        // cannot serve it — pay the filtered full scan it really costs.
        for (RowId row = 0; row < derived.NumRows(); ++row) {
          const Value key = derived.View(row)[0];
          if (key >= lo && key <= lo + s.span - 1) ++hits;
        }
      }
      ++ranges_done;
    }
  }
  return hits;
}

double Seconds(double s) { return s > 0 ? s : 0; }

/// Minimum of the last `n` entries (the post-convergence epochs): the
/// noise-robust microbench estimator — frequency ramps and page-cache
/// warm-up only ever inflate an epoch, never deflate it.
double SteadyState(const std::vector<double>& epoch_seconds, size_t n) {
  if (n > epoch_seconds.size()) n = epoch_seconds.size();
  double best = epoch_seconds.back();
  for (size_t i = epoch_seconds.size() - n; i < epoch_seconds.size(); ++i) {
    best = std::min(best, epoch_seconds[i]);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Sizes s =
      GetSizes(bench::ParseFlags(argc, argv, bench::kMicroFlag).micro);

  std::printf("Adaptive convergence: %lld rows, %lld keys, %zu phases "
              "(shifting point/range mix)\n\n",
              static_cast<long long>(s.rows),
              static_cast<long long>(s.keys), s.phases.size());

  // Post-convergence window: with 2-epoch hysteresis + 2-epoch cooldown
  // the policy settles by mid-phase; the last 4 epochs are steady state.
  constexpr size_t kSteadyWindow = 4;

  // ---- Static sweep: every kind replays the whole shifting stream ----
  size_t want_hits = 0;
  bool have_want = false;
  std::vector<double> static_totals;
  // [kind][phase] = steady-state per-epoch seconds.
  std::vector<std::vector<double>> static_steady;
  for (const storage::IndexKindInfo& info : storage::kIndexKindTable) {
    const IndexKind kind = info.kind;
    storage::DatabaseSet db;
    RelationId rel = 0;
    BuildDatabase(kind, s, &db, &rel);
    ir::AccessProfiler profiler;  // Recorded but unconsumed: no policy.
    double total = 0;
    size_t hits = 0;
    std::vector<double> steady;
    for (const Phase& phase : s.phases) {
      std::vector<double> epoch_seconds;
      for (int e = 0; e < phase.epochs; ++e) {
        util::Timer timer;
        hits += RunEpochProbes(db, rel, phase, s, &profiler);
        epoch_seconds.push_back(Seconds(timer.ElapsedSeconds()));
        db.AdvanceEpoch();
      }
      double sec = 0;
      for (double t : epoch_seconds) total += t, sec += t;
      steady.push_back(SteadyState(epoch_seconds, kSteadyWindow));
      harness::EmitRecord(kBench, "phase",
                          {{"config", std::string("static-") + info.name},
                           {"phase", phase.name}, {"epochs", phase.epochs},
                           {"seconds", sec, 6},
                           {"steady_epoch", steady.back(), 6}});
    }
    static_totals.push_back(total);
    static_steady.push_back(steady);
    if (!have_want) {
      want_hits = hits;
      have_want = true;
    } else if (hits != want_hits) {
      std::fprintf(stderr, "error: %s diverged (%zu hits != %zu)\n",
                   info.name, hits, want_hits);
      return 1;
    }
  }

  size_t best_static = 0;
  for (size_t i = 1; i < static_totals.size(); ++i) {
    if (static_totals[i] < static_totals[best_static]) best_static = i;
  }

  // ---- Adaptive run: policy armed, starting from a neutral kind ----
  storage::DatabaseSet db;
  RelationId rel = 0;
  BuildDatabase(IndexKind::kBtree, s, &db, &rel);
  ir::AccessProfiler profiler;
  optimizer::AdaptiveIndexConfig pc;
  pc.min_probes = 256;  // Every epoch here clears the evidence gate.
  optimizer::AdaptiveIndexPolicy policy(pc);
  double adaptive_total = 0, rekind_total = 0;
  size_t adaptive_hits = 0;
  std::vector<double> adaptive_steady;
  for (const Phase& phase : s.phases) {
    std::vector<double> epoch_seconds;
    for (int e = 0; e < phase.epochs; ++e) {
      util::Timer timer;
      adaptive_hits += RunEpochProbes(db, rel, phase, s, &profiler);
      epoch_seconds.push_back(Seconds(timer.ElapsedSeconds()));
      util::Timer rekind_timer;
      policy.ObserveEpoch(&db, profiler);  // May RedeclareIndex.
      rekind_total += rekind_timer.ElapsedSeconds();
      db.AdvanceEpoch();
    }
    double sec = 0;
    for (double t : epoch_seconds) adaptive_total += t, sec += t;
    adaptive_steady.push_back(SteadyState(epoch_seconds, kSteadyWindow));
    const IndexKind kind = db.Get(rel, DbKind::kDerived).IndexKindOf(0);
    harness::EmitRecord(kBench, "phase",
                        {{"config", "adaptive"}, {"phase", phase.name},
                         {"epochs", phase.epochs}, {"seconds", sec, 6},
                         {"steady_epoch", adaptive_steady.back(), 6},
                         {"kind", storage::IndexKindName(kind)}});
  }
  if (adaptive_hits != want_hits) {
    std::fprintf(stderr, "error: adaptive diverged (%zu hits != %zu)\n",
                 adaptive_hits, want_hits);
    return 1;
  }
  for (const optimizer::RekindEvent& event : policy.events()) {
    harness::EmitRecord(kBench, "rekind",
                        {{"epoch", event.epoch}, {"col", event.column},
                         {"from", storage::IndexKindName(event.from)},
                         {"to", storage::IndexKindName(event.to)}});
  }

  // The convergence claim: per phase, steady-state adaptive epochs vs
  // the best static kind's steady state FOR THAT PHASE.
  double worst_steady_ratio = 0;
  for (size_t p = 0; p < s.phases.size(); ++p) {
    double best = static_steady[0][p];
    size_t best_kind = 0;
    for (size_t k = 1; k < static_steady.size(); ++k) {
      if (static_steady[k][p] < best) {
        best = static_steady[k][p];
        best_kind = k;
      }
    }
    const double ratio = best > 0 ? adaptive_steady[p] / best : 0;
    if (ratio > worst_steady_ratio) worst_steady_ratio = ratio;
    harness::EmitRecord(
        kBench, "steady",
        {{"phase", s.phases[p].name}, {"adaptive_epoch", adaptive_steady[p], 6},
         {"best_kind", storage::kIndexKindTable[best_kind].name},
         {"best_epoch", best, 6}, {"ratio", ratio, 3}});
  }

  const double full_ratio = static_totals[best_static] > 0
                                ? adaptive_total / static_totals[best_static]
                                : 0;
  harness::EmitRecord(
      kBench, "summary",
      {{"adaptive", adaptive_total, 6}, {"rekind_overhead", rekind_total, 6},
       {"best_static", storage::kIndexKindTable[best_static].name},
       {"best", static_totals[best_static], 6}, {"full_ratio", full_ratio, 3},
       {"worst_steady_ratio", worst_steady_ratio, 3},
       {"rekinds", policy.events().size()}});
  if (policy.events().empty()) {
    std::fprintf(stderr,
                 "error: the shifting workload triggered no re-kinds\n");
    return 1;
  }
  return 0;
}
