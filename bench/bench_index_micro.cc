// Index-subsystem micro-costs, per index organization: insert, point
// probe, range probe and batched probe throughput of every IndexKind
// over the same relation contents. These are the constants the
// --index-kind ablation (EXPERIMENTS.md) stands on, and the direct
// evidence for the two headline claims of the pluggable-index design:
//
//   range    the immutable sorted-array prefix scans a contiguous
//            (key,row) array, versus pointer-chasing a std::map — the
//            range-heavy win.
//   batch    BatchProbe resolves a window of outer keys in one call and
//            skips equal-adjacent keys entirely; on duplicate-heavy
//            outer sequences (the shape of a skewed join) it beats the
//            point-probe loop — the probe-dominated win.
//   upoint   point probes over a UNIQUE-key relation (every key one row,
//            the classic learned-index setting): at this cardinality the
//            hash table outgrows cache while the learned model's segment
//            directory plus a ±ε window stays within a few lines — where
//            kLearned closes on (or beats) kHash and leaves the
//            kSorted/kBtree binary searches behind.
//
// Each measurement also emits an "index" record (kind, metric, sizes,
// seconds, throughput). `--micro` shrinks the workload to a sub-second
// slice for the CI bench-smoke job.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "storage/index.h"
#include "storage/relation.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

using namespace carac;
using storage::IndexKind;
using storage::Relation;
using storage::RowCursor;
using storage::RowId;
using storage::Value;

constexpr char kBench[] = "bench_index_micro";

struct Sizes {
  int64_t rows;
  int64_t keys;      // distinct key values; postings per key = rows/keys
  int64_t span;      // range-probe width, in key values
  int64_t dup_run;   // consecutive repeats per key in the batch sequence
  int64_t window;    // keys per BatchProbe call
  int reps;
};

Sizes GetSizes(bool micro) {
  if (micro) return {20000, 256, 16, 4, 64, 3};
  return {200000, 1024, 64, 4, 64, 5};
}

/// One relation per kind, identical contents: keys round-robin over
/// [0, keys), so every key has rows/keys postings and probe results are
/// multi-row (the join shape, not a unique-key lookup). The watermark is
/// advanced after the bulk load — the sorted-array kind measures its
/// stable prefix, which is where evaluation spends its probes (body
/// atoms read Derived, stabilized at epoch boundaries).
void BuildRelation(IndexKind kind, const Sizes& s, Relation* rel,
                   double* insert_s) {
  util::Timer timer;
  rel->DeclareIndex(0, kind);
  for (int64_t i = 0; i < s.rows; ++i) {
    rel->Insert({i % s.keys, i});
  }
  *insert_s = timer.ElapsedSeconds();
  rel->AdvanceWatermark();
}

/// Unique-key key function: strictly increasing (gap >= 3), mildly
/// nonlinear so the learned fit needs real segments, not one line.
Value UniqueKey(int64_t i) { return i * 13 + (i % 11); }

/// Unique-key relation, scrambled insertion order (fair to the B-tree's
/// split path and the hash table's growth path alike); the watermark
/// advance stabilizes and fits the ordered kinds.
void BuildUniqueRelation(IndexKind kind, const Sizes& s, Relation* rel) {
  rel->DeclareIndex(0, kind);
  for (int64_t j = 0; j < s.rows; ++j) {
    const int64_t i = (j * 48271) % s.rows;  // 48271 coprime to the sizes.
    rel->Insert({UniqueKey(i), i});
  }
  rel->AdvanceWatermark();
}

double MeasureUniquePointProbe(const Relation& rel, const Sizes& s) {
  std::vector<double> times;
  for (int rep = 0; rep < s.reps; ++rep) {
    util::Timer timer;
    size_t hits = 0;
    for (int64_t j = 0; j < s.rows; ++j) {
      const int64_t i = (j * 2654435761) % s.rows;  // Random-order keys.
      hits += rel.Probe(0, UniqueKey(i)).size();
    }
    times.push_back(timer.ElapsedSeconds());
    if (hits != static_cast<size_t>(s.rows)) {
      std::fprintf(stderr, "error: unique probe lost rows (%zu != %lld)\n",
                   hits, static_cast<long long>(s.rows));
      std::exit(1);
    }
  }
  return bench::Median(times);
}

double MeasurePointProbe(const Relation& rel, const Sizes& s) {
  std::vector<double> times;
  for (int rep = 0; rep < s.reps; ++rep) {
    util::Timer timer;
    size_t hits = 0;
    for (int64_t key = 0; key < s.keys; ++key) {
      hits += rel.Probe(0, key).size();
    }
    times.push_back(timer.ElapsedSeconds());
    if (hits != static_cast<size_t>(s.rows)) {
      std::fprintf(stderr, "error: point probe lost rows (%zu != %lld)\n",
                   hits, static_cast<long long>(s.rows));
      std::exit(1);
    }
  }
  return bench::Median(times);
}

/// Sliding [lo, lo+span] sweeps across the whole key domain; every
/// ordered kind must return the same total row count.
double MeasureRangeProbe(const Relation& rel, const Sizes& s,
                         size_t* total_rows) {
  std::vector<double> times;
  for (int rep = 0; rep < s.reps; ++rep) {
    util::Timer timer;
    size_t rows = 0;
    std::vector<RowId> out;
    for (int64_t lo = 0; lo + s.span <= s.keys; lo += s.span) {
      out.clear();
      CARAC_CHECK_OK(rel.ProbeRange(0, lo, lo + s.span - 1, &out));
      rows += out.size();
    }
    times.push_back(timer.ElapsedSeconds());
    *total_rows = rows;
  }
  return bench::Median(times);
}

/// The duplicate-heavy outer sequence: each key repeated dup_run times
/// consecutively (a sorted/skewed outer join side), resolved through
/// BatchProbe in `window`-key calls versus one Probe per key.
void MeasureBatch(const Relation& rel, const Sizes& s, double* batch_s,
                  double* point_s) {
  std::vector<Value> seq;
  seq.reserve(static_cast<size_t>(s.keys * s.dup_run));
  for (int64_t key = 0; key < s.keys; ++key) {
    for (int64_t d = 0; d < s.dup_run; ++d) seq.push_back(key);
  }
  std::vector<RowCursor> cursors(static_cast<size_t>(s.window));

  std::vector<double> batch_times, point_times;
  size_t batch_hits = 0, point_hits = 0;
  for (int rep = 0; rep < s.reps; ++rep) {
    util::Timer timer;
    batch_hits = 0;
    for (size_t at = 0; at < seq.size(); at += static_cast<size_t>(s.window)) {
      const size_t n =
          std::min(static_cast<size_t>(s.window), seq.size() - at);
      rel.BatchProbe(0, seq.data() + at, n, cursors.data());
      for (size_t i = 0; i < n; ++i) batch_hits += cursors[i].size();
    }
    batch_times.push_back(timer.ElapsedSeconds());

    timer.Restart();
    point_hits = 0;
    for (Value key : seq) {
      point_hits += rel.Probe(0, key).size();
    }
    point_times.push_back(timer.ElapsedSeconds());
  }
  if (batch_hits != point_hits) {
    std::fprintf(stderr, "error: batch probe diverged (%zu != %zu)\n",
                 batch_hits, point_hits);
    std::exit(1);
  }
  *batch_s = bench::Median(batch_times);
  *point_s = bench::Median(point_times);
}

double Mops(int64_t ops, double seconds) {
  return seconds > 0 ? static_cast<double>(ops) / seconds / 1e6 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Sizes s =
      GetSizes(bench::ParseFlags(argc, argv, bench::kMicroFlag).micro);

  std::printf("Index micro: %lld rows, %lld keys, per-kind "
              "insert/probe/range/batch (median of %d)\n\n",
              static_cast<long long>(s.rows), static_cast<long long>(s.keys),
              s.reps);

  harness::TablePrinter table({"kind", "insert (s)", "probe (Mop/s)",
                               "range (Mrow/s)", "batch vs point"});
  for (const storage::IndexKindInfo& info : storage::kIndexKindTable) {
    const IndexKind kind = info.kind;
    double insert_s = 0;
    Relation rel("R", 2);
    BuildRelation(kind, s, &rel, &insert_s);

    const double probe_s = MeasurePointProbe(rel, s);
    const char* name = info.name;
    harness::EmitRecord(kBench, "index",
                        {{"kind", name}, {"metric", "probe"}, {"rows", s.rows},
                         {"keys", s.keys}, {"seconds", probe_s, 6},
                         {"mprobes", Mops(s.keys, probe_s), 2}});
    harness::EmitRecord(kBench, "index",
                        {{"kind", name}, {"metric", "insert"}, {"rows", s.rows},
                         {"seconds", insert_s, 6},
                         {"mrows", Mops(s.rows, insert_s), 2}});

    {
      Relation urel("U", 2);
      BuildUniqueRelation(kind, s, &urel);
      const double upoint_s = MeasureUniquePointProbe(urel, s);
      harness::EmitRecord(kBench, "index",
                          {{"kind", name}, {"metric", "upoint"},
                           {"rows", s.rows}, {"seconds", upoint_s, 6},
                           {"mprobes", Mops(s.rows, upoint_s), 2}});
    }

    double range_s = 0;
    size_t range_rows = 0;
    std::string range_cell = "-";
    if (storage::IndexKindIsOrdered(kind)) {
      range_s = MeasureRangeProbe(rel, s, &range_rows);
      harness::EmitRecord(
          kBench, "index",
          {{"kind", name}, {"metric", "range"}, {"rows", s.rows},
           {"span", s.span}, {"seconds", range_s, 6},
           {"mrows", Mops(static_cast<int64_t>(range_rows), range_s), 2}});
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1f",
                    Mops(static_cast<int64_t>(range_rows), range_s));
      range_cell = buf;
    }

    double batch_s = 0, point_s = 0;
    MeasureBatch(rel, s, &batch_s, &point_s);
    const double speedup = batch_s > 0 ? point_s / batch_s : 0;
    harness::EmitRecord(kBench, "index",
                        {{"kind", name}, {"metric", "batch"}, {"rows", s.rows},
                         {"window", s.window}, {"dup_run", s.dup_run},
                         {"batch_s", batch_s, 6}, {"point_s", point_s, 6},
                         {"speedup", speedup, 2}});

    char insert_cell[32], probe_cell[32], batch_cell[32];
    std::snprintf(insert_cell, sizeof insert_cell, "%.3f", insert_s);
    std::snprintf(probe_cell, sizeof probe_cell, "%.2f",
                  Mops(s.keys, probe_s));
    std::snprintf(batch_cell, sizeof batch_cell, "%.2fx", speedup);
    table.AddRow({name, insert_cell, probe_cell, range_cell, batch_cell});
  }
  std::printf("\n");
  table.Print();
  return 0;
}
