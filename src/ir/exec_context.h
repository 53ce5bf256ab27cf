#ifndef CARAC_IR_EXEC_CONTEXT_H_
#define CARAC_IR_EXEC_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/worker_pool.h"
#include "storage/database.h"
#include "storage/staging_buffer.h"

namespace carac::ir {

/// Counters exposed by every evaluation mode; tests assert on them and the
/// benches report them alongside wall-clock time.
struct ExecStats {
  uint64_t iterations = 0;            ///< DoWhile loop trips.
  uint64_t spj_executions = 0;        ///< SPJ subquery evaluations.
  uint64_t tuples_inserted = 0;       ///< Novel facts discovered.
  uint64_t tuples_considered = 0;     ///< Join emissions before dedup.
  uint64_t reorders = 0;              ///< Join-order optimizations applied.
  uint64_t compilations = 0;          ///< Backend compilations started.
  uint64_t compiled_invocations = 0;  ///< Executions served by compiled code.
  uint64_t freshness_skips = 0;       ///< Recompilations skipped as fresh.

  std::string ToString() const;

  /// Field-wise `after - before`. The context's counters are cumulative
  /// across epochs; per-epoch accounting subtracts a snapshot taken at
  /// epoch entry.
  static ExecStats Delta(const ExecStats& after, const ExecStats& before);
};

/// Runtime access counters for one indexed (relation, column): how the
/// evaluators actually touched it, as opposed to the syntactic access-path
/// profile the optimizer computes at Prepare(). Plain (non-atomic)
/// counters: on the single-threaded path each evaluator increments the
/// context's profiler directly; parallel shards increment a per-worker
/// profiler that is merged at staging-merge time, so the hot path never
/// pays for synchronization.
struct ColumnProbeStats {
  uint64_t point_probes = 0;   ///< Point lookups (BatchProbe keys included).
  uint64_t point_hits = 0;     ///< Point lookups that matched >= 1 row.
  uint64_t range_probes = 0;   ///< ProbeRange calls.
  uint64_t batch_windows = 0;  ///< BatchProbe windows resolved.

  uint64_t total() const { return point_probes + range_probes; }

  void MergeFrom(const ColumnProbeStats& other) {
    point_probes += other.point_probes;
    point_hits += other.point_hits;
    range_probes += other.range_probes;
    batch_windows += other.batch_windows;
  }

  /// Field-wise `*this - before` (counters are cumulative; per-epoch
  /// accounting subtracts a snapshot, mirroring ExecStats::Delta).
  ColumnProbeStats DeltaSince(const ColumnProbeStats& before) const {
    ColumnProbeStats d;
    d.point_probes = point_probes - before.point_probes;
    d.point_hits = point_hits - before.point_hits;
    d.range_probes = range_probes - before.range_probes;
    d.batch_windows = batch_windows - before.batch_windows;
    return d;
  }
};

/// Per-(relation, column) probe counters with pointer-stable slots: the
/// evaluators resolve a ColumnProbeStats* once at plan-build time (a map
/// lookup), then hot loops pay one or two plain increments per probe. The
/// node-based map keeps slot pointers valid for the profiler's lifetime.
class AccessProfiler {
 public:
  using Key = std::pair<storage::RelationId, uint32_t>;

  /// Counters for (rel, column), created zeroed on first use. The
  /// returned pointer stays valid until Clear().
  ColumnProbeStats* Slot(storage::RelationId rel, size_t column) {
    return &counters_[Key(rel, static_cast<uint32_t>(column))];
  }

  const std::map<Key, ColumnProbeStats>& counters() const {
    return counters_;
  }
  bool empty() const { return counters_.empty(); }

  void MergeFrom(const AccessProfiler& other) {
    for (const auto& [key, stats] : other.counters_) {
      counters_[key].MergeFrom(stats);
    }
  }

  void Clear() { counters_.clear(); }

 private:
  std::map<Key, ColumnProbeStats> counters_;
};

/// Which relational engine executes subqueries (§V-D: Carac's relational
/// layer is pluggable and has been integrated with a push-based and a
/// pull-based engine).
enum class EngineStyle : uint8_t {
  kPush = 0,  // Driver pushes rows through the join into the insert.
  kPull = 1,  // Volcano iterator tree; rows are pulled from the root.
};

const char* EngineStyleName(EngineStyle style);

/// Everything a running evaluation touches. All mutable evaluation state
/// lives in the database (the property that makes every IR node boundary a
/// safe point, §V-B3), so this is just the database plus counters.
class ExecContext {
 public:
  explicit ExecContext(storage::DatabaseSet* db) : db_(db) {}
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  storage::DatabaseSet& db() { return *db_; }
  const storage::DatabaseSet& db() const { return *db_; }

  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }

  EngineStyle engine_style() const { return engine_style_; }
  void set_engine_style(EngineStyle style) { engine_style_ = style; }

  // ---- Parallel evaluation (EngineConfig::num_threads > 1) ----

  /// The engine's persistent worker pool, or nullptr when evaluation is
  /// single-threaded. Subquery evaluators shard their outer scan across
  /// it; everything they touch concurrently is read-only.
  core::WorkerPool* worker_pool() const { return worker_pool_; }
  void set_worker_pool(core::WorkerPool* pool) { worker_pool_ = pool; }

  /// Outer scans below this row count run single-threaded: sharding a
  /// near-empty delta costs more in dispatch than it saves. Tests lower
  /// it to force the parallel path onto small programs; results are
  /// identical for every value (the merge order fixes determinism).
  uint32_t parallel_min_rows() const { return parallel_min_rows_; }
  void set_parallel_min_rows(uint32_t rows) { parallel_min_rows_ = rows; }

  /// Per-worker staging buffers, lazily sized to `shards` and re-armed
  /// for `arity`-wide rows. Capacity persists across subqueries, so
  /// steady-state parallel evaluation allocates nothing here. Also sizes
  /// the per-shard profiler array (ShardProfiler) to match.
  std::vector<storage::StagingBuffer>& StagingFor(int shards, size_t arity);

  // ---- Runtime access profiling ----

  /// Cumulative per-(relation, column) probe counters for this context's
  /// lifetime. The evaluators feed it; the adaptive index policy and
  /// `serve stats` read it.
  AccessProfiler& profiler() { return profiler_; }
  const AccessProfiler& profiler() const { return profiler_; }

  /// Worker-private profiler for `shard`, merged into profiler() by
  /// MergeStagedDelta — the same merge point that keeps staged inserts
  /// deterministic also keeps counter aggregation race-free. Valid after
  /// StagingFor sized at least `shard + 1` shards.
  AccessProfiler* ShardProfiler(int shard) {
    return &shard_profilers_[static_cast<size_t>(shard)];
  }

  // ---- Batched probe cursors ----

  /// Outer-window size for batch-at-a-time index probes: when a
  /// subquery's second atom probes on a variable bound by the first, the
  /// evaluators resolve up to this many probe keys per BatchProbe call
  /// (amortizing dispatch, skipping equal-adjacent keys, and letting the
  /// B-tree probe in key order). 0 disables batching (tuple-at-a-time
  /// probes, the pre-batching behaviour).
  uint32_t probe_batch_window() const { return probe_batch_window_; }
  void set_probe_batch_window(uint32_t window) {
    probe_batch_window_ = window;
  }

 private:
  storage::DatabaseSet* db_;
  ExecStats stats_;
  EngineStyle engine_style_ = EngineStyle::kPush;
  core::WorkerPool* worker_pool_ = nullptr;
  uint32_t parallel_min_rows_ = 128;
  uint32_t probe_batch_window_ = 64;
  std::vector<storage::StagingBuffer> staging_;
  AccessProfiler profiler_;
  std::vector<AccessProfiler> shard_profilers_;
};

/// Merges the first `shards` staging buffers into `target`'s DeltaNew in
/// worker order, skipping tuples already in Derived, and folds the
/// workers' emission counts into the stats. Shared by the push and pull
/// evaluators; the fixed merge order is what makes parallel evaluation
/// byte-identical to single-threaded runs.
void MergeStagedDelta(ExecContext& ctx, storage::RelationId target,
                      std::vector<storage::StagingBuffer>& buffers,
                      int shards, const uint64_t* considered);

/// Shards a subquery's outer sequence — positions [0, outer_rows) — by
/// contiguous ranges across the worker pool, then merges the staged
/// results in shard order (MergeStagedDelta), which replays exactly the
/// single-threaded emission sequence. `shard_fn(shard, begin, end,
/// staging, considered)` evaluates positions [begin, end), staging its
/// emissions and its local emission count. Returns false — nothing
/// dispatched — when the subquery should run single-threaded: no pool,
/// or an outer sequence below the dispatch threshold.
///
/// The push and pull engines both shard through this one template. The
/// callable is a template parameter, not a std::function, so the push
/// interpreter's recursive join keeps its single-threaded inlining.
template <typename ShardFn>
bool ShardAcrossPool(ExecContext& ctx, storage::RelationId target,
                     size_t outer_rows, size_t arity, ShardFn&& shard_fn) {
  core::WorkerPool* pool = ctx.worker_pool();
  if (pool == nullptr || pool->num_threads() <= 1) return false;
  if (outer_rows < ctx.parallel_min_rows()) return false;
  const int shards = pool->num_threads();
  std::vector<storage::StagingBuffer>& staging = ctx.StagingFor(shards, arity);
  std::vector<uint64_t> considered(static_cast<size_t>(shards), 0);
  const size_t chunk =
      (outer_rows + static_cast<size_t>(shards) - 1) / shards;
  pool->Run(shards, [&](int shard) {
    const size_t begin = chunk * static_cast<size_t>(shard);
    const size_t end = std::min(begin + chunk, outer_rows);
    if (begin >= end) return;
    shard_fn(shard, begin, end, &staging[shard], &considered[shard]);
  });
  MergeStagedDelta(ctx, target, staging, shards, considered.data());
  return true;
}

}  // namespace carac::ir

#endif  // CARAC_IR_EXEC_CONTEXT_H_
