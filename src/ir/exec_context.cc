#include "ir/exec_context.h"

namespace carac::ir {

const char* EngineStyleName(EngineStyle style) {
  return style == EngineStyle::kPush ? "push" : "pull";
}

std::vector<storage::StagingBuffer>& ExecContext::StagingFor(int shards,
                                                             size_t arity) {
  if (staging_.size() < static_cast<size_t>(shards)) {
    staging_.resize(static_cast<size_t>(shards));
  }
  if (shard_profilers_.size() < static_cast<size_t>(shards)) {
    shard_profilers_.resize(static_cast<size_t>(shards));
  }
  for (int i = 0; i < shards; ++i) staging_[i].Reset(arity);
  return staging_;
}

void MergeStagedDelta(ExecContext& ctx, storage::RelationId target,
                      std::vector<storage::StagingBuffer>& buffers,
                      int shards, const uint64_t* considered) {
  storage::DatabaseSet& db = ctx.db();
  const storage::Relation& derived =
      db.Get(target, storage::DbKind::kDerived);
  storage::Relation& delta_new = db.Get(target, storage::DbKind::kDeltaNew);
  uint64_t inserted = 0;
  uint64_t emitted = 0;
  for (int shard = 0; shard < shards; ++shard) {
    inserted += delta_new.InsertStaged(buffers[shard], &derived);
    emitted += considered[shard];
    // Fold this worker's probe counters into the context's profiler at
    // the same serial point that merges its staged rows: workers only
    // ever touch their own profiler, so no probe increment needs atomics.
    ir::AccessProfiler* shard_profiler = ctx.ShardProfiler(shard);
    if (!shard_profiler->empty()) {
      ctx.profiler().MergeFrom(*shard_profiler);
      shard_profiler->Clear();
    }
  }
  ctx.stats().tuples_considered += emitted;
  ctx.stats().tuples_inserted += inserted;
}

ExecStats ExecStats::Delta(const ExecStats& after, const ExecStats& before) {
  ExecStats d;
  d.iterations = after.iterations - before.iterations;
  d.spj_executions = after.spj_executions - before.spj_executions;
  d.tuples_inserted = after.tuples_inserted - before.tuples_inserted;
  d.tuples_considered = after.tuples_considered - before.tuples_considered;
  d.reorders = after.reorders - before.reorders;
  d.compilations = after.compilations - before.compilations;
  d.compiled_invocations =
      after.compiled_invocations - before.compiled_invocations;
  d.freshness_skips = after.freshness_skips - before.freshness_skips;
  return d;
}

std::string ExecStats::ToString() const {
  std::string out;
  out += "iterations=" + std::to_string(iterations);
  out += " spj=" + std::to_string(spj_executions);
  out += " inserted=" + std::to_string(tuples_inserted);
  out += " considered=" + std::to_string(tuples_considered);
  out += " reorders=" + std::to_string(reorders);
  out += " compilations=" + std::to_string(compilations);
  out += " compiled_invocations=" + std::to_string(compiled_invocations);
  out += " freshness_skips=" + std::to_string(freshness_skips);
  return out;
}

}  // namespace carac::ir
