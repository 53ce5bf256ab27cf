#ifndef CARAC_STORAGE_STAGING_BUFFER_H_
#define CARAC_STORAGE_STAGING_BUFFER_H_

#include <cstdint>
#include <vector>

#include "storage/dedup_table.h"
#include "storage/tuple.h"
#include "util/hash.h"
#include "util/status.h"

namespace carac::storage {

/// One worker's spill set during parallel subquery evaluation: newly
/// derived tuples staged row-major in a private arena, deduplicated with
/// the same tagged open-addressing table (storage/dedup_table.h) the
/// arena Relation uses. It is a Relation stripped of everything staging
/// never needs: no name, no secondary indexes, no cross-thread
/// visibility. Workers stage through an EmitWindow (storage/
/// emit_window.h), which hashes each tuple once for every table it
/// probes.
///
/// Protocol: the main thread re-arms one buffer per worker (Reset keeps
/// capacity, so steady-state parallel evaluation allocates nothing),
/// workers fill their own buffer while probing the shared relations
/// read-only, and the main thread merges the buffers in fixed worker
/// order (Relation::InsertStaged) — which is what makes parallel
/// evaluation insert tuples in exactly the single-threaded order.
class StagingBuffer {
 public:
  StagingBuffer() = default;
  StagingBuffer(StagingBuffer&&) = default;
  StagingBuffer& operator=(StagingBuffer&&) = default;
  StagingBuffer(const StagingBuffer&) = delete;
  StagingBuffer& operator=(const StagingBuffer&) = delete;

  /// Re-arms the buffer for rows of `arity` values, keeping capacity.
  void Reset(size_t arity);

  size_t arity() const { return arity_; }
  uint32_t NumRows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Stages a copy of `tuple`; returns true if it was not already staged.
  /// `tuple` may not alias this buffer's own arena.
  bool Insert(TupleView tuple) {
    CARAC_CHECK(tuple.size() == arity_);
    return InsertHashed(tuple, util::HashSpan(tuple.data(), arity_));
  }
  bool Contains(TupleView tuple) const {
    CARAC_CHECK(tuple.size() == arity_);
    return ContainsHashed(tuple, util::HashSpan(tuple.data(), arity_));
  }

  /// Insert and Contains for a tuple whose HashSpan the caller computed.
  bool InsertHashed(TupleView tuple, uint64_t hash);
  bool ContainsHashed(TupleView tuple, uint64_t hash) const {
    return num_rows_ != 0 &&
           table_.Find(hash, [&](uint32_t row) {
             return RowValuesEqual(RowData(row), tuple.data(), arity_);
           }) != DedupTable::kEmpty;
  }

  /// Row-major values of staged row `row` (rows are contiguous).
  const Value* RowData(uint32_t row) const {
    return arena_.data() + static_cast<size_t>(row) * arity_;
  }
  TupleView View(uint32_t row) const { return TupleView(RowData(row), arity_); }

 private:
  size_t arity_ = 0;
  /// Row-major staged tuples: row r occupies [r*arity, (r+1)*arity).
  std::vector<Value> arena_;
  uint32_t num_rows_ = 0;
  /// Open-addressing dedup table over the staged rows.
  DedupTable table_;
};

}  // namespace carac::storage

#endif  // CARAC_STORAGE_STAGING_BUFFER_H_
