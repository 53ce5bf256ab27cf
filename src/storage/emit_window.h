#ifndef CARAC_STORAGE_EMIT_WINDOW_H_
#define CARAC_STORAGE_EMIT_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/relation.h"
#include "storage/staging_buffer.h"
#include "storage/tuple.h"

namespace carac::storage {

/// The emit-and-dedup kernel every evaluator sends its head tuples
/// through: the push interpreter, the pull evaluator, the bytecode VM
/// (and so the quotes backend), and the staged merge. An SPJ binds one
/// window to its target, appends each head tuple it derives, and flushes
/// when it ends.
///
/// Semi-naive SPJs emit almost nothing but duplicates, so the kernel is
/// built around the duplicate: it buffers up to kWindow tuples, hashes
/// each one once and prefetches its Derived slot (batched prefetch in the
/// manner of AMAC: Kocberber et al., VLDB 2015). It then probes Derived
/// for the whole window, and probes and inserts the misses into DeltaNew
/// (or the worker's staging buffer) in emission order, handing the one
/// hash to every table. The tagged slots (storage/dedup_table.h) keep a
/// probe that passes other rows' slots out of the arena. Derived and
/// the staged pre-filters are frozen while an SPJ runs, and DeltaNew sees
/// the same inserts in the same order as a tuple-at-a-time loop, so a
/// flushed window leaves DeltaNew's insertion order and RowIds exactly as
/// the unbuffered loop would — including a duplicate inside one window,
/// whose second copy finds the first in DeltaNew.
///
/// Buffered tuples are invisible until Flush: callers flush before
/// anything reads the target's delta or the insert count — at the end of
/// every SPJ.
class EmitWindow {
 public:
  static constexpr size_t kWindow = 16;

  /// Binds to a target's stores: a tuple already in `derived` (nullptr:
  /// no such filter) is dropped, any other is inserted into `delta_new`.
  /// The window must be empty.
  void Bind(const Relation* derived, Relation* delta_new);

  /// Binds to one worker's staging buffer: tuples in `derived` or in
  /// `delta_new` (both read-only while the worker runs) are dropped, the
  /// rest are staged. The window must be empty.
  void BindStaged(const Relation& derived, const Relation& delta_new,
                  StagingBuffer* staging);

  /// Space for the next head tuple's arity values; the caller fills it
  /// before the next call. Flushes a full window first.
  Value* Append() {
    if (pending_ == kWindow) FlushWindow();
    return buffer_.data() + pending_++ * arity_;
  }

  /// Appends a copy of `tuple` (arity values).
  void Emit(TupleView tuple) {
    std::copy(tuple.begin(), tuple.end(), Append());
  }

  /// Probes and inserts every buffered tuple. Returns the number of
  /// tuples inserted (or staged) since the previous Flush.
  uint64_t Flush();

  /// Runs the kernel over `n` contiguous row-major rows without copying
  /// them into the window; returns the number inserted. The window must
  /// be bound directly (Bind) and empty.
  uint64_t InsertRows(const Value* rows, size_t n);

 private:
  void Rebind(size_t arity);
  void FlushWindow() {
    Process(buffer_.data(), pending_);
    pending_ = 0;
  }
  /// The kernel proper over `n` <= kWindow contiguous rows.
  void Process(const Value* rows, size_t n);

  const Relation* derived_ = nullptr;
  /// Direct binding: the store inserted into.
  Relation* delta_new_ = nullptr;
  /// Staged binding: the read-only DeltaNew pre-filter and the buffer
  /// staged into.
  const Relation* staged_filter_ = nullptr;
  StagingBuffer* staging_ = nullptr;
  size_t arity_ = 0;
  size_t pending_ = 0;
  uint64_t inserted_ = 0;
  /// kWindow row-major tuples of arity_ values.
  std::vector<Value> buffer_;
};

}  // namespace carac::storage

#endif  // CARAC_STORAGE_EMIT_WINDOW_H_
