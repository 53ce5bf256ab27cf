#include "storage/staging_buffer.h"

namespace carac::storage {

void StagingBuffer::Reset(size_t arity) {
  arity_ = arity;
  arena_.clear();
  // Capacity for the previous batch under the 3/4 load ceiling. A table
  // that ballooned for one big rule is shrunk back towards it — without
  // this, every later Reset would clear the historical maximum even when
  // the tail iterations stage a handful of tuples.
  const size_t wanted = DedupTable::SlotsFor(num_rows_);
  num_rows_ = 0;
  if (table_.capacity() > wanted * 4) {
    table_.Reset(wanted);
  } else {
    table_.Clear();
  }
}

bool StagingBuffer::InsertHashed(TupleView tuple, uint64_t hash) {
  // Grow at 3/4 load so linear-probe chains stay short.
  if (table_.NeedsGrowth(num_rows_)) {
    table_.Rebuild(table_.capacity() * 2, num_rows_, [&](uint32_t row) {
      return util::HashSpan(RowData(row), arity_);
    });
  }
  CARAC_CHECK(num_rows_ < DedupTable::kEmpty);
  const bool fresh = table_.Insert(hash, num_rows_, [&](uint32_t row) {
    return RowValuesEqual(RowData(row), tuple.data(), arity_);
  });
  if (!fresh) return false;
  arena_.insert(arena_.end(), tuple.begin(), tuple.end());
  ++num_rows_;
  return true;
}

}  // namespace carac::storage
