#ifndef CARAC_STORAGE_DEDUP_TABLE_H_
#define CARAC_STORAGE_DEDUP_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/tuple.h"

namespace carac::storage {

/// True iff the `arity` values at `a` and `b` are equal. Arity 2 — every
/// built-in workload's head — compares without a loop.
inline bool RowValuesEqual(const Value* a, const Value* b, size_t arity) {
  if (arity == 2) return ((a[0] ^ b[0]) | (a[1] ^ b[1])) == 0;
  for (size_t i = 0; i < arity; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// The open-addressing set behind Relation and StagingBuffer: it maps a
/// row hash to the RowId of the row, and the caller's equality callback
/// compares the candidate row in its own arena. Linear probing over a
/// power-of-two slot array, grown by the owner at 3/4 load.
///
/// Each 32-bit slot is a tagged RowId. With 2^k slots every live RowId is
/// below 2^k (load never exceeds 3/4), so the RowId takes the low k bits
/// and the high 32 - k bits hold a tag: hash bits the slot index does not
/// use. A probe that passes an occupied slot compares tags first and only
/// reads the arena when they match, so most non-matching slots cost no
/// trip into the arena — the control-byte idea of Swiss tables and F14,
/// kept inside the 4-byte slot so the table costs no extra memory. The
/// tag shrinks as the table grows (10 bits at 4M slots, 4 at 256M) and
/// vanishes at 2^32 slots, where every slot compares rows again.
class DedupTable {
 public:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr size_t kMinSlots = 16;

  DedupTable() { Reset(kMinSlots); }

  size_t capacity() const { return slots_.size(); }

  /// True when one more row would push the table past 3/4 load.
  bool NeedsGrowth(size_t rows) const {
    return (rows + 1) * 4 > slots_.size() * 3;
  }

  /// Smallest power-of-two slot count >= kMinSlots that holds `rows`
  /// under the 3/4 load ceiling.
  static size_t SlotsFor(size_t rows) {
    size_t slots = kMinSlots;
    while (slots < rows + rows / 3 + 1) slots <<= 1;
    return slots;
  }

  /// Empties the table, resizing it to `slots` (a power of two).
  void Reset(size_t slots) {
    slots_.assign(slots, kEmpty);
    mask_ = slots - 1;
    const int bits = __builtin_ctzll(slots);
    row_mask_ = bits >= 32 ? kEmpty : (uint32_t{1} << bits) - 1;
  }

  /// Empties the table, keeping its size.
  void Clear() { std::fill(slots_.begin(), slots_.end(), kEmpty); }

  /// Empties the table at `slots` slots and re-inserts rows [0, rows),
  /// whose hashes `hash_of(row)` gives. Rows must be distinct.
  template <typename HashOf>
  void Rebuild(size_t slots, uint32_t rows, HashOf&& hash_of) {
    Reset(slots);
    for (uint32_t row = 0; row < rows; ++row) {
      const uint64_t hash = hash_of(row);
      size_t slot = hash & mask_;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = Tag(hash) | row;
    }
  }

  /// Pulls the home slot of `hash` towards the cache.
  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(slots_.data() + (hash & mask_));
  }

  /// RowId of the row with hash `hash` for which `equals(row)` holds, or
  /// kEmpty when there is none.
  template <typename Equals>
  uint32_t Find(uint64_t hash, Equals&& equals) const {
    const uint32_t tag = Tag(hash);
    for (size_t slot = hash & mask_;; slot = (slot + 1) & mask_) {
      const uint32_t s = slots_[slot];
      if (s == kEmpty) return kEmpty;
      if ((s & ~row_mask_) == tag && equals(s & row_mask_)) {
        return s & row_mask_;
      }
    }
  }

  /// Records `row` under `hash` unless a row for which `equals` holds is
  /// already present; returns true if recorded. The owner grows the table
  /// first (NeedsGrowth), so `row` fits in the RowId bits.
  template <typename Equals>
  bool Insert(uint64_t hash, uint32_t row, Equals&& equals) {
    const uint32_t tag = Tag(hash);
    size_t slot = hash & mask_;
    for (;; slot = (slot + 1) & mask_) {
      const uint32_t s = slots_[slot];
      if (s == kEmpty) break;
      if ((s & ~row_mask_) == tag && equals(s & row_mask_)) return false;
    }
    slots_[slot] = tag | row;
    return true;
  }

 private:
  /// The tag bits of `hash`: its high word, outside the RowId bits.
  uint32_t Tag(uint64_t hash) const {
    return static_cast<uint32_t>(hash >> 32) & ~row_mask_;
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  /// Low bits of a slot that hold the RowId; the rest hold the tag.
  uint32_t row_mask_ = 0;
};

}  // namespace carac::storage

#endif  // CARAC_STORAGE_DEDUP_TABLE_H_
