#ifndef CARAC_STORAGE_INDEX_H_
#define CARAC_STORAGE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/tuple.h"
#include "util/status.h"

namespace carac::storage {

/// Index organization. Carac's paper implementation uses one hash map per
/// indexed column (java.util.HashMap); Soufflé's specialized B-trees are
/// cited as an orthogonal optimization (§VI-D), and KVell demonstrates the
/// value of swapping index shapes behind one interface. Five kinds live
/// behind IndexBase:
///
///   kHash        — unordered_map buckets; O(1) point probes, no ranges.
///   kSorted      — std::map buckets; ordered range probes at a
///                  log-factor, pointer-chasing point-probe cost.
///   kBtree       — cache-friendly B+tree (fanout kBtreeMaxKeys, leaf
///                  chain); ordered ranges with contiguous key arrays per
///                  node instead of one heap node per key.
///   kSortedArray — immutable sorted (key, row) arrays over the
///                  epoch-stable prefix plus a small hash tail for rows
///                  appended since the last Stabilize(); point probes are
///                  a binary search into contiguous memory, range scans
///                  are a single sequential sweep.
///   kLearned     — kSortedArray's layout with a piecewise-linear model
///                  (bounded error ε) fit over the stable prefix at
///                  Stabilize(); point probes predict a position and
///                  correct within ±ε instead of binary-searching the
///                  whole prefix. Range scans and the mutable tail are
///                  inherited unchanged.
enum class IndexKind : uint8_t {
  kHash = 0,
  kSorted = 1,
  kBtree = 2,
  kSortedArray = 3,
  kLearned = 4,
};

/// One row of the canonical kind table below.
struct IndexKindInfo {
  IndexKind kind;
  const char* name;      // Canonical spelling ("sorted-array").
  const char* alt_name;  // Identifier-safe alias, or nullptr.
};

/// The single source of truth for kind names: `--index-kind` parsing, the
/// `@index` pragma diagnostic and snapshot kind validation all consume
/// this table, so adding a kind here updates every surface at once.
inline constexpr IndexKindInfo kIndexKindTable[] = {
    {IndexKind::kHash, "hash", nullptr},
    {IndexKind::kSorted, "sorted", nullptr},
    {IndexKind::kBtree, "btree", nullptr},
    {IndexKind::kSortedArray, "sorted-array", "sorted_array"},
    {IndexKind::kLearned, "learned", nullptr},
};
inline constexpr size_t kNumIndexKinds =
    sizeof(kIndexKindTable) / sizeof(kIndexKindTable[0]);

const char* IndexKindName(IndexKind kind);

/// Parses any canonical or alias spelling from kIndexKindTable ("hash",
/// "sorted", "btree", "sorted-array"/"sorted_array", "learned"). Returns
/// false on anything else, leaving *out untouched.
bool ParseIndexKind(const std::string& name, IndexKind* out);

/// Comma-separated canonical names ("hash, sorted, btree, sorted-array,
/// learned") for diagnostics that enumerate the valid kinds.
const std::string& IndexKindNameList();

/// True for kinds that keep their keys ordered (ProbeRange works).
inline bool IndexKindIsOrdered(IndexKind kind) {
  return kind != IndexKind::kHash;
}

/// The RowId upper bound that cuts nothing (RowCursor::Window, and the
/// access paths of atoms that read every row).
inline constexpr RowId kAllRows = std::numeric_limits<RowId>::max();

/// The result of one index probe: a lightweight view of the matching
/// RowIds. Most kinds hand back one contiguous span; kSortedArray hands
/// back two (stable prefix + fresh tail), which is why this is a
/// two-span cursor rather than a bare pointer pair. RowIds appear in
/// ascending order for every kind (rows enter an index in RowId order
/// and the prefix/tail split preserves it), so all kinds drive the
/// evaluators through identical insertion sequences.
///
/// Validity: a cursor borrows the index's internal arrays and stays
/// valid until the owning relation gains rows — the same aliasing rule
/// as TupleView. The evaluators never violate it: rules probe Derived
/// and write DeltaNew.
class RowCursor {
 public:
  RowCursor() = default;
  RowCursor(const RowId* data, size_t size) : data0_(data), size0_(size) {}
  RowCursor(const RowId* data0, size_t size0, const RowId* data1,
            size_t size1)
      : data0_(data0), size0_(size0), data1_(data1), size1_(size1) {}

  size_t size() const { return size0_ + size1_; }
  bool empty() const { return size0_ == 0 && size1_ == 0; }
  RowId operator[](size_t i) const {
    return i < size0_ ? data0_[i] : data1_[i - size0_];
  }

  /// Raw spans, for hot loops that want two tight inner loops instead of
  /// a per-element branch.
  const RowId* span0() const { return data0_; }
  size_t size0() const { return size0_; }
  const RowId* span1() const { return data1_; }
  size_t size1() const { return size1_; }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < size0_; ++i) fn(data0_[i]);
    for (size_t i = 0; i < size1_; ++i) fn(data1_[i]);
  }

  /// The RowIds in [lo, hi): ascending order makes them one run, with the
  /// rows below `lo` a prefix and those at or past `hi` a suffix. Free
  /// for [0, kAllRows). Both cuts gallop from the back: a delta window is
  /// Derived's newest rows, so a bucket's delta rows are its suffix, and
  /// so are the rows past an old-row limit.
  RowCursor Window(RowId lo, RowId hi) const {
    if (lo == 0 && hi == kAllRows) return *this;
    const size_t end = hi == kAllRows ? size() : FirstAtOrAbove(hi);
    const size_t begin = lo == 0 ? 0 : FirstAtOrAbove(lo);
    if (begin >= end) return RowCursor();
    if (begin >= size0_) {
      return RowCursor(data1_ + (begin - size0_), end - begin);
    }
    if (end <= size0_) return RowCursor(data0_ + begin, end - begin);
    return RowCursor(data0_ + begin, size0_ - begin, data1_, end - size0_);
  }

  /// Range-for support (cold paths; hot loops use ForEach or the spans).
  class Iterator {
   public:
    Iterator(const RowCursor* cursor, size_t pos)
        : cursor_(cursor), pos_(pos) {}
    RowId operator*() const { return (*cursor_)[pos_]; }
    Iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return pos_ != other.pos_;
    }

   private:
    const RowCursor* cursor_;
    size_t pos_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  /// Position of the first RowId >= `row`, searched in the one span it
  /// falls in.
  size_t FirstAtOrAbove(RowId row) const {
    if (size1_ > 0 && data1_[0] < row) {
      return size0_ + GallopFromBack(data1_, size1_, row);
    }
    return GallopFromBack(data0_, size0_, row);
  }

  /// lower_bound(data, data + size, row), found by probing back 1, 2, 4,
  /// ... rows from the end, then binary-searching the last step: one
  /// compare when every RowId is below `row`, O(log k) for a cut k rows
  /// from the end.
  static size_t GallopFromBack(const RowId* data, size_t size, RowId row) {
    size_t hi = size;  // data[hi, size) >= row.
    for (size_t step = 1; hi > 0; step *= 2) {
      const size_t probe = hi > step ? hi - step : 0;
      if (data[probe] < row) {
        return static_cast<size_t>(
            std::lower_bound(data + probe + 1, data + hi, row) - data);
      }
      hi = probe;
    }
    return 0;
  }

  const RowId* data0_ = nullptr;
  size_t size0_ = 0;
  const RowId* data1_ = nullptr;
  size_t size1_ = 0;
};

/// A per-column secondary index: value -> RowIds of the tuples with that
/// value in the column. RowIds address the owning relation's arena and
/// are stable across arena growth and dedup-table rehash, so an index
/// never needs rebuilding — incremental maintenance on insert is all
/// that is needed. Concrete organizations subclass this; relations hold
/// them through the interface and the factory (MakeIndex) keys on
/// IndexKind, so adding an organization touches only this file.
class IndexBase {
 public:
  IndexBase(size_t column, IndexKind kind) : column_(column), kind_(kind) {}
  virtual ~IndexBase() = default;

  size_t column() const { return column_; }
  IndexKind kind() const { return kind_; }

  /// Registers `row`, whose indexed column holds `key`. Rows arrive in
  /// ascending RowId order (the relation appends monotonically).
  virtual void Add(RowId row, Value key) = 0;

  /// Rows whose column equals `value`; empty cursor if none.
  virtual RowCursor Probe(Value value) const = 0;

  /// Rows whose column lies in [lo, hi], appended to `out` in ascending
  /// (column value, RowId) order. Only ordered kinds keep their keys
  /// sorted, so a range probe against a kHash index is a caller bug; it
  /// is reported as a FailedPrecondition naming the offending kind
  /// instead of silently returning garbage.
  virtual util::Status ProbeRange(Value lo, Value hi,
                                  std::vector<RowId>* out) const;

  /// Resolves a window of `n` probe keys in one call, writing one cursor
  /// per key. Amortizes virtual dispatch and lets ordered kinds exploit
  /// key locality; every implementation skips the lookup entirely for
  /// runs of equal adjacent keys (common when outer rows share a join
  /// key). The cursors obey the same validity rule as Probe.
  virtual void BatchProbe(const Value* keys, size_t n, RowCursor* out) const;

  virtual void Clear() = 0;

  /// Smallest and largest key currently indexed. Returns false when the
  /// index is empty or the kind does not track key bounds (kHash). The
  /// optimizer's range-pushdown profitability check divides the requested
  /// [lo, hi] span by this key span to estimate coverage.
  virtual bool KeyBounds(Value* min, Value* max) const;

  /// Hints that rows below `limit` are epoch-stable (will never be
  /// removed before the next Clear). kSortedArray rebuilds its immutable
  /// prefix here; other kinds ignore it. Called only at quiescent points
  /// (bulk build, watermark advance, snapshot load) — never during a
  /// probe — so concurrent shard readers never observe a rebuild.
  virtual void Stabilize(RowId limit);

 protected:
  util::Status RangeUnsupported() const;

 private:
  size_t column_;
  IndexKind kind_;
};

/// Creates an index of the requested organization.
std::unique_ptr<IndexBase> MakeIndex(size_t column, IndexKind kind);

/// kHash: one unordered_map bucket vector per key. Defined in the header
/// so Relation's kind-dispatched hot paths inline the probe and the
/// per-insert maintenance (AddFast/ProbeFast are the devirtualized entry
/// points; the virtuals forward to them).
class HashIndex final : public IndexBase {
 public:
  explicit HashIndex(size_t column) : IndexBase(column, IndexKind::kHash) {}

  void AddFast(RowId row, Value key) { buckets_[key].push_back(row); }
  RowCursor ProbeFast(Value value) const {
    auto it = buckets_.find(value);
    if (it == buckets_.end()) return RowCursor();
    return RowCursor(it->second.data(), it->second.size());
  }

  void Add(RowId row, Value key) override { AddFast(row, key); }
  RowCursor Probe(Value value) const override { return ProbeFast(value); }
  void Clear() override { buckets_.clear(); }

 private:
  std::unordered_map<Value, std::vector<RowId>> buckets_;
};

/// kSorted: one std::map bucket vector per key — the ordered-map
/// reference organization the B-tree and sorted-array kinds are measured
/// against.
class SortedIndex final : public IndexBase {
 public:
  explicit SortedIndex(size_t column)
      : IndexBase(column, IndexKind::kSorted) {}

  void AddFast(RowId row, Value key) { buckets_[key].push_back(row); }
  RowCursor ProbeFast(Value value) const {
    auto it = buckets_.find(value);
    if (it == buckets_.end()) return RowCursor();
    return RowCursor(it->second.data(), it->second.size());
  }

  void Add(RowId row, Value key) override { AddFast(row, key); }
  RowCursor Probe(Value value) const override { return ProbeFast(value); }
  util::Status ProbeRange(Value lo, Value hi,
                          std::vector<RowId>* out) const override;
  void Clear() override { buckets_.clear(); }
  bool KeyBounds(Value* min, Value* max) const override;

 private:
  std::map<Value, std::vector<RowId>> buckets_;
};

/// kBtree: a B+tree with contiguous key arrays per node and a chained
/// leaf level for range scans. Nodes live in one vector and refer to each
/// other by id (growth-safe: splitting never invalidates an id); RowId
/// buckets live in a deque so a probe's span survives later inserts.
class BtreeIndex final : public IndexBase {
 public:
  explicit BtreeIndex(size_t column) : IndexBase(column, IndexKind::kBtree) {}

  void AddFast(RowId row, Value key);
  RowCursor ProbeFast(Value value) const;

  void Add(RowId row, Value key) override { AddFast(row, key); }
  RowCursor Probe(Value value) const override { return ProbeFast(value); }
  util::Status ProbeRange(Value lo, Value hi,
                          std::vector<RowId>* out) const override;
  void BatchProbe(const Value* keys, size_t n, RowCursor* out) const override;
  void Clear() override;
  bool KeyBounds(Value* min, Value* max) const override;

 private:
  // 32 keys/node keeps a node's key array within four cache lines while
  // staying shallow (a million keys is a 4-level tree).
  static constexpr size_t kMaxKeys = 32;
  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;

  struct Node {
    bool leaf = true;
    std::vector<Value> keys;
    /// Leaf: bucket ids, parallel to keys. Internal: child node ids,
    /// keys.size() + 1 of them.
    std::vector<uint32_t> children;
    uint32_t next = kNoNode;  // Next leaf in key order.
  };

  /// Splits the full child at `parent`'s slot `pos` (B+tree style:
  /// leaves copy the separator up, internals move it up).
  void SplitChild(uint32_t parent_id, size_t pos);
  /// Leaf that would hold `key`, or kNoNode when empty.
  uint32_t FindLeaf(Value key) const;

  std::vector<Node> nodes_;
  std::deque<std::vector<RowId>> buckets_;
  uint32_t root_ = kNoNode;
};

/// kSortedArray: an immutable index over the epoch-stable prefix — two
/// parallel arrays sorted by (key, row) — plus a hash tail for rows that
/// arrived after the last Stabilize(). Point probes binary-search
/// contiguous memory; range probes sweep one contiguous run (merging in
/// whatever the tail holds). Stabilize() migrates tail rows below the
/// new stable limit into the prefix; the watermark machinery makes every
/// completed epoch's rows stable, so on EDB-heavy workloads the tail
/// stays empty and probes never touch a hash table at all.
class SortedArrayIndex : public IndexBase {
 public:
  explicit SortedArrayIndex(size_t column)
      : IndexBase(column, IndexKind::kSortedArray) {}

  void AddFast(RowId row, Value key) {
    tail_[key].push_back(row);
    if (!have_key_bounds_ || key < key_lo_) key_lo_ = key;
    if (!have_key_bounds_ || key > key_hi_) key_hi_ = key;
    have_key_bounds_ = true;
  }
  RowCursor ProbeFast(Value value) const;

  void Add(RowId row, Value key) override { AddFast(row, key); }
  RowCursor Probe(Value value) const override { return ProbeFast(value); }
  util::Status ProbeRange(Value lo, Value hi,
                          std::vector<RowId>* out) const override;
  void Clear() override;
  void Stabilize(RowId limit) override;
  bool KeyBounds(Value* min, Value* max) const override {
    if (!have_key_bounds_) return false;
    *min = key_lo_;
    *max = key_hi_;
    return true;
  }

 protected:
  /// For kLearned, which reuses the prefix+tail layout wholesale and only
  /// changes how the prefix is searched.
  SortedArrayIndex(size_t column, IndexKind kind) : IndexBase(column, kind) {}

  /// Sorted by (key, row); every row here is < stable_limit_.
  std::vector<Value> prefix_keys_;
  std::vector<RowId> prefix_rows_;
  RowId stable_limit_ = 0;
  /// Rows >= stable_limit_, in insertion (ascending RowId) order.
  std::unordered_map<Value, std::vector<RowId>> tail_;
  /// Running [key_lo_, key_hi_] over everything ever Added (prefix and
  /// tail; keys only leave at Clear, so the running extremes stay exact).
  bool have_key_bounds_ = false;
  Value key_lo_ = 0;
  Value key_hi_ = 0;
};

/// kLearned: SortedArrayIndex's prefix+tail layout with a RMI/ALEX-style
/// piecewise-linear approximation over the stable prefix. Stabilize()
/// refits the model: a greedy shrinking-cone pass over the (distinct key,
/// first position) points yields segments guaranteeing
/// |predicted - actual| <= kEpsilon for every trained key. A point probe
/// then binary-searches only the segment directory (typically a handful
/// of entries) plus a ±ε window of the prefix instead of the whole array.
/// A bracket check falls back to a full binary search for keys outside
/// the model's cone (only possible for untrained keys), so correctness
/// never depends on the model.
class LearnedIndex final : public SortedArrayIndex {
 public:
  /// Maximum |predicted - actual| the fit guarantees for trained keys.
  /// 24 positions sit inside two or three cache lines of the key array —
  /// the final window search stays cheap while segments stay few.
  static constexpr size_t kEpsilon = 24;

  explicit LearnedIndex(size_t column)
      : SortedArrayIndex(column, IndexKind::kLearned) {}

  RowCursor ProbeFast(Value value) const;

  RowCursor Probe(Value value) const override { return ProbeFast(value); }
  void Clear() override;
  void Stabilize(RowId limit) override;

  /// Model introspection, for tests and `serve stats`.
  size_t NumSegments() const { return segments_.size(); }

  /// Test hook: predicted prefix position for `value` (clamped), or
  /// false when the model is empty or `value` lies outside its cone.
  bool PredictPosition(Value value, size_t* pos) const;

 private:
  /// One linear piece: predicts positions for keys in
  /// [first_key, next segment's first_key).
  struct Segment {
    Value first_key;
    double slope;
    double intercept;  // Predicted position at key == first_key.
  };

  void RefitModel();

  std::vector<Segment> segments_;
  /// Keys outside [min_key_, max_key_] skip the model entirely.
  Value min_key_ = 0;
  Value max_key_ = 0;
};

}  // namespace carac::storage

#endif  // CARAC_STORAGE_INDEX_H_
