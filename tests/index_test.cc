#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/programs.h"
#include "core/engine.h"
#include "storage/index.h"
#include "storage/relation.h"

namespace carac::storage {
namespace {

constexpr IndexKind kAllKinds[] = {IndexKind::kHash, IndexKind::kSorted,
                                   IndexKind::kBtree, IndexKind::kSortedArray,
                                   IndexKind::kLearned};
constexpr IndexKind kOrderedKinds[] = {IndexKind::kSorted, IndexKind::kBtree,
                                       IndexKind::kSortedArray,
                                       IndexKind::kLearned};

std::vector<RowId> Collect(const RowCursor& cursor) {
  std::vector<RowId> out;
  cursor.ForEach([&](RowId row) { out.push_back(row); });
  return out;
}

TEST(IndexKindTest, NamesAndParsingRoundTrip) {
  for (IndexKind kind : kAllKinds) {
    IndexKind parsed;
    ASSERT_TRUE(ParseIndexKind(IndexKindName(kind), &parsed))
        << IndexKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  IndexKind parsed = IndexKind::kHash;
  EXPECT_TRUE(ParseIndexKind("sorted_array", &parsed));  // Identifier form.
  EXPECT_EQ(parsed, IndexKind::kSortedArray);
  EXPECT_FALSE(ParseIndexKind("b-tree", &parsed));
  EXPECT_FALSE(ParseIndexKind("", &parsed));
  EXPECT_FALSE(IndexKindIsOrdered(IndexKind::kHash));
  for (IndexKind kind : kOrderedKinds) EXPECT_TRUE(IndexKindIsOrdered(kind));
}

TEST(IndexKindTest, FactoryProducesRequestedKind) {
  for (IndexKind kind : kAllKinds) {
    std::unique_ptr<IndexBase> index = MakeIndex(2, kind);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->kind(), kind);
    EXPECT_EQ(index->column(), 2u);
  }
}

TEST(ColumnIndexTest, PointProbeEveryKind) {
  for (IndexKind kind : kAllKinds) {
    std::unique_ptr<IndexBase> index = MakeIndex(0, kind);
    // Rows (RowIds 0..2) with column-0 keys 1, 1, 2.
    index->Add(0, 1);
    index->Add(1, 1);
    index->Add(2, 2);
    EXPECT_EQ(index->Probe(1).size(), 2u) << IndexKindName(kind);
    EXPECT_EQ(index->Probe(2).size(), 1u) << IndexKindName(kind);
    EXPECT_TRUE(index->Probe(3).empty()) << IndexKindName(kind);
  }
}

TEST(ColumnIndexTest, ProbeReturnsAscendingRowIds) {
  // Rows enter an index in ascending RowId order (relations append
  // monotonically); every kind must hand them back in that order — it is
  // what keeps evaluation byte-identical across kinds.
  for (IndexKind kind : kAllKinds) {
    std::unique_ptr<IndexBase> index = MakeIndex(0, kind);
    for (RowId row = 0; row < 64; ++row) index->Add(row, 9);
    index->Stabilize(40);  // Split kSortedArray across prefix and tail.
    const std::vector<RowId> rows = Collect(index->Probe(9));
    ASSERT_EQ(rows.size(), 64u) << IndexKindName(kind);
    for (RowId row = 0; row < 64; ++row) {
      EXPECT_EQ(rows[row], row) << IndexKindName(kind);
    }
  }
}

TEST(ColumnIndexTest, RangeProbeAscendingEveryOrderedKind) {
  const Value keys[] = {3, 1, 7, 5, 5};
  for (IndexKind kind : kOrderedKinds) {
    std::unique_ptr<IndexBase> index = MakeIndex(0, kind);
    for (RowId row = 0; row < 5; ++row) index->Add(row, keys[row]);
    std::vector<RowId> out;
    ASSERT_TRUE(index->ProbeRange(2, 6, &out).ok()) << IndexKindName(kind);
    ASSERT_EQ(out.size(), 3u) << IndexKindName(kind);
    EXPECT_EQ(out[0], 0u);  // Keys 3, 5, 5 -> rows 0, 3, 4.
    EXPECT_EQ(out[1], 3u);
    EXPECT_EQ(out[2], 4u);
    out.clear();
    ASSERT_TRUE(index->ProbeRange(100, 200, &out).ok());
    EXPECT_TRUE(out.empty()) << IndexKindName(kind);
  }
}

TEST(ColumnIndexTest, RangeProbeOnHashIndexFailsWithKindInMessage) {
  std::unique_ptr<IndexBase> index = MakeIndex(3, IndexKind::kHash);
  index->Add(0, 1);
  std::vector<RowId> out;
  const util::Status status = index->ProbeRange(0, 10, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  // The diagnostic must name the offending kind and column so the caller
  // can find the bad DeclareIndex call.
  EXPECT_NE(status.message().find("hash"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("column 3"), std::string::npos)
      << status.message();
  EXPECT_TRUE(out.empty());
}

TEST(ColumnIndexTest, BatchProbeMatchesPointProbes) {
  // Repeated adjacent keys exercise the equal-adjacent memo; absent keys
  // must yield empty cursors in place, not be skipped.
  const Value batch[] = {5, 5, 2, 99, 2, 2, 7, 5};
  constexpr size_t kBatch = sizeof(batch) / sizeof(batch[0]);
  for (IndexKind kind : kAllKinds) {
    std::unique_ptr<IndexBase> index = MakeIndex(0, kind);
    const Value keys[] = {5, 2, 7, 5, 2, 5};
    for (RowId row = 0; row < 6; ++row) index->Add(row, keys[row]);
    index->Stabilize(3);
    std::vector<RowCursor> cursors(kBatch);
    index->BatchProbe(batch, kBatch, cursors.data());
    for (size_t i = 0; i < kBatch; ++i) {
      EXPECT_EQ(Collect(cursors[i]), Collect(index->Probe(batch[i])))
          << IndexKindName(kind) << " key " << batch[i];
    }
  }
}

TEST(ColumnIndexTest, CursorsCutToARowWindowMatchTheFilter) {
  // RowCursor::Window relies on every kind returning ascending RowIds: the
  // rows inside [lo, hi) are then one run. 100 rows, keys row % 5; the
  // stable prefix ends at row 60, so sorted-array and learned probes are
  // two-span cursors (span 0 below 60, span 1 the hash tail). Both ends
  // take every bound: inside span 0, at the span boundary, inside span 1,
  // at either end, and kAllRows; lo > hi must cut everything.
  constexpr RowId kRows = 100;
  constexpr RowId kStable = 60;
  const RowId bounds[] = {0, 1, 30, kStable - 1, kStable, kStable + 1, 80,
                          kRows - 1, kRows, kAllRows};
  const Value keys[] = {0, 3, 3, 4, 7, 0, 1, 2};  // 7 matches nothing.
  constexpr size_t kBatch = sizeof(keys) / sizeof(keys[0]);
  for (IndexKind kind : kAllKinds) {
    SCOPED_TRACE(IndexKindName(kind));
    std::unique_ptr<IndexBase> index = MakeIndex(0, kind);
    for (RowId row = 0; row < kRows; ++row) index->Add(row, row % 5);
    index->Stabilize(kStable);
    if (kind == IndexKind::kSortedArray || kind == IndexKind::kLearned) {
      const RowCursor two_span = index->Probe(2);
      ASSERT_EQ(two_span.size0(), kStable / 5);
      ASSERT_EQ(two_span.size1(), (kRows - kStable) / 5);
    }
    std::vector<RowCursor> batch(kBatch);
    index->BatchProbe(keys, kBatch, batch.data());
    for (RowId lo : bounds) {
      for (RowId hi : bounds) {
        SCOPED_TRACE("lo=" + std::to_string(lo) + " hi=" + std::to_string(hi));
        for (size_t k = 0; k < kBatch; ++k) {
          std::vector<RowId> expected;
          for (RowId row = 0; row < kRows; ++row) {
            if (row >= lo && row < hi &&
                static_cast<Value>(row % 5) == keys[k]) {
              expected.push_back(row);
            }
          }
          EXPECT_EQ(Collect(index->Probe(keys[k]).Window(lo, hi)), expected)
              << "probe key " << keys[k];
          EXPECT_EQ(Collect(batch[k].Window(lo, hi)), expected)
              << "batch key " << keys[k];
        }
      }
    }
  }
}

TEST(ColumnIndexTest, ClearEmptiesEveryKind) {
  for (IndexKind kind : kAllKinds) {
    std::unique_ptr<IndexBase> index = MakeIndex(0, kind);
    index->Add(0, 1);
    index->Stabilize(1);
    index->Add(1, 1);
    EXPECT_EQ(index->Probe(1).size(), 2u) << IndexKindName(kind);
    index->Clear();
    EXPECT_TRUE(index->Probe(1).empty()) << IndexKindName(kind);
    index->Add(0, 1);  // Usable again after Clear.
    EXPECT_EQ(index->Probe(1).size(), 1u) << IndexKindName(kind);
  }
}

TEST(BtreeIndexTest, SplitStressAgainstSortedReference) {
  // Enough distinct keys to force several levels of splits (fanout 32),
  // inserted in a scrambled but deterministic order via a multiplicative
  // walk of the key space.
  constexpr Value kKeys = 5000;
  std::unique_ptr<IndexBase> btree = MakeIndex(0, IndexKind::kBtree);
  std::unique_ptr<IndexBase> reference = MakeIndex(0, IndexKind::kSorted);
  for (RowId row = 0; row < 2 * kKeys; ++row) {
    const Value key = (static_cast<Value>(row) * 2654435761u) % kKeys;
    btree->Add(row, key);
    reference->Add(row, key);
  }
  for (Value key = 0; key < kKeys; key += 17) {
    EXPECT_EQ(Collect(btree->Probe(key)), Collect(reference->Probe(key)))
        << "key " << key;
  }
  EXPECT_TRUE(btree->Probe(kKeys + 1).empty());
  for (Value lo = 0; lo < kKeys; lo += 611) {
    std::vector<RowId> got, want;
    ASSERT_TRUE(btree->ProbeRange(lo, lo + 300, &got).ok());
    ASSERT_TRUE(reference->ProbeRange(lo, lo + 300, &want).ok());
    EXPECT_EQ(got, want) << "range [" << lo << ", " << lo + 300 << "]";
  }
}

TEST(SortedArrayIndexTest, StabilizeIsInvisibleToProbes) {
  std::unique_ptr<IndexBase> index = MakeIndex(0, IndexKind::kSortedArray);
  std::unique_ptr<IndexBase> reference = MakeIndex(0, IndexKind::kSorted);
  auto check_all = [&](const char* when) {
    for (Value key = 0; key < 12; ++key) {
      EXPECT_EQ(Collect(index->Probe(key)), Collect(reference->Probe(key)))
          << when << ", key " << key;
      std::vector<RowId> got, want;
      ASSERT_TRUE(index->ProbeRange(key, key + 3, &got).ok());
      ASSERT_TRUE(reference->ProbeRange(key, key + 3, &want).ok());
      EXPECT_EQ(got, want) << when << ", range from " << key;
    }
  };
  // Epoch 1: rows 0..99, then the watermark advances (Stabilize).
  for (RowId row = 0; row < 100; ++row) {
    index->Add(row, row % 10);
    reference->Add(row, row % 10);
  }
  check_all("tail only");
  index->Stabilize(100);
  check_all("all stable");
  // Epoch 2: more rows, some with brand-new keys, probed while they
  // straddle the prefix/tail boundary, then stabilized again.
  for (RowId row = 100; row < 160; ++row) {
    index->Add(row, row % 12);
    reference->Add(row, row % 12);
  }
  check_all("prefix + tail");
  index->Stabilize(130);  // Partial: rows 130..159 stay in the tail.
  check_all("partial stabilize");
  index->Stabilize(160);
  check_all("restabilized");
}

TEST(RelationIndexKindTest, DeclaredKindDrivesRelationProbes) {
  for (IndexKind kind : kAllKinds) {
    Relation rel("R", 2);
    rel.DeclareIndex(0, kind);
    for (int64_t i = 0; i < 20; ++i) rel.Insert({i % 5, i});
    EXPECT_EQ(rel.IndexKindOf(0), kind);
    EXPECT_EQ(rel.Probe(0, 3).size(), 4u) << IndexKindName(kind);
    if (!IndexKindIsOrdered(kind)) continue;
    std::vector<RowId> out;
    ASSERT_TRUE(rel.ProbeRange(0, 1, 3, &out).ok()) << IndexKindName(kind);
    EXPECT_EQ(out.size(), 12u);  // Keys 1,2,3 with 4 rows each.
    for (RowId row : out) {
      const Value key = rel.View(row)[0];
      EXPECT_GE(key, 1);
      EXPECT_LE(key, 3);
    }
  }
}

TEST(RelationIndexKindTest, BatchProbeMatchesPointProbesOnRelation) {
  for (IndexKind kind : kAllKinds) {
    Relation rel("R", 2);
    rel.DeclareIndex(0, kind);
    for (int64_t i = 0; i < 30; ++i) rel.Insert({i % 7, i});
    const Value keys[] = {3, 3, 6, 42, 0, 0};
    RowCursor cursors[6];
    rel.BatchProbe(0, keys, 6, cursors);
    for (size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(Collect(cursors[i]), Collect(rel.Probe(0, keys[i])))
          << IndexKindName(kind) << " key " << keys[i];
    }
  }
}

TEST(RelationIndexKindTest, RangeProbeOnHashRelationIndexFails) {
  Relation rel("R", 2);
  rel.DeclareIndex(1);  // Default kind: hash.
  rel.Insert({1, 2});
  std::vector<RowId> out;
  const util::Status status = rel.ProbeRange(1, 0, 10, &out);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("hash"), std::string::npos)
      << status.message();
}

TEST(RelationIndexKindTest, FirstDeclarationWins) {
  Relation rel("R", 1);
  rel.DeclareIndex(0, IndexKind::kSorted);
  rel.DeclareIndex(0, IndexKind::kHash);  // Ignored (idempotent).
  EXPECT_EQ(rel.IndexKindOf(0), IndexKind::kSorted);
}

TEST(RelationIndexKindTest, RedeclareReplacesKindAndRebuilds) {
  Relation rel("R", 2);
  rel.DeclareIndex(0, IndexKind::kHash);
  for (int64_t i = 0; i < 20; ++i) rel.Insert({i % 5, i});
  rel.RedeclareIndex(0, IndexKind::kBtree);
  EXPECT_EQ(rel.IndexKindOf(0), IndexKind::kBtree);
  EXPECT_EQ(rel.Probe(0, 3).size(), 4u);  // Rebuilt over existing rows.
  std::vector<RowId> out;
  ASSERT_TRUE(rel.ProbeRange(0, 1, 3, &out).ok());
  EXPECT_EQ(out.size(), 12u);
  // Redeclaring the current kind is a no-op, and the index keeps
  // following subsequent inserts either way.
  rel.RedeclareIndex(0, IndexKind::kBtree);
  rel.Insert({3, 100});
  EXPECT_EQ(rel.Probe(0, 3).size(), 5u);
}

TEST(DatabaseIndexKindTest, DefaultKindAppliesToDerived) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  db.SetDefaultIndexKind(IndexKind::kSorted);
  db.DeclareIndex(r, 1);
  EXPECT_EQ(db.Get(r, DbKind::kDerived).IndexKindOf(1), IndexKind::kSorted);
  EXPECT_FALSE(db.Get(r, DbKind::kDeltaNew).HasIndex(1));  // Write-only.
  EXPECT_STREQ(IndexKindName(IndexKind::kSorted), "sorted");
  EXPECT_STREQ(IndexKindName(IndexKind::kHash), "hash");
  EXPECT_STREQ(IndexKindName(IndexKind::kBtree), "btree");
  EXPECT_STREQ(IndexKindName(IndexKind::kSortedArray), "sorted-array");
  EXPECT_STREQ(IndexKindName(IndexKind::kLearned), "learned");
}

TEST(DatabaseIndexKindTest, PerColumnOverrideBeatsDefault) {
  DatabaseSet db;
  const RelationId r = db.AddRelation("R", 2);
  db.SetIndexKindOverride(r, 0, IndexKind::kSortedArray);
  db.DeclareIndex(r, 0);
  db.DeclareIndex(r, 1);
  EXPECT_EQ(db.Get(r, DbKind::kDerived).IndexKindOf(0),
            IndexKind::kSortedArray);
  EXPECT_EQ(db.Get(r, DbKind::kDerived).IndexKindOf(1), IndexKind::kHash);
}

TEST(EngineIndexKindTest, EveryKindProducesSameResults) {
  auto run = [](IndexKind kind) {
    analysis::CspaConfig config;
    config.total_tuples = 200;
    analysis::Workload w =
        analysis::MakeCspa(config, analysis::RuleOrder::kHandOptimized);
    core::EngineConfig ec;
    ec.index_kind = kind;
    core::Engine engine(w.program.get(), ec);
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    return engine.Results(w.output);
  };
  const auto want = run(IndexKind::kHash);
  EXPECT_EQ(want, run(IndexKind::kSorted));
  EXPECT_EQ(want, run(IndexKind::kBtree));
  EXPECT_EQ(want, run(IndexKind::kSortedArray));
  EXPECT_EQ(want, run(IndexKind::kLearned));
}

TEST(EngineIndexKindTest, OrderedKindsWorkUnderJit) {
  auto run = [](IndexKind kind) {
    analysis::Workload w =
        analysis::MakeAckermann(29, analysis::RuleOrder::kUnoptimized);
    core::EngineConfig ec;
    ec.mode = core::EvalMode::kJit;
    ec.index_kind = kind;
    ec.jit.backend = backends::BackendKind::kBytecode;
    core::Engine engine(w.program.get(), ec);
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    return engine.Results(w.output);
  };
  const auto want = run(IndexKind::kHash);
  EXPECT_EQ(want, run(IndexKind::kBtree));
  EXPECT_EQ(want, run(IndexKind::kSortedArray));
  EXPECT_EQ(want, run(IndexKind::kLearned));
}

TEST(LearnedIndexTest, PredictionStaysWithinEpsilonOnTrainedKeys) {
  // The fit uses a shrinking-cone bound strictly inside the probe window,
  // so for every key in the stable prefix the predicted position must
  // land within kEpsilon of the key's first actual position — that is
  // what makes the windowed search exact (never a correctness issue: the
  // bracket check falls back to full binary search, but trained keys
  // must not need the fallback).
  LearnedIndex index(0);
  std::vector<Value> keys;
  Value key = 0;
  for (RowId row = 0; row < 20000; ++row) {
    // Piecewise key distribution: dense runs, then jumps — forces
    // multiple segments.
    key += 1 + (row % 997 == 0 ? 5000 : (row % 7 == 0 ? 13 : 0));
    keys.push_back(key);
    index.AddFast(row, key);
  }
  index.Stabilize(20000);
  EXPECT_GE(index.NumSegments(), 2u);
  for (size_t i = 0; i < keys.size(); i += 11) {
    size_t predicted = 0;
    ASSERT_TRUE(index.PredictPosition(keys[i], &predicted)) << keys[i];
    const size_t actual = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), keys[i]) - keys.begin());
    const size_t err =
        predicted > actual ? predicted - actual : actual - predicted;
    EXPECT_LE(err, LearnedIndex::kEpsilon) << "key " << keys[i];
  }
}

TEST(LearnedIndexTest, DuplicateHeavyKeysMatchSortedReference) {
  // 50 distinct keys, 400 rows each: the model trains on (distinct key,
  // first position) and the probe must recover the full duplicate run.
  std::unique_ptr<IndexBase> learned = MakeIndex(0, IndexKind::kLearned);
  std::unique_ptr<IndexBase> reference = MakeIndex(0, IndexKind::kSorted);
  for (RowId row = 0; row < 20000; ++row) {
    const Value key = (static_cast<Value>(row) * 2654435761u) % 50;
    learned->Add(row, key);
    reference->Add(row, key);
  }
  learned->Stabilize(20000);
  for (Value key = -1; key <= 50; ++key) {
    EXPECT_EQ(Collect(learned->Probe(key)), Collect(reference->Probe(key)))
        << "key " << key;
  }
}

TEST(LearnedIndexTest, PrefixTailSplitAndUntrainedKeysFallBack) {
  std::unique_ptr<IndexBase> learned = MakeIndex(0, IndexKind::kLearned);
  std::unique_ptr<IndexBase> reference = MakeIndex(0, IndexKind::kSorted);
  for (RowId row = 0; row < 3000; ++row) {
    const Value key = (static_cast<Value>(row) * 37) % 500;
    learned->Add(row, key);
    reference->Add(row, key);
  }
  learned->Stabilize(2000);  // Rows 2000..2999 stay in the mutable tail.
  for (Value key = -3; key <= 502; ++key) {
    EXPECT_EQ(Collect(learned->Probe(key)), Collect(reference->Probe(key)))
        << "key " << key;
    std::vector<RowId> got, want;
    ASSERT_TRUE(learned->ProbeRange(key, key + 7, &got).ok());
    ASSERT_TRUE(reference->ProbeRange(key, key + 7, &want).ok());
    EXPECT_EQ(got, want) << "range from " << key;
  }
}

TEST(LearnedIndexTest, StabilizeRefitsTheModel) {
  LearnedIndex index(0);
  for (RowId row = 0; row < 1000; ++row) index.AddFast(row, row * 2);
  index.Stabilize(1000);
  size_t predicted = 0;
  EXPECT_TRUE(index.PredictPosition(1998, &predicted));
  // Keys beyond the trained range are out of model: probes must still
  // answer (via the tail / fallback), prediction must refuse.
  EXPECT_FALSE(index.PredictPosition(5000, &predicted));
  for (RowId row = 1000; row < 2000; ++row) index.AddFast(row, 3000 + row);
  EXPECT_EQ(index.Probe(4500).size(), 1u);  // Tail probe before refit.
  index.Stabilize(2000);
  // The refit model now covers the merged key space.
  EXPECT_TRUE(index.PredictPosition(4999, &predicted));
  EXPECT_EQ(index.Probe(4500).size(), 1u);
  EXPECT_EQ(index.Probe(1998).size(), 1u);
  // A no-op Stabilize (same limit) keeps the model intact.
  index.Stabilize(2000);
  EXPECT_TRUE(index.PredictPosition(4999, &predicted));
}

}  // namespace
}  // namespace carac::storage
