// Durable snapshots + fact-log recovery. Three properties are pinned:
//
//   1. Round trip: a snapshot written at fixpoint and opened in a fresh
//      process must reproduce SortedRows byte-identical to the committed
//      goldens — across push/pull engines, 1/2/4 threads and the JIT —
//      and the loaded database must accept further Update() epochs that
//      stay byte-identical to a run that never persisted.
//   2. Crash recovery: for EVERY truncation point of the fact log,
//      recovery replays exactly the committed epoch prefix; for every
//      single-byte corruption under a checksum, recovery either still
//      replays a committed prefix or fails with a diagnostic Status.
//      Never a partial epoch, never a crash.
//   3. Contract: misuse and unreadable/foreign files are Status, not UB.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "core/engine.h"
#include "datalog/dsl.h"
#include "storage/factlog.h"
#include "storage/snapshot.h"
#include "util/hash.h"

#ifndef CARAC_GOLDEN_DIR
#error "CARAC_GOLDEN_DIR must point at tests/goldens"
#endif

namespace carac {
namespace {

using datalog::Dsl;
using datalog::Program;
using storage::Tuple;

std::string Render(const std::vector<Tuple>& rows) {
  std::ostringstream out;
  for (const Tuple& t : rows) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << '\t';
      out << t[i];
    }
    out << '\n';
  }
  return out.str();
}

std::string ReadGolden(const std::string& name) {
  const std::string path =
      std::string(CARAC_GOLDEN_DIR) + "/" + name + ".golden";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// Fresh scratch directory under the test temp root.
std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("carac_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// ---- Round trip pinned to the committed goldens ----

/// Saves a tc run at fixpoint-minus-two-batches, restores it under
/// `config` in a fresh program, applies the remaining batches through
/// Update(), and requires the final rows to be byte-identical to the
/// SAME golden the never-persisted incremental and one-shot suites pin.
void CheckTcPersistedUpdate(
    const core::EngineConfig& base_config,
    const std::function<void(analysis::Workload&)>& customize = {}) {
  const auto edges = analysis::GenerateSparseGraph(
      /*seed=*/11, /*num_vertices=*/300, /*num_edges=*/900, /*zipf_s=*/1.1);
  const size_t delta = edges.size() / 100;
  const size_t initial = edges.size() - delta * 2;
  const std::vector<analysis::Edge> head(edges.begin(),
                                         edges.begin() + initial);

  const std::string dir = ScratchDir("tc_roundtrip");
  core::EngineConfig config = base_config;
  config.snapshot_dir = dir;

  // First life: full run over the head, one update batch, then a
  // checkpoint followed by one LOGGED batch — so recovery exercises
  // both the snapshot and the log tail.
  {
    analysis::Workload w = analysis::MakeTransitiveClosure(
        head, analysis::RuleOrder::kHandOptimized);
    if (customize) customize(w);
    core::Engine engine(w.program.get(), config);
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    CARAC_CHECK_OK(engine.Checkpoint());

    const datalog::PredicateId edge = w.relations.at("Edge");
    std::vector<Tuple> batch;
    for (size_t i = initial; i < initial + delta; ++i) {
      batch.push_back({edges[i].first, edges[i].second});
    }
    CARAC_CHECK_OK(engine.AddFacts(edge, batch));
    CARAC_CHECK_OK(engine.Update());
  }

  // Second life: re-parse the program source (same head facts), restore
  // snapshot + log, then absorb the final batch incrementally.
  analysis::Workload w = analysis::MakeTransitiveClosure(
      head, analysis::RuleOrder::kHandOptimized);
  if (customize) customize(w);
  core::Engine engine(w.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  core::RestoreInfo info;
  CARAC_CHECK_OK(engine.Restore(&info));
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.snapshot_epoch, 1u);
  EXPECT_EQ(info.epochs_replayed, 1u);

  const datalog::PredicateId edge = w.relations.at("Edge");
  std::vector<Tuple> batch;
  for (size_t i = initial + delta; i < edges.size(); ++i) {
    batch.push_back({edges[i].first, edges[i].second});
  }
  CARAC_CHECK_OK(engine.AddFacts(edge, batch));
  core::EpochReport report;
  CARAC_CHECK_OK(engine.Update(&report));
  EXPECT_FALSE(report.full);  // The restored engine continues incrementally.
  EXPECT_EQ(Render(engine.Results(w.output)), ReadGolden("tc"));
}

TEST(PersistenceGoldenTest, TcPushEngine) {
  CheckTcPersistedUpdate(core::EngineConfig{});
}

TEST(PersistenceGoldenTest, TcPullEngine) {
  core::EngineConfig config;
  config.engine_style = ir::EngineStyle::kPull;
  CheckTcPersistedUpdate(config);
}

TEST(PersistenceGoldenTest, TcParallel) {
  for (int threads : {2, 4}) {
    core::EngineConfig config;
    config.num_threads = threads;
    config.parallel_min_outer_rows = 1;
    CheckTcPersistedUpdate(config);
  }
}

TEST(PersistenceGoldenTest, TcJitBytecode) {
  core::EngineConfig config;
  config.mode = core::EvalMode::kJit;
  config.jit.backend = backends::BackendKind::kBytecode;
  CheckTcPersistedUpdate(config);
}

TEST(PersistenceGoldenTest, Andersen) {
  analysis::SListConfig slist;
  slist.scale = 2;

  // Split every relation's facts: all but ~1% pre-persistence, the tail
  // applied after restore (mirrors incremental_test's Andersen split).
  analysis::Workload setup =
      analysis::MakeAndersen(slist, analysis::RuleOrder::kHandOptimized);
  storage::DatabaseSet& setup_db = setup.program->db();
  std::vector<std::vector<Tuple>> initial(setup_db.NumRelations());
  std::vector<std::vector<Tuple>> tail(setup_db.NumRelations());
  for (storage::RelationId id = 0; id < setup_db.NumRelations(); ++id) {
    const storage::Relation& rel = setup_db.Get(id, storage::DbKind::kDerived);
    const size_t rows = rel.NumRows();
    const size_t tail_n = rows >= 10 ? std::max<size_t>(1, rows / 100) : 0;
    for (storage::RowId row = 0; row < rows; ++row) {
      (row < rows - tail_n ? initial : tail)[id].push_back(
          rel.View(row).ToTuple());
    }
    setup_db.ClearFacts(id);
  }

  const std::string dir = ScratchDir("andersen_roundtrip");
  core::EngineConfig config;
  config.snapshot_dir = dir;
  {
    core::Engine engine(setup.program.get(), config);
    for (storage::RelationId id = 0; id < setup_db.NumRelations(); ++id) {
      CARAC_CHECK_OK(engine.AddFacts(id, initial[id]));
    }
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    CARAC_CHECK_OK(engine.Checkpoint());
  }

  // Fresh program: construction loads the FULL fact set, which the
  // snapshot must replace wholesale (it captures the head-only state).
  analysis::Workload w =
      analysis::MakeAndersen(slist, analysis::RuleOrder::kHandOptimized);
  core::Engine engine(w.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  core::RestoreInfo info;
  CARAC_CHECK_OK(engine.Restore(&info));
  EXPECT_TRUE(info.snapshot_loaded);

  size_t tail_total = 0;
  for (storage::RelationId id = 0; id < w.program->db().NumRelations();
       ++id) {
    CARAC_CHECK_OK(engine.AddFacts(id, tail[id]));
    tail_total += tail[id].size();
  }
  ASSERT_GT(tail_total, 0u);
  core::EpochReport report;
  CARAC_CHECK_OK(engine.Update(&report));
  EXPECT_FALSE(report.full);
  EXPECT_EQ(Render(engine.Results(w.output)), ReadGolden("andersen"));
}

// ---- Interned symbols survive save, log replay and further interning ----

TEST(PersistenceSymbolTest, SymbolsRoundTripThroughSnapshotAndLog) {
  auto build = [](Program* p, datalog::PredicateId* edge_out,
                  datalog::PredicateId* path_out) {
    Dsl dsl(p);
    auto edge = dsl.Relation("Edge", 2);
    auto path = dsl.Relation("Path", 2);
    auto [x, y, z] = dsl.Vars<3>();
    path(x, y) <<= edge(x, y);
    path(x, z) <<= path(x, y) & edge(y, z);
    p->AddFact(edge.id(), {p->Intern("alpha"), p->Intern("beta")});
    *edge_out = edge.id();
    *path_out = path.id();
  };

  const std::string dir = ScratchDir("symbols");
  core::EngineConfig config;
  config.snapshot_dir = dir;
  datalog::PredicateId edge = 0;
  datalog::PredicateId path = 0;

  // Life 1: evaluate the source facts; the epoch commits to the log
  // (no snapshot yet).
  {
    Program p;
    build(&p, &edge, &path);
    core::Engine engine(&p, config);
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
  }

  // Life 2: recover (log-only replay), then add facts that intern NEW
  // symbols — they must travel through the log's symbol records.
  std::vector<Tuple> life2_results;
  {
    Program p;
    build(&p, &edge, &path);
    core::Engine engine(&p, config);
    CARAC_CHECK_OK(engine.Prepare());
    core::RestoreInfo info;
    CARAC_CHECK_OK(engine.Restore(&info));
    EXPECT_FALSE(info.snapshot_loaded);
    EXPECT_EQ(info.epochs_replayed, 1u);
    CARAC_CHECK_OK(engine.AddFacts(
        edge, {{p.Intern("beta"), p.Intern("gamma")}}));
    CARAC_CHECK_OK(engine.Update());
    life2_results = engine.Results(path);
    EXPECT_EQ(life2_results.size(), 3u);  // a-b, b-g, a-g.
  }

  // Life 3: recover again; the replay must re-intern "gamma" to the
  // identical id, making the rows byte-identical.
  {
    Program p;
    build(&p, &edge, &path);
    core::Engine engine(&p, config);
    CARAC_CHECK_OK(engine.Prepare());
    core::RestoreInfo info;
    CARAC_CHECK_OK(engine.Restore(&info));
    EXPECT_EQ(info.epochs_replayed, 2u);
    EXPECT_EQ(engine.Results(path), life2_results);
    EXPECT_EQ(p.db().symbols().Lookup(life2_results.back()[1]), "gamma");
  }
}

// ---- Crash-recovery matrix ----

/// Builds a serving run whose durable dir holds a snapshot at epoch 1
/// plus a log with three committed epochs (2, 3, 4), and records the
/// expected Path rows at every epoch boundary.
struct CrashFixture {
  std::string dir;
  std::vector<std::vector<Tuple>> models;  // models[e] = rows at epoch e.
  std::vector<unsigned char> log_bytes;
  storage::FactLog::ReplayResult intact;

  static void BuildProgram(Program* p, datalog::PredicateId* edge,
                           datalog::PredicateId* path) {
    Dsl dsl(p);
    auto e = dsl.Relation("Edge", 2);
    auto pa = dsl.Relation("Path", 2);
    auto [x, y, z] = dsl.Vars<3>();
    pa(x, y) <<= e(x, y);
    pa(x, z) <<= pa(x, y) & e(y, z);
    *edge = e.id();
    *path = pa.id();
  }

  explicit CrashFixture(const std::string& name) {
    dir = ScratchDir(name);
    core::EngineConfig config;
    config.snapshot_dir = dir;
    Program p;
    datalog::PredicateId edge = 0;
    datalog::PredicateId path = 0;
    BuildProgram(&p, &edge, &path);
    core::Engine engine(&p, config);
    CARAC_CHECK_OK(engine.AddFacts(edge, {{1, 2}, {2, 3}}));
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Update());  // Epoch 1 (full).
    CARAC_CHECK_OK(engine.Checkpoint());
    models.resize(5);
    models[1] = engine.Results(path);
    const std::vector<std::vector<Tuple>> batches = {
        {{3, 4}}, {{4, 5}}, {{5, 1}}};
    for (size_t b = 0; b < batches.size(); ++b) {
      CARAC_CHECK_OK(engine.AddFacts(edge, batches[b]));
      CARAC_CHECK_OK(engine.Update());  // Epochs 2, 3, 4.
      models[2 + b] = engine.Results(path);
    }
    log_bytes = ReadFileBytes(dir + "/factlog.bin");
    CARAC_CHECK_OK(
        storage::FactLog::Replay(dir + "/factlog.bin", &intact));
    CARAC_CHECK(intact.epochs.size() == 3);
  }

  /// Recovery attempt against the fixture's snapshot and `log` bytes.
  /// Returns the recovery Status; on success fills epoch + rows.
  util::Status Recover(const std::vector<unsigned char>& log,
                       uint64_t* epoch, std::vector<Tuple>* rows) {
    const std::string attempt = ScratchDir("crash_attempt");
    std::filesystem::copy_file(
        dir + "/snapshot.bin", attempt + "/snapshot.bin",
        std::filesystem::copy_options::overwrite_existing);
    WriteFileBytes(attempt + "/factlog.bin", log);
    core::EngineConfig config;
    config.snapshot_dir = attempt;
    Program p;
    datalog::PredicateId edge = 0;
    datalog::PredicateId path = 0;
    BuildProgram(&p, &edge, &path);
    core::Engine engine(&p, config);
    CARAC_CHECK_OK(engine.Prepare());
    util::Status status = engine.Restore();
    if (status.ok()) {
      *epoch = p.db().epoch();
      *rows = engine.Results(path);
    }
    return status;
  }
};

TEST(CrashRecoveryTest, EveryLogTruncationRecoversTheCommittedPrefix) {
  CrashFixture fx("crash_truncate");
  // Committed epochs whose commit record survives a truncation to T.
  auto committed_at = [&](size_t t) {
    uint64_t epoch = 1;  // The snapshot's epoch.
    for (const auto& e : fx.intact.epochs) {
      if (e.end_offset <= t) epoch = e.epoch;
    }
    return epoch;
  };
  for (size_t t = 0; t <= fx.log_bytes.size(); ++t) {
    std::vector<unsigned char> log(fx.log_bytes.begin(),
                                   fx.log_bytes.begin() + t);
    uint64_t epoch = 0;
    std::vector<Tuple> rows;
    util::Status status = fx.Recover(log, &epoch, &rows);
    ASSERT_TRUE(status.ok())
        << "truncation at byte " << t << ": " << status.ToString();
    EXPECT_EQ(epoch, committed_at(t)) << "truncation at byte " << t;
    EXPECT_EQ(rows, fx.models[epoch]) << "truncation at byte " << t;
  }
}

TEST(CrashRecoveryTest, EveryLogBitFlipIsPrefixOrDiagnostic) {
  CrashFixture fx("crash_flip");
  size_t diagnostics = 0;
  for (size_t i = 0; i < fx.log_bytes.size(); ++i) {
    std::vector<unsigned char> log = fx.log_bytes;
    log[i] ^= 0x01;
    uint64_t epoch = 0;
    std::vector<Tuple> rows;
    util::Status status = fx.Recover(log, &epoch, &rows);
    if (!status.ok()) {
      ++diagnostics;
      continue;  // Diagnostic refusal is a permitted outcome.
    }
    // The other permitted outcome: a committed prefix — the state at
    // SOME epoch boundary, never between two.
    ASSERT_GE(epoch, 1u) << "flip at byte " << i;
    ASSERT_LE(epoch, 4u) << "flip at byte " << i;
    EXPECT_EQ(rows, fx.models[epoch]) << "flip at byte " << i;
  }
  // The checksums must actually be engaging.
  EXPECT_GT(diagnostics, fx.log_bytes.size() / 2);
}

TEST(CrashRecoveryTest, EverySnapshotBitFlipIsRejected) {
  CrashFixture fx("crash_snapflip");
  const std::vector<unsigned char> snap =
      ReadFileBytes(fx.dir + "/snapshot.bin");
  const std::string attempt = ScratchDir("snapflip_attempt");
  for (size_t i = 0; i < snap.size(); ++i) {
    std::vector<unsigned char> bytes = snap;
    bytes[i] ^= 0x01;
    WriteFileBytes(attempt + "/snapshot.bin", bytes);
    storage::DatabaseSet db;
    util::Status status = db.OpenSnapshot(attempt + "/snapshot.bin");
    EXPECT_FALSE(status.ok()) << "flip at byte " << i << " went undetected";
  }
}

TEST(CrashRecoveryTest, TornTailIsDiscardedAndTruncated) {
  CrashFixture fx("crash_torn");
  // Append a half-written record: a valid-looking tag + oversized length.
  std::vector<unsigned char> log = fx.log_bytes;
  log.push_back(1);  // kBatch tag.
  log.push_back(0xFF);
  log.push_back(0xFF);
  uint64_t epoch = 0;
  std::vector<Tuple> rows;
  CARAC_CHECK_OK(fx.Recover(log, &epoch, &rows));
  EXPECT_EQ(epoch, 4u);
  EXPECT_EQ(rows, fx.models[4]);
  // Recover() used a scratch dir; verify the truncation side effect via
  // Engine::Restore's info on a dedicated copy.
  const std::string attempt = ScratchDir("torn_attempt");
  std::filesystem::copy_file(
      fx.dir + "/snapshot.bin", attempt + "/snapshot.bin",
      std::filesystem::copy_options::overwrite_existing);
  WriteFileBytes(attempt + "/factlog.bin", log);
  Program p;
  datalog::PredicateId edge = 0;
  datalog::PredicateId path = 0;
  CrashFixture::BuildProgram(&p, &edge, &path);
  core::EngineConfig config;
  config.snapshot_dir = attempt;
  core::Engine engine(&p, config);
  CARAC_CHECK_OK(engine.Prepare());
  core::RestoreInfo info;
  CARAC_CHECK_OK(engine.Restore(&info));
  EXPECT_TRUE(info.log_tail_discarded);
  EXPECT_EQ(std::filesystem::file_size(attempt + "/factlog.bin"),
            fx.log_bytes.size());
}

// ---- Forged counts: a count that would size an allocation is checked
// against the bytes that remain before anything is reserved. A checksum
// only catches damage (FNV-1a is easy to recompute), so each case below
// must end in a diagnostic Status, never in std::bad_alloc. ----

uint32_t GetU32At(const std::vector<unsigned char>& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

void PutLE(std::vector<unsigned char>* bytes, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) bytes->push_back((v >> (8 * i)) & 0xFF);
}

/// Offsets of the first relation's u32 index_count and edb_count in a
/// snapshot (layout: snapshot.cc DatabaseSet::SaveSnapshot).
struct FirstRelationOffsets {
  size_t index_count = 0;
  size_t edb_count = 0;
};

FirstRelationOffsets LocateFirstRelation(
    const std::vector<unsigned char>& snap) {
  // Header: magic, version u32, relations u32, epoch u64, symbols u64,
  // then its checksum.
  size_t at = 8 + 4 + 4 + 8;
  uint64_t num_symbols = 0;
  for (int i = 0; i < 8; ++i) {
    num_symbols |= static_cast<uint64_t>(snap[at + i]) << (8 * i);
  }
  at += 8 + 8;
  for (uint64_t i = 0; i < num_symbols; ++i) at += 4 + GetU32At(snap, at);
  at += 8;  // Symbol section checksum.
  at += 4 + GetU32At(snap, at);  // Relation name.
  const uint32_t arity = GetU32At(snap, at);
  const uint32_t num_rows = GetU32At(snap, at + 4);
  FirstRelationOffsets out;
  out.index_count = at + 12;  // After arity, num_rows, watermark.
  const uint32_t index_count = GetU32At(snap, out.index_count);
  out.edb_count = out.index_count + 4 + 5 * static_cast<size_t>(index_count) +
                  static_cast<size_t>(num_rows) * arity * 8;
  return out;
}

util::Status OpenSnapshotBytes(const std::vector<unsigned char>& bytes) {
  const std::string path = ScratchDir("forged_snapshot") + "/snapshot.bin";
  WriteFileBytes(path, bytes);
  storage::DatabaseSet db;
  return db.OpenSnapshot(path);
}

TEST(CorruptCountTest, SnapshotIndexCountHighByteIsDiagnostic) {
  CrashFixture fx("count_index");
  std::vector<unsigned char> snap = ReadFileBytes(fx.dir + "/snapshot.bin");
  const FirstRelationOffsets at = LocateFirstRelation(snap);
  ASSERT_GT(GetU32At(snap, at.index_count), 0u);  // Edge has a join index.
  snap[at.index_count + 3] = 0xF0;
  util::Status status = OpenSnapshotBytes(snap);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST(CorruptCountTest, SnapshotEdbCountHighByteIsDiagnostic) {
  CrashFixture fx("count_edb");
  std::vector<unsigned char> snap = ReadFileBytes(fx.dir + "/snapshot.bin");
  const FirstRelationOffsets at = LocateFirstRelation(snap);
  ASSERT_EQ(GetU32At(snap, at.edb_count), 2u);  // Edge(1,2), Edge(2,3).
  snap[at.edb_count + 3] = 0xF0;
  util::Status status = OpenSnapshotBytes(snap);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST(CorruptCountTest, ForgedHeaderSymbolCountIsDiagnostic) {
  CrashFixture fx("count_symbols");
  std::vector<unsigned char> snap = ReadFileBytes(fx.dir + "/snapshot.bin");
  // Claim 2^40 symbols and recompute the header checksum to match.
  constexpr size_t kSymbolsAt = 8 + 4 + 4 + 8;
  std::vector<unsigned char> header(snap.begin(), snap.begin() + kSymbolsAt);
  PutLE(&header, uint64_t{1} << 40, 8);
  PutLE(&header, util::HashBytes(header.data(), header.size()), 8);
  std::copy(header.begin(), header.end(), snap.begin());
  util::Status status = OpenSnapshotBytes(snap);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("symbol count"), std::string::npos)
      << status.ToString();
}

/// One fact-log record (tag, u32 length, payload, checksum over all
/// three; layout: factlog.cc) with a valid checksum.
void AppendLogRecord(std::vector<unsigned char>* log, uint8_t tag,
                     const std::vector<unsigned char>& payload) {
  const size_t start = log->size();
  log->push_back(tag);
  PutLE(log, payload.size(), 4);
  log->insert(log->end(), payload.begin(), payload.end());
  PutLE(log, util::HashBytes(log->data() + start, log->size() - start), 8);
}

/// The fixture's log plus one forged batch record for Edge with the given
/// arity and count and no fact bytes, sealed as epoch 5.
std::vector<unsigned char> LogWithForgedBatch(const CrashFixture& fx,
                                              uint32_t arity, uint32_t count) {
  constexpr uint8_t kBatchTag = 1;
  constexpr uint8_t kCommitTag = 3;
  std::vector<unsigned char> log = fx.log_bytes;
  std::vector<unsigned char> batch;
  PutLE(&batch, /*relation=*/0, 4);
  PutLE(&batch, arity, 4);
  PutLE(&batch, count, 4);
  AppendLogRecord(&log, kBatchTag, batch);
  std::vector<unsigned char> commit;
  PutLE(&commit, /*epoch=*/5, 8);
  AppendLogRecord(&log, kCommitTag, commit);
  return log;
}

TEST(CorruptCountTest, ZeroArityBatchWithHugeCountReplaysOneFact) {
  CrashFixture fx("count_nullary");
  const std::vector<unsigned char> log =
      LogWithForgedBatch(fx, /*arity=*/0, /*count=*/0xFFFFFFFFu);
  const std::string path = ScratchDir("nullary_log") + "/factlog.bin";
  WriteFileBytes(path, log);
  storage::FactLog::ReplayResult replay;
  CARAC_CHECK_OK(storage::FactLog::Replay(path, &replay));
  ASSERT_EQ(replay.epochs.size(), 4u);
  ASSERT_EQ(replay.epochs.back().batches.size(), 1u);
  // Every zero-arity fact is the one empty tuple; replay keeps it once.
  EXPECT_EQ(replay.epochs.back().batches[0].facts,
            std::vector<Tuple>{Tuple{}});
  // Edge has arity 2, so recovery refuses the batch with a diagnostic.
  uint64_t epoch = 0;
  std::vector<Tuple> rows;
  util::Status status = fx.Recover(log, &epoch, &rows);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rejected"), std::string::npos)
      << status.ToString();
}

TEST(CorruptCountTest, BatchSizeThatWrapsIsDiagnostic) {
  CrashFixture fx("count_wrap");
  // count * arity * 8 == 2^64, which wraps to the empty payload's 0.
  const std::vector<unsigned char> log =
      LogWithForgedBatch(fx, /*arity=*/1u << 30, /*count=*/1u << 31);
  const std::string path = ScratchDir("wrap_log") + "/factlog.bin";
  WriteFileBytes(path, log);
  storage::FactLog::ReplayResult replay;
  util::Status status = storage::FactLog::Replay(path, &replay);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("malformed batch record"),
            std::string::npos)
      << status.ToString();
}

// ---- Auto-checkpoint cadence ----

TEST(PersistenceLifecycleTest, AutoCheckpointEveryNEpochs) {
  const std::string dir = ScratchDir("auto_checkpoint");
  core::EngineConfig config;
  config.snapshot_dir = dir;
  config.checkpoint_every = 2;
  Program p;
  datalog::PredicateId edge = 0;
  datalog::PredicateId path = 0;
  CrashFixture::BuildProgram(&p, &edge, &path);
  core::Engine engine(&p, config);
  CARAC_CHECK_OK(engine.AddFacts(edge, {{1, 2}}));
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Update());  // Epoch 1.
  EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot.bin"));
  CARAC_CHECK_OK(engine.AddFacts(edge, {{2, 3}}));
  CARAC_CHECK_OK(engine.Update());  // Epoch 2: auto-checkpoint fires.
  EXPECT_TRUE(std::filesystem::exists(dir + "/snapshot.bin"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/factlog.bin"));
  CARAC_CHECK_OK(engine.AddFacts(edge, {{3, 4}}));
  CARAC_CHECK_OK(engine.Update());  // Epoch 3: log restarts.
  EXPECT_TRUE(std::filesystem::exists(dir + "/factlog.bin"));

  Program p2;
  CrashFixture::BuildProgram(&p2, &edge, &path);
  core::Engine engine2(&p2, config);
  CARAC_CHECK_OK(engine2.Prepare());
  core::RestoreInfo info;
  CARAC_CHECK_OK(engine2.Restore(&info));
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.snapshot_epoch, 2u);
  EXPECT_EQ(info.epochs_replayed, 1u);
  EXPECT_EQ(engine2.Results(path), engine.Results(path));
}

TEST(PersistenceLifecycleTest, RestoreDropsUncommittedBatches) {
  // A batch appended but never sealed by an epoch commit must vanish
  // from BOTH memory and the log when Restore() rewinds the engine —
  // the live append handle must not seal buffered pre-restore records
  // into a later epoch whose facts the engine no longer holds.
  const std::string dir = ScratchDir("uncommitted");
  core::EngineConfig config;
  config.snapshot_dir = dir;
  Program p;
  datalog::PredicateId edge = 0;
  datalog::PredicateId path = 0;
  CrashFixture::BuildProgram(&p, &edge, &path);
  core::Engine engine(&p, config);
  CARAC_CHECK_OK(engine.AddFacts(edge, {{1, 2}}));
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Update());  // Epoch 1.
  CARAC_CHECK_OK(engine.Checkpoint());
  const auto at_checkpoint = engine.Results(path);

  // Logged but never committed: Restore must rewind past it.
  CARAC_CHECK_OK(engine.AddFacts(edge, {{2, 3}}));
  core::RestoreInfo info;
  CARAC_CHECK_OK(engine.Restore(&info));
  EXPECT_EQ(info.snapshot_epoch, 1u);
  EXPECT_EQ(info.epochs_replayed, 0u);
  EXPECT_EQ(engine.Results(path), at_checkpoint);

  // Epoch 2, sealed after the restore: it must NOT resurrect {2, 3}.
  CARAC_CHECK_OK(engine.AddFacts(edge, {{9, 10}}));
  CARAC_CHECK_OK(engine.Update());
  const auto final_rows = engine.Results(path);
  EXPECT_EQ(engine.Results(edge),
            (std::vector<Tuple>{{1, 2}, {9, 10}}));

  Program p2;
  CrashFixture::BuildProgram(&p2, &edge, &path);
  core::Engine engine2(&p2, config);
  CARAC_CHECK_OK(engine2.Prepare());
  CARAC_CHECK_OK(engine2.Restore(&info));
  EXPECT_EQ(info.epochs_replayed, 1u);
  EXPECT_EQ(engine2.Results(path), final_rows);
  EXPECT_EQ(engine2.Results(edge),
            (std::vector<Tuple>{{1, 2}, {9, 10}}));
}

TEST(PersistenceLifecycleTest, FailedLogAppendInsertsNothing) {
  // Log-before-insert: when the batch cannot reach the fact log (here:
  // snapshot_dir names a regular file, so the directory cannot be
  // created), AddFacts must apply nothing — memory and durable state
  // stay agreed, just stale.
  const std::string dir = ScratchDir("log_fail");
  const std::string blocker = dir + "/blocker";
  WriteFileBytes(blocker, {'x'});
  Program p;
  datalog::PredicateId edge = 0;
  datalog::PredicateId path = 0;
  CrashFixture::BuildProgram(&p, &edge, &path);
  core::EngineConfig config;
  config.snapshot_dir = blocker;
  core::Engine engine(&p, config);
  util::Status status = engine.AddFacts(edge, {{1, 2}});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(p.db().Get(edge, storage::DbKind::kDerived).size(), 0u);
}

// ---- Contract: misuse and foreign input are Status, not UB ----

TEST(PersistenceContractTest, OpenSnapshotMissingFileIsNotFound) {
  storage::DatabaseSet db;
  util::Status status = db.OpenSnapshot(ScratchDir("missing") + "/nope.bin");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(PersistenceContractTest, OpenSnapshotIntoEmptySetAdoptsSchema) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  edge.Fact(1, 2);
  edge.Fact(2, 3);
  const std::string path = ScratchDir("adopt") + "/snapshot.bin";
  CARAC_CHECK_OK(p.db().SaveSnapshot(path));

  storage::DatabaseSet db;
  CARAC_CHECK_OK(db.OpenSnapshot(path));
  ASSERT_EQ(db.NumRelations(), 1u);
  EXPECT_EQ(db.RelationName(0), "Edge");
  EXPECT_EQ(db.RelationArity(0), 2u);
  EXPECT_EQ(db.Get(0, storage::DbKind::kDerived).SortedRows(),
            (std::vector<Tuple>{{1, 2}, {2, 3}}));
}

TEST(PersistenceContractTest, MixedIndexKindsSurviveSaveOpenByteIdentically) {
  // A database whose indexes use different organizations per column must
  // come back with exactly those kinds — even when the opening engine
  // declared different ones — and a re-save of the restored state must
  // reproduce the snapshot byte for byte.
  using storage::IndexKind;
  const std::string dir = ScratchDir("mixed_kinds");
  const std::string path = dir + "/snapshot.bin";
  {
    storage::DatabaseSet db;
    const storage::RelationId edge = db.AddRelation("Edge", 2);
    const storage::RelationId cost = db.AddRelation("Cost", 2);
    db.DeclareIndex(edge, 0, IndexKind::kHash);
    db.DeclareIndex(edge, 1, IndexKind::kBtree);
    db.DeclareIndex(cost, 1, IndexKind::kSortedArray);
    for (int64_t i = 0; i < 50; ++i) {
      db.Get(edge, storage::DbKind::kDerived).Insert({i, i % 7});
      db.Get(cost, storage::DbKind::kDerived).Insert({i, i * 3});
    }
    db.Get(edge, storage::DbKind::kDerived).AdvanceWatermark();
    CARAC_CHECK_OK(db.SaveSnapshot(path));
  }

  storage::DatabaseSet db;
  db.AddRelation("Edge", 2);
  db.AddRelation("Cost", 2);
  // The opening engine chose differently; the persisted kinds must win.
  db.DeclareIndex(0, 1, IndexKind::kHash);
  db.DeclareIndex(1, 1, IndexKind::kSorted);
  CARAC_CHECK_OK(db.OpenSnapshot(path));
  const storage::Relation& edge = db.Get(0, storage::DbKind::kDerived);
  const storage::Relation& cost = db.Get(1, storage::DbKind::kDerived);
  EXPECT_EQ(edge.IndexKindOf(0), IndexKind::kHash);
  EXPECT_EQ(edge.IndexKindOf(1), IndexKind::kBtree);
  EXPECT_EQ(cost.IndexKindOf(1), IndexKind::kSortedArray);
  // The restored indexes actually work over the restored contents.
  EXPECT_EQ(edge.Probe(1, 3).size(), 7u);
  std::vector<storage::RowId> rows;
  CARAC_CHECK_OK(cost.ProbeRange(1, 30, 60, &rows));
  EXPECT_EQ(rows.size(), 11u);  // Costs 30, 33, ..., 60.

  const std::string resaved = dir + "/resaved.bin";
  CARAC_CHECK_OK(db.SaveSnapshot(resaved));
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(resaved));
}

TEST(PersistenceContractTest, AdoptedSnapshotCarriesIndexKinds) {
  // Opening into an EMPTY set adopts the schema — index declarations
  // included, so a snapshot-only restart probes exactly like the saved
  // process did.
  using storage::IndexKind;
  const std::string path = ScratchDir("adopt_kinds") + "/snapshot.bin";
  {
    storage::DatabaseSet db;
    const storage::RelationId r = db.AddRelation("R", 2);
    db.DeclareIndex(r, 0, IndexKind::kBtree);
    for (int64_t i = 0; i < 10; ++i) {
      db.Get(r, storage::DbKind::kDerived).Insert({i % 3, i});
    }
    CARAC_CHECK_OK(db.SaveSnapshot(path));
  }
  storage::DatabaseSet db;
  CARAC_CHECK_OK(db.OpenSnapshot(path));
  const storage::Relation& r = db.Get(0, storage::DbKind::kDerived);
  ASSERT_TRUE(r.HasIndex(0));
  EXPECT_EQ(r.IndexKindOf(0), IndexKind::kBtree);
  EXPECT_EQ(r.Probe(0, 0).size(), 4u);  // Keys 0: rows 0, 3, 6, 9.
}

TEST(PersistenceGoldenTest, TcMixedKindsViaHints) {
  // End-to-end: per-column hints give the engine mixed-kind indexes; the
  // persisted run and the restored run pin the SAME golden as the
  // all-hash suites, and restore keeps the hinted kinds.
  CheckTcPersistedUpdate(core::EngineConfig{}, [](analysis::Workload& w) {
    w.program->HintIndexKind(w.relations.at("Edge"), 0,
                             storage::IndexKind::kBtree);
    w.program->HintIndexKind(w.relations.at("Path"), 1,
                             storage::IndexKind::kSortedArray);
  });
}

TEST(PersistenceContractTest, OpenSnapshotSchemaMismatchIsDiagnostic) {
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  edge.Fact(1, 2);
  const std::string path = ScratchDir("mismatch") + "/snapshot.bin";
  CARAC_CHECK_OK(p.db().SaveSnapshot(path));

  Program other;
  Dsl other_dsl(&other);
  other_dsl.Relation("Different", 3);
  util::Status status = other.db().OpenSnapshot(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("schema mismatch"), std::string::npos)
      << status.ToString();
}

TEST(PersistenceContractTest, SnapshotSymbolMismatchIsDiagnostic) {
  // Same schema, different parse-time string constants: the snapshot's
  // symbol table cannot serve an AST whose ids were interned against
  // other strings — silent remapping would change what every string
  // constant means.
  Program p;
  Dsl dsl(&p);
  auto edge = dsl.Relation("Edge", 2);
  p.AddFact(edge.id(), {p.Intern("alpha"), p.Intern("beta")});
  const std::string path = ScratchDir("sym_mismatch") + "/snapshot.bin";
  CARAC_CHECK_OK(p.db().SaveSnapshot(path));

  Program other;
  Dsl other_dsl(&other);
  auto other_edge = other_dsl.Relation("Edge", 2);
  other.AddFact(other_edge.id(),
                {other.Intern("omega"), other.Intern("beta")});
  util::Status status = other.db().OpenSnapshot(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("different program"), std::string::npos)
      << status.ToString();
}

TEST(PersistenceContractTest, RestoreWithUncommittedBatchesNeedsSnapshot) {
  // No snapshot to rewind to + batches applied but never sealed by an
  // epoch commit: Restore must refuse rather than truncate the unsealed
  // records out from under the in-memory facts.
  Program p;
  datalog::PredicateId edge = 0;
  datalog::PredicateId path = 0;
  CrashFixture::BuildProgram(&p, &edge, &path);
  core::EngineConfig config;
  config.snapshot_dir = ScratchDir("uncommitted_nosnap");
  core::Engine engine(&p, config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.AddFacts(edge, {{1, 2}}));
  util::Status status = engine.Restore();
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("uncommitted"), std::string::npos)
      << status.ToString();
  // The refusal must leave the engine exactly as if Restore had not
  // been called: sealing the batch works, Restore becomes legal, and —
  // crucially — a FRESH process recovers the batch (the refused
  // Restore must not have demoted its log record to discardable-tail).
  CARAC_CHECK_OK(engine.Update());
  CARAC_CHECK_OK(engine.Restore());
  EXPECT_EQ(engine.ResultSize(path), 1u);

  Program p2;
  CrashFixture::BuildProgram(&p2, &edge, &path);
  core::Engine engine2(&p2, config);
  CARAC_CHECK_OK(engine2.Prepare());
  CARAC_CHECK_OK(engine2.Restore());
  EXPECT_EQ(engine2.Results(path), (std::vector<Tuple>{{1, 2}}));
}

TEST(PersistenceContractTest, StaleEngineCannotAppendToNewerLog) {
  // Session 1 seals epoch 1 into the log. Session 2 skips Restore: its
  // epoch counter restarts at 0, so letting it append would re-use
  // epoch numbers replay then skips — durably acknowledged batches
  // would silently vanish. The append must refuse and point at
  // Restore; after Restore the session proceeds normally.
  const std::string dir = ScratchDir("stale_engine");
  core::EngineConfig config;
  config.snapshot_dir = dir;
  datalog::PredicateId edge = 0;
  datalog::PredicateId path = 0;
  {
    Program p;
    CrashFixture::BuildProgram(&p, &edge, &path);
    core::Engine engine(&p, config);
    CARAC_CHECK_OK(engine.AddFacts(edge, {{1, 2}}));
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Update());
  }
  Program p;
  CrashFixture::BuildProgram(&p, &edge, &path);
  core::Engine engine(&p, config);
  CARAC_CHECK_OK(engine.Prepare());
  util::Status status = engine.AddFacts(edge, {{2, 3}});
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("Restore"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(p.db().Get(edge, storage::DbKind::kDerived).size(), 0u);

  CARAC_CHECK_OK(engine.Restore());
  CARAC_CHECK_OK(engine.AddFacts(edge, {{2, 3}}));
  CARAC_CHECK_OK(engine.Update());
  EXPECT_EQ(engine.ResultSize(path), 3u);  // 1-2, 2-3, 1-3.
}

TEST(PersistenceContractTest, CheckpointWithoutDirIsFailedPrecondition) {
  Program p;
  Dsl dsl(&p);
  dsl.Relation("Edge", 2);
  core::Engine engine(&p, core::EngineConfig{});
  util::Status status = engine.Checkpoint();
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  status = engine.Restore();
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
}

TEST(PersistenceContractTest, RestoreBeforePrepareIsFailedPrecondition) {
  Program p;
  Dsl dsl(&p);
  dsl.Relation("Edge", 2);
  core::EngineConfig config;
  config.snapshot_dir = ScratchDir("unprepared");
  core::Engine engine(&p, config);
  util::Status status = engine.Restore();
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("Prepare"), std::string::npos);
}

TEST(PersistenceContractTest, RestoreWithNoDurableStateIsCleanNoOp) {
  Program p;
  datalog::PredicateId edge = 0;
  datalog::PredicateId path = 0;
  CrashFixture::BuildProgram(&p, &edge, &path);
  p.AddFact(edge, {1, 2});
  core::EngineConfig config;
  config.snapshot_dir = ScratchDir("empty_restore");
  core::Engine engine(&p, config);
  CARAC_CHECK_OK(engine.Prepare());
  core::RestoreInfo info;
  CARAC_CHECK_OK(engine.Restore(&info));
  EXPECT_FALSE(info.snapshot_loaded);
  EXPECT_EQ(info.epochs_replayed, 0u);
  CARAC_CHECK_OK(engine.Run());
  EXPECT_EQ(engine.ResultSize(path), 1u);
}

TEST(PersistenceContractTest, ReplayMissingLogIsNotFound) {
  storage::FactLog::ReplayResult replay;
  util::Status status = storage::FactLog::Replay(
      ScratchDir("no_log") + "/factlog.bin", &replay);
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(PersistenceContractTest, ForeignFileIsRejectedByBothReaders) {
  const std::string dir = ScratchDir("foreign");
  const std::string path = dir + "/junk.bin";
  std::ofstream(path) << "this is not a carac file, not even close......";
  storage::DatabaseSet db;
  EXPECT_FALSE(db.OpenSnapshot(path).ok());
  storage::FactLog::ReplayResult replay;
  EXPECT_FALSE(storage::FactLog::Replay(path, &replay).ok());
  std::unique_ptr<storage::FactLog> log;
  EXPECT_FALSE(storage::FactLog::OpenForAppend(path, &log).ok());
}

}  // namespace
}  // namespace carac
