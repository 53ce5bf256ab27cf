#include "backends/quotes_backend.h"

#include <dlfcn.h>
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/hash.h"
#include "util/status.h"

namespace carac::backends {

namespace {

using storage::Relation;
using storage::Value;

std::string QuotesScratchDir() {
  if (const char* dir = std::getenv("CARAC_QUOTES_DIR")) return dir;
  return "/tmp/carac_quotes";
}

std::string CompilerBinary() {
  if (const char* cxx = std::getenv("CARAC_CXX")) return cxx;
  return "c++";
}

uint64_t HashSource(const std::string& source) {
  uint64_t h = 0x9d5f01u;
  for (char c : source) {
    h = util::HashCombine(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  return h;
}

/// Process-wide cache of compiled shared objects keyed by source hash.
/// dlopen handles are intentionally never closed (units may outlive the
/// backend, and repeated dlopen of the same .so is refcounted anyway).
struct SourceCache {
  std::mutex mu;
  std::unordered_map<uint64_t, QuotesEntryFn> entries;
};

SourceCache& Cache() {
  static SourceCache* cache = new SourceCache();
  return *cache;
}

// ---- Runtime bridge: the rt pointer the generated code calls back on. ----

struct IterState {
  const Relation* rel = nullptr;
  bool probe = false;
  storage::RowCursor bucket;
  size_t bucket_pos = 0;
  storage::RowId row = 0;
};

struct RtBridge {
  ir::ExecContext* ctx;
  ir::Interpreter* interp;
  const QuotesPools* pools;
  std::vector<IterState> iters;
};

uint32_t RtScanOpen(void* rt, uint32_t pred, uint32_t db) {
  auto* bridge = static_cast<RtBridge*>(rt);
  const Relation& rel = bridge->ctx->db().Get(
      static_cast<datalog::PredicateId>(pred),
      static_cast<storage::DbKind>(db));
  IterState state;
  state.rel = &rel;
  state.probe = false;
  state.row = 0;
  bridge->iters.push_back(state);
  return static_cast<uint32_t>(bridge->iters.size() - 1);
}

uint32_t RtProbeOpen(void* rt, uint32_t pred, uint32_t db, uint32_t col,
                     int64_t value) {
  auto* bridge = static_cast<RtBridge*>(rt);
  const Relation& rel = bridge->ctx->db().Get(
      static_cast<datalog::PredicateId>(pred),
      static_cast<storage::DbKind>(db));
  if (!rel.HasIndex(col)) return RtScanOpen(rt, pred, db);
  IterState state;
  state.rel = &rel;
  state.probe = true;
  state.bucket = rel.Probe(col, value);
  state.bucket_pos = 0;
  bridge->iters.push_back(std::move(state));
  return static_cast<uint32_t>(bridge->iters.size() - 1);
}

const int64_t* RtIterNext(void* rt, uint32_t iter) {
  auto* bridge = static_cast<RtBridge*>(rt);
  IterState& state = bridge->iters[iter];
  if (state.probe) {
    if (state.bucket_pos >= state.bucket.size()) return nullptr;
    return state.rel->RowData(state.bucket[state.bucket_pos++]);
  }
  if (state.row >= state.rel->NumRows()) return nullptr;
  return state.rel->RowData(state.row++);
}

void RtIterClose(void* rt, uint32_t iter) {
  auto* bridge = static_cast<RtBridge*>(rt);
  // Generated loops nest strictly (LIFO).
  CARAC_CHECK(iter + 1 == bridge->iters.size());
  bridge->iters.pop_back();
}

int RtContains(void* rt, uint32_t pred, uint32_t db, const int64_t* row,
               uint32_t n) {
  auto* bridge = static_cast<RtBridge*>(rt);
  return bridge->ctx->db()
      .Get(static_cast<datalog::PredicateId>(pred),
           static_cast<storage::DbKind>(db))
      .Contains(storage::TupleView(row, n));
}

void RtInsert(void* rt, uint32_t pred, const int64_t* row, uint32_t n) {
  auto* bridge = static_cast<RtBridge*>(rt);
  const storage::TupleView tuple(row, n);
  auto& db = bridge->ctx->db();
  bridge->ctx->stats().tuples_considered++;
  const auto id = static_cast<datalog::PredicateId>(pred);
  if (db.Get(id, storage::DbKind::kDerived).Contains(tuple)) return;
  if (db.Get(id, storage::DbKind::kDeltaNew).Insert(tuple)) {
    bridge->ctx->stats().tuples_inserted++;
  }
}

void RtSwapClear(void* rt, uint32_t set_id) {
  auto* bridge = static_cast<RtBridge*>(rt);
  bridge->ctx->db().SwapClearMerge(bridge->pools->relation_sets[set_id]);
}

int RtAnyDelta(void* rt, uint32_t set_id) {
  auto* bridge = static_cast<RtBridge*>(rt);
  return bridge->ctx->db().AnyDeltaKnownNonEmpty(
      bridge->pools->relation_sets[set_id]);
}

void RtIterBump(void* rt) {
  static_cast<RtBridge*>(rt)->ctx->stats().iterations++;
}

void RtCallNode(void* rt, uint32_t node_index) {
  auto* bridge = static_cast<RtBridge*>(rt);
  bridge->interp->Execute(
      *const_cast<ir::IROp*>(bridge->pools->call_nodes[node_index]));
}

class QuotesUnit : public CompiledUnit {
 public:
  QuotesUnit(std::unique_ptr<ir::IROp> tree, QuotesPools pools,
             QuotesEntryFn entry, size_t source_bytes)
      : tree_(std::move(tree)), pools_(std::move(pools)), entry_(entry),
        source_bytes_(source_bytes) {}

  void Run(ir::ExecContext& ctx, ir::Interpreter& interp,
           ir::IROp& /*original*/) override {
    RtBridge bridge;
    bridge.ctx = &ctx;
    bridge.interp = &interp;
    bridge.pools = &pools_;
    CaracQuotesApi api;
    api.rt = &bridge;
    api.scan_open = &RtScanOpen;
    api.probe_open = &RtProbeOpen;
    api.iter_next = &RtIterNext;
    api.iter_close = &RtIterClose;
    api.contains = &RtContains;
    api.insert = &RtInsert;
    api.swap_clear = &RtSwapClear;
    api.any_delta = &RtAnyDelta;
    api.iter_bump = &RtIterBump;
    api.call_node = &RtCallNode;
    entry_(&api);
  }

  std::string Describe() const override {
    return "quotes[" + std::to_string(source_bytes_) + " source bytes]";
  }

 private:
  std::unique_ptr<ir::IROp> tree_;  // Owns nodes referenced by pools_.
  QuotesPools pools_;
  QuotesEntryFn entry_;
  size_t source_bytes_;
};

util::Status InvokeCompiler(const std::string& source_path,
                            const std::string& so_path,
                            const std::string& log_path) {
  std::ostringstream cmd;
  cmd << CompilerBinary() << " -O2 -fPIC -shared -o " << so_path << " "
      << source_path << " > " << log_path << " 2>&1";
  const int rc = std::system(cmd.str().c_str());
  if (rc != 0) {
    std::ifstream log(log_path);
    std::stringstream contents;
    contents << log.rdbuf();
    return util::Status::Internal("quotes compilation failed (rc=" +
                                  std::to_string(rc) + "): " +
                                  contents.str().substr(0, 2000));
  }
  return util::Status::Ok();
}

}  // namespace

void ClearQuotesCache() {
  std::lock_guard<std::mutex> lock(Cache().mu);
  Cache().entries.clear();
}

util::Status QuotesBackend::CompileOrdered(
    CompileRequest request, std::unique_ptr<CompiledUnit>* out) {
  QuotesPools pools;
  const std::string source = GenerateQuotesSource(
      *request.subtree, request.stats, request.mode, &pools);
  const uint64_t hash = HashSource(source);

  QuotesEntryFn entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(Cache().mu);
    auto it = Cache().entries.find(hash);
    if (it != Cache().entries.end()) entry = it->second;
  }
  last_cache_hit_ = entry != nullptr;

  if (entry == nullptr) {
    const std::string dir = QuotesScratchDir();
    ::mkdir(dir.c_str(), 0755);  // Best effort; failures surface below.
    const std::string stem = dir + "/q" + std::to_string(hash);
    const std::string source_path = stem + ".cc";
    const std::string so_path = stem + ".so";
    {
      std::ofstream file(source_path);
      if (!file) {
        return util::Status::Internal("cannot write " + source_path);
      }
      file << source;
    }
    CARAC_RETURN_IF_ERROR(
        InvokeCompiler(source_path, so_path, stem + ".log"));
    void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
      return util::Status::Internal(std::string("dlopen failed: ") +
                                    ::dlerror());
    }
    entry = reinterpret_cast<QuotesEntryFn>(
        ::dlsym(handle, kQuotesEntrySymbol));
    if (entry == nullptr) {
      return util::Status::Internal("entry symbol missing in " + so_path);
    }
    std::lock_guard<std::mutex> lock(Cache().mu);
    Cache().entries.emplace(hash, entry);
  }

  *out = std::make_unique<QuotesUnit>(std::move(request.subtree),
                                      std::move(pools), entry, source.size());
  return util::Status::Ok();
}

}  // namespace carac::backends
