#include "backends/quotes_backend.h"

#include <dlfcn.h>
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "backends/bytecode_backend.h"
#include "util/status.h"

namespace carac::backends {

namespace {

std::string QuotesScratchDir() {
  if (const char* dir = std::getenv("CARAC_QUOTES_DIR")) return dir;
  return "/tmp/carac_quotes";
}

std::string CompilerBinary() {
  if (const char* cxx = std::getenv("CARAC_CXX")) return cxx;
  return "c++";
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

// ---- The C-ABI thunks: each runs one method of the shared runtime. ----

BytecodeRuntime& Runtime(void* rt) {
  return *static_cast<BytecodeRuntime*>(rt);
}

constexpr CaracQuotesApi kThunks = {
    .rt = nullptr,
    .scan_open =
        [](void* rt, uint32_t iter, uint32_t pred, uint32_t window) {
          Runtime(rt).ScanOpen(iter, pred, window);
        },
    .probe_open =
        [](void* rt, uint32_t iter, uint32_t pred, uint32_t window,
           uint32_t col, int64_t key) {
          Runtime(rt).ProbeOpen(iter, pred, window, col, key);
        },
    .range_open =
        [](void* rt, uint32_t iter, uint32_t pred, uint32_t window,
           uint32_t col, uint32_t strict, int64_t lo, int64_t hi) {
          Runtime(rt).RangeOpen(iter, pred, window, col, lo, hi, strict);
        },
    .next = [](void* rt, uint32_t iter) { return Runtime(rt).Next(iter); },
    .contains =
        [](void* rt, uint32_t pred, uint32_t /*window*/, const int64_t* row,
           uint32_t n) -> int {
          return Runtime(rt).Contains(pred, storage::TupleView(row, n));
        },
    .spj_begin =
        [](void* rt, uint32_t pred) { Runtime(rt).SpjBegin(pred); },
    .emit = [](void* rt) { return Runtime(rt).EmitSlot(); },
    .spj_end = [](void* rt) { Runtime(rt).SpjEnd(); },
    .swap_clear = [](void* rt, uint32_t set) { Runtime(rt).SwapClear(set); },
    .any_delta = [](void* rt, uint32_t set) -> int {
      return Runtime(rt).AnyDelta(set);
    },
    .iter_bump = [](void* rt) { Runtime(rt).IterBump(); },
    .call_node = [](void* rt, uint32_t node) { Runtime(rt).CallNode(node); },
};

class QuotesUnit : public CompiledUnit {
 public:
  QuotesUnit(std::unique_ptr<ir::IROp> tree, BytecodeProgram program,
             QuotesEntryFn entry, size_t source_bytes)
      : tree_(std::move(tree)), program_(std::move(program)), entry_(entry),
        source_bytes_(source_bytes) {}

  void Run(ir::ExecContext& ctx, ir::Interpreter& interp,
           ir::IROp& /*original*/) override {
    BytecodeRuntime runtime(program_, ctx, interp);
    CaracQuotesApi api = kThunks;
    api.rt = &runtime;
    entry_(&api);
  }

  std::string Describe() const override {
    return "quotes[" + std::to_string(source_bytes_) + " source bytes]";
  }

 private:
  std::unique_ptr<ir::IROp> tree_;  // Owns the nodes call_nodes points into.
  BytecodeProgram program_;
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
  BytecodeProgram program =
      CompileToBytecode(*request.subtree, request.stats, request.mode);
  const std::string source = GenerateQuotesSource(program);
  const uint64_t hash = std::hash<std::string>{}(source);

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
                                      std::move(program), entry,
                                      source.size());
  return util::Status::Ok();
}

}  // namespace carac::backends
