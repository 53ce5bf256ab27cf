#ifndef CARAC_CORE_COMPILE_MANAGER_H_
#define CARAC_CORE_COMPILE_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "backends/backend.h"
#include "util/status.h"

namespace carac::core {

/// Owns compiled units keyed by IR node id and runs asynchronous
/// compilations on a dedicated compiler thread (§V-B2): the evaluator
/// enqueues a request and keeps interpreting; at each safe point it polls
/// GetReady() and switches to the compiled code once available.
class CompileManager {
 public:
  explicit CompileManager(backends::Backend* backend) : backend_(backend) {}
  CompileManager(const CompileManager&) = delete;
  CompileManager& operator=(const CompileManager&) = delete;
  ~CompileManager();

  /// Compiles on the calling thread ("blocking" mode); the unit is stored
  /// and also pointed to by GetReady() afterwards.
  util::Status CompileSync(uint32_t node_id,
                           backends::CompileRequest request);

  /// Enqueues a compilation on the compiler thread; no-op when the node is
  /// already pending. Returns immediately.
  void CompileAsync(uint32_t node_id, backends::CompileRequest request);

  /// The node's compiled unit, or nullptr if absent / still compiling.
  backends::CompiledUnit* GetReady(uint32_t node_id);

  bool IsPending(uint32_t node_id);

  /// Drops a node's unit (deoptimization / recompilation).
  void Invalidate(uint32_t node_id);

  /// Blocks until the queue is drained (tests and shutdown).
  void WaitIdle();

  /// First compilation failure observed, if any (async failures would
  /// otherwise be silent — evaluation just keeps interpreting).
  util::Status first_error();

  size_t compiles_completed();

  /// Subqueries reordered by the compiles completed since the last call
  /// (each unit's CompiledUnit::reorders(), counted once when the unit
  /// is stored); resets the tally. The evaluator folds it into
  /// ExecStats::reorders.
  uint64_t TakeReorders() { return reorders_.exchange(0); }

 private:
  struct Job {
    uint32_t node_id;
    backends::CompileRequest request;
  };

  void EnsureWorker();
  void WorkerLoop();
  void StoreResult(uint32_t node_id, util::Status status,
                   std::unique_ptr<backends::CompiledUnit> unit);

  backends::Backend* backend_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::unordered_set<uint32_t> pending_;
  std::unordered_map<uint32_t, std::unique_ptr<backends::CompiledUnit>>
      ready_;
  /// Replaced/invalidated units are retired, not destroyed: the evaluator
  /// may still be inside a stale unit's Run() when its asynchronous
  /// replacement lands. Bounded by the number of compilations.
  std::vector<std::unique_ptr<backends::CompiledUnit>> retired_;
  util::Status first_error_;
  size_t completed_ = 0;
  std::atomic<uint64_t> reorders_{0};
  bool worker_busy_ = false;
  bool shutdown_ = false;
  std::thread worker_;
};

}  // namespace carac::core

#endif  // CARAC_CORE_COMPILE_MANAGER_H_
