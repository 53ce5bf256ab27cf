#include "core/compile_manager.h"

#include <utility>

namespace carac::core {

CompileManager::~CompileManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

util::Status CompileManager::CompileSync(uint32_t node_id,
                                         backends::CompileRequest request) {
  std::unique_ptr<backends::CompiledUnit> unit;
  util::Status status = backend_->Compile(std::move(request), &unit);
  StoreResult(node_id, status, std::move(unit));
  return status;
}

void CompileManager::CompileAsync(uint32_t node_id,
                                  backends::CompileRequest request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.count(node_id) > 0) return;
    pending_.insert(node_id);
    queue_.push_back(Job{node_id, std::move(request)});
  }
  EnsureWorker();
  cv_.notify_all();
}

backends::CompiledUnit* CompileManager::GetReady(uint32_t node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ready_.find(node_id);
  return it == ready_.end() ? nullptr : it->second.get();
}

bool CompileManager::IsPending(uint32_t node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.count(node_id) > 0;
}

void CompileManager::Invalidate(uint32_t node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ready_.find(node_id);
  if (it == ready_.end()) return;
  retired_.push_back(std::move(it->second));
  ready_.erase(it);
}

void CompileManager::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return queue_.empty() && !worker_busy_; });
}

util::Status CompileManager::first_error() {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

size_t CompileManager::compiles_completed() {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

void CompileManager::EnsureWorker() {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker_.joinable()) return;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void CompileManager::WorkerLoop() {
  for (;;) {
    Job job{0, {}};
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // On shutdown, abandon queued jobs (the evaluation is over).
      if (shutdown_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      worker_busy_ = true;
    }
    std::unique_ptr<backends::CompiledUnit> unit;
    util::Status status = backend_->Compile(std::move(job.request), &unit);
    StoreResult(job.node_id, status, std::move(unit));
    {
      std::lock_guard<std::mutex> lock(mu_);
      worker_busy_ = false;
    }
    cv_.notify_all();
  }
}

void CompileManager::StoreResult(
    uint32_t node_id, util::Status status,
    std::unique_ptr<backends::CompiledUnit> unit) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.erase(node_id);
  ++completed_;
  if (!status.ok()) {
    if (first_error_.ok()) first_error_ = status;
    return;
  }
  reorders_ += static_cast<uint64_t>(unit->reorders());
  auto it = ready_.find(node_id);
  if (it != ready_.end()) {
    // The evaluator may still be running the stale unit: retire it.
    retired_.push_back(std::move(it->second));
    it->second = std::move(unit);
  } else {
    ready_.emplace(node_id, std::move(unit));
  }
}

}  // namespace carac::core
