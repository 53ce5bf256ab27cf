#ifndef CARAC_NET_INJECTOR_QUEUE_H_
#define CARAC_NET_INJECTOR_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace carac::net {

struct Session;

/// One admitted request on its way from the dispatcher to the worker
/// that owns the session.
struct ServerRequest {
  enum class Kind : uint8_t {
    /// One protocol line to execute and respond to.
    kLine,
    /// The session's request line exceeded kMaxRequestLineBytes: answer
    /// err and execute nothing more. A kCloseSession always follows.
    kOverlongLine,
    /// The dispatcher stopped polling this session (client EOF or
    /// server shutdown): after everything queued before this marker,
    /// the worker closes the fd and frees the session.
    kCloseSession,
    /// Always the last request a queue carries: finish the batch in
    /// hand and exit the worker loop.
    kShutdown,
  };

  Session* session = nullptr;
  std::string line;
  Kind kind = Kind::kLine;
};

/// The per-worker injector (KVell's share-nothing request routing): the
/// dispatcher is the only producer, the owning worker the only
/// consumer, and a session's requests only ever flow through its pinned
/// worker's queue — so per-session ordering is the queue's FIFO order
/// and no two workers ever race on one session's state.
class InjectorQueue {
 public:
  InjectorQueue() = default;
  InjectorQueue(const InjectorQueue&) = delete;
  InjectorQueue& operator=(const InjectorQueue&) = delete;

  /// Enqueues a batch (moved from), waking the worker once — batching
  /// amortizes the lock/wake cost across a poll round's admissions.
  void PushBatch(std::vector<ServerRequest> batch);

  /// Blocks until requests are available, then moves up to `max` of
  /// them into `out` (appended). Returns the number popped.
  size_t PopBatch(std::vector<ServerRequest>* out, size_t max);

 private:
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<ServerRequest> queue_;
};

}  // namespace carac::net

#endif  // CARAC_NET_INJECTOR_QUEUE_H_
