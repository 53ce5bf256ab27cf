#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <utility>

#include "net/framing.h"
#include "net/listener.h"
#include "util/status.h"

namespace carac::net {

/// Per-connection state. Split ownership by design: the dispatcher owns
/// the READ side (fd polling, the line reassembly buffer) and the
/// pinned worker owns everything else (execution, the fd's write side,
/// the quitting flag). The two sides never touch each other's fields,
/// and the fd itself is torn down in one place only — the worker, when
/// the kCloseSession marker arrives AFTER every admitted request.
struct Session {
  int fd = -1;
  size_t worker = 0;
  /// Dispatcher-only: bytes read but not yet forming a complete line.
  LineBuffer input;
  /// Worker-only: set on quit/fatal; admitted-but-unexecuted lines of
  /// this session are dropped instead of executed after the farewell.
  bool quitting = false;
};

Server::Server(ServeContext* ctx, ServerConfig config)
    : ctx_(ctx), config_(std::move(config)) {
  CARAC_CHECK(ctx_ != nullptr && ctx_->engine != nullptr);
  // Workers execute writes concurrently with each other; the engine has
  // a single-writer pipeline. No mutex would mean racing epochs.
  CARAC_CHECK(ctx_->write_mutex != nullptr);
  if (config_.num_workers < 1) config_.num_workers = 1;
  if (config_.admission_batch < 1) config_.admission_batch = 1;
}

Server::~Server() {
  RequestShutdown();
  Wait();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

util::Status Server::Start() {
  CARAC_CHECK(!started_);
  if (config_.unix_path.empty() && config_.tcp_port < 0) {
    return util::Status::InvalidArgument(
        "server needs at least one listener (unix path or tcp port)");
  }
  if (!config_.unix_path.empty()) {
    CARAC_RETURN_IF_ERROR(ListenUnix(config_.unix_path, &unix_listen_fd_));
  }
  if (config_.tcp_port >= 0) {
    const util::Status status =
        ListenTcp(config_.tcp_port, &tcp_listen_fd_, &resolved_tcp_port_);
    if (!status.ok()) {
      if (unix_listen_fd_ >= 0) {
        ::close(unix_listen_fd_);
        ::unlink(config_.unix_path.c_str());
        unix_listen_fd_ = -1;
      }
      return status;
    }
  }
  if (::pipe(wake_pipe_) != 0) {
    return util::Status::Internal("pipe() for shutdown self-pipe failed");
  }
  CARAC_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[0]));
  CARAC_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[1]));
  queues_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    queues_.push_back(std::make_unique<InjectorQueue>());
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  workers_.reserve(queues_.size());
  for (size_t i = 0; i < queues_.size(); ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  started_ = true;
  return util::Status::Ok();
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    // Async-signal-safe by construction: one write(2) on a nonblocking
    // pipe. EAGAIN (pipe already full) still means the dispatcher has
    // a wakeup pending, so the result is deliberately ignored.
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::Wait() {
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void Server::DispatcherLoop() {
  std::vector<Session*> sessions;
  std::vector<pollfd> fds;
  size_t next_worker = 0;
  bool closing = false;

  while (!closing) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    if (unix_listen_fd_ >= 0) fds.push_back({unix_listen_fd_, POLLIN, 0});
    if (tcp_listen_fd_ >= 0) fds.push_back({tcp_listen_fd_, POLLIN, 0});
    const size_t session_base = fds.size();
    const size_t polled_sessions = sessions.size();
    for (const Session* session : sessions) {
      fds.push_back({session->fd, POLLIN, 0});
    }
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      closing = true;  // Unrecoverable poll failure: tear down cleanly.
    }

    // One batch per worker per poll round — admission happens in bulk.
    std::vector<std::vector<ServerRequest>> batches(queues_.size());

    if (fds[0].revents != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
      }
      if (shutdown_requested_.load(std::memory_order_acquire)) {
        closing = true;
      }
    }

    auto accept_from = [&](int listen_fd) {
      for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;  // EAGAIN: accepted everything pending.
        if (!SetNonBlocking(fd).ok()) {
          ::close(fd);
          continue;
        }
        auto* session = new Session;
        session->fd = fd;
        session->worker = next_worker;
        next_worker = (next_worker + 1) % queues_.size();
        sessions.push_back(session);
      }
    };
    size_t fd_index = 1;
    if (unix_listen_fd_ >= 0) {
      if (!closing && fds[fd_index].revents != 0) accept_from(unix_listen_fd_);
      ++fd_index;
    }
    if (tcp_listen_fd_ >= 0) {
      if (!closing && fds[fd_index].revents != 0) accept_from(tcp_listen_fd_);
      ++fd_index;
    }

    // Admits `session`'s complete buffered lines to its worker's batch;
    // false once a line, complete or not, exceeds kMaxRequestLineBytes.
    auto admit_lines = [&](Session* session) {
      std::string line;
      while (session->input.NextLine(&line)) {
        if (line.size() > kMaxRequestLineBytes) return false;
        batches[session->worker].push_back(
            {session, std::move(line), ServerRequest::Kind::kLine});
      }
      return session->input.pending_bytes() <= kMaxRequestLineBytes;
    };

    // Drain readable sessions, reassemble lines, admit them to the
    // owning worker's queue. Lines are admitted after every read, so the
    // buffer holds at most one partial line even while a fast sender
    // keeps the socket readable. A session that hit EOF (or whose worker
    // executed quit and shut the socket down) or sent an overlong line
    // leaves the poll set now and gets its close marker — ordered after
    // its admitted lines.
    std::vector<Session*> still_open;
    still_open.reserve(sessions.size());
    for (size_t i = 0; i < sessions.size(); ++i) {
      Session* session = sessions[i];
      bool retire = false;
      const bool readable =
          i < polled_sessions && fds[session_base + i].revents != 0;
      if (readable) {
        char buffer[4096];
        for (;;) {
          const ssize_t n = ::read(session->fd, buffer, sizeof buffer);
          if (n > 0) {
            session->input.Append(buffer, static_cast<size_t>(n));
            if (admit_lines(session)) continue;
            batches[session->worker].push_back(
                {session, std::string(), ServerRequest::Kind::kOverlongLine});
            retire = true;
            break;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          retire = true;  // Clean EOF or a hard error: either way, done.
          break;
        }
      }
      if (retire || closing) {
        batches[session->worker].push_back(
            {session, std::string(), ServerRequest::Kind::kCloseSession});
      } else {
        still_open.push_back(session);
      }
    }
    sessions.swap(still_open);

    for (size_t i = 0; i < queues_.size(); ++i) {
      queues_[i]->PushBatch(std::move(batches[i]));
    }
  }

  // Stop accepting, then tell every worker to finish and exit. The
  // shutdown marker is the LAST request each queue ever carries, so
  // workers drain all admitted work (including the close markers just
  // pushed) before leaving.
  if (unix_listen_fd_ >= 0) {
    ::close(unix_listen_fd_);
    ::unlink(config_.unix_path.c_str());
    unix_listen_fd_ = -1;
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  for (const std::unique_ptr<InjectorQueue>& queue : queues_) {
    queue->PushBatch({{nullptr, std::string(), ServerRequest::Kind::kShutdown}});
  }
}

void Server::WorkerLoop(size_t worker_index) {
  InjectorQueue& queue = *queues_[worker_index];
  std::vector<ServerRequest> batch;
  bool running = true;
  while (running) {
    batch.clear();
    queue.PopBatch(&batch, config_.admission_batch);
    for (ServerRequest& request : batch) {
      if (request.kind == ServerRequest::Kind::kShutdown) {
        // Always the final queue entry; nothing can follow it.
        running = false;
        continue;
      }
      Session* session = request.session;
      if (request.kind == ServerRequest::Kind::kCloseSession) {
        ::close(session->fd);
        delete session;
        continue;
      }
      if (session->quitting) continue;
      if (request.kind == ServerRequest::Kind::kOverlongLine) {
        WireResponse response;
        response.Error("request line exceeds " +
                       std::to_string(kMaxRequestLineBytes) + " bytes");
        WriteAll(session->fd, std::move(response).Finish());
        session->quitting = true;
        continue;
      }
      WireResponse response;
      const ServeOutcome outcome =
          ExecuteServeLine(ctx_, std::move(request.line), &response);
      if (outcome == ServeOutcome::kSilent) continue;
      WriteAll(session->fd, std::move(response).Finish());
      if (outcome == ServeOutcome::kQuit) {
        session->quitting = true;
        // Half of the close handshake: the dispatcher observes the EOF
        // this produces, unpolls the session and sends the close
        // marker; THIS worker then closes the fd and frees the session.
        ::shutdown(session->fd, SHUT_RDWR);
      } else if (outcome == ServeOutcome::kFatal) {
        session->quitting = true;
        fatal_.store(true, std::memory_order_relaxed);
        RequestShutdown();
      }
    }
  }
}

void Server::WriteAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = ::send(fd, data.data() + offset, data.size() - offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd writable{fd, POLLOUT, 0};
      ::poll(&writable, 1, /*timeout_ms=*/1000);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Dead peer (EPIPE/ECONNRESET): drop the rest of the response; the
    // dispatcher will see the EOF and retire the session.
    return;
  }
}

}  // namespace carac::net
