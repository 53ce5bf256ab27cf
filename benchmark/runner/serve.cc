// serve_reach: the real `carac server` over a Unix socket, driven by an
// open-loop generator in this process.
//
// The program is transitive closure plus a bounded query:
//
//   Path(x, y) :- Edge(x, y).
//   Path(x, z) :- Path(x, y), Edge(y, z).
//   Frontier(x, y) :- Path(x, y), x < K.
//
// Edge holds an analysis::GenerateGrowthGraph DAG with every edge
// reversed (child -> parent), so Path(x, y) says y is an ancestor of x.
// Frontier — the ancestors of the 400 oldest vertices, K being the label
// of vertex 400 — is ~5000 rows that new vertices never change, so
// `dump Frontier` is a fixed read of about a millisecond: long enough
// that its latency is service time rather than wake-up jitter. Column 0
// of Path is only ever range-constrained, so the optimizer gives it an
// ordered index and `x < K` is served by a range probe (range pushdown).
//
// Traffic, all from one generator thread over 1 + R connections
// (R = min(2, nproc - 1) readers, at least one). Sessions are pinned to
// the server's 2 workers round-robin, so the writer and reader 2 share
// worker 0 and reader 2 queues behind every `update`:
//   - writer: 20 epochs/s, each `load Edge b<i>.csv` (the next slice of
//     the held-out 10% of edges) then `update`;
//   - readers: seeded Poisson arrivals, 90% `count Path`, 10%
//     `dump Frontier`, at offered rates R1 < R2 < R3 in three equal
//     steps of the measured phase.
// Every request is timed from its due time, so a stalled server also
// charges the requests queued behind the stall. A closed-loop burst
// then measures the server's read capacity: each reader keeps a window
// of the same read mix in flight while the writer is idle.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>

#include "analysis/factgen.h"
#include "analysis/loader.h"
#include "bench.h"
#include "datalog/parser.h"
#include "net/commands.h"
#include "trace.h"
#include "util/rng.h"

namespace carac::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kStructureSeed = 3;
constexpr int64_t kVertices = 10000;
constexpr double kExtraEdgeProb = 0.5;
constexpr int64_t kFrontierBound = 400;
constexpr double kBaseShare = 0.9;
constexpr double kEpochsPerSecond = 20;
constexpr int kServerWorkers = 2;
/// Offered read rates of the three steps, over all readers (reads/s).
constexpr double kStepRates[3] = {400, 1200, 2400};
constexpr double kDumpShare = 0.1;
/// The closed-loop burst: the requests each reader keeps in flight
/// (enough to keep both server workers busy), an unmeasured warm-up, and
/// the measured part, split into windows. In the first 1-1.6 s of a burst
/// the server answered at about half its later rate (4-vCPU host), so
/// the warm-up is longer than that.
constexpr size_t kSaturationWindow = 8;
constexpr double kSaturationWarmup = 2;
constexpr double kSaturationSeconds = 3;
constexpr double kRateWindow = 0.1;
/// The generator counts as on time while its p99 lateness is below this.
constexpr double kLateLimitMs = 1;
constexpr int kSetups = 9;
constexpr int kRecoveries = 9;
/// The generator spins instead of sleeping this close to a due time.
constexpr double kSpinWindow = 50e-6;
constexpr double kStartupTimeout = 60;
constexpr double kDrainTimeout = 30;

/// The rules before Frontier, whose bound depends on the labels.
const char kProgramRules[] =
    "Path(x, y) :- Edge(x, y).\n"
    "Path(x, z) :- Path(x, y), Edge(y, z).\n";

// ---- CPU placement ----

/// The generator gets one CPU of its own and the server the others (when
/// there are at least two). Sharing, the scheduler puts freshly woken
/// server threads on the generator's CPU, and the generator sends late —
/// by 1-5 ms after every `update`, measured on a 4-vCPU host.
struct CpuSplit {
  cpu_set_t all;
  cpu_set_t generator;
  cpu_set_t server;
};

CpuSplit SplitCpus() {
  CpuSplit split;
  CPU_ZERO(&split.all);
  sched_getaffinity(0, sizeof(split.all), &split.all);
  split.generator = split.all;
  split.server = split.all;
  if (CPU_COUNT(&split.all) < 2) return split;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &split.all)) last = cpu;
  }
  CPU_ZERO(&split.generator);
  CPU_SET(last, &split.generator);
  CPU_CLR(last, &split.server);
  return split;
}

/// Pins the generating thread to its CPU, with timer slack cut so timed
/// sleeps end when asked rather than up to the default 50 us later, and
/// unpins it when the load phase ends.
class GeneratorPin {
 public:
  GeneratorPin() : cpus_(SplitCpus()) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    sched_setaffinity(0, sizeof(cpus_.generator), &cpus_.generator);
  }
  ~GeneratorPin() { sched_setaffinity(0, sizeof(cpus_.all), &cpus_.all); }
  GeneratorPin(const GeneratorPin&) = delete;
  GeneratorPin& operator=(const GeneratorPin&) = delete;

 private:
  CpuSplit cpus_;
};

// ---- The server process ----

/// One `carac server` child. The destructor stops it and waits for it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Spawns the server in `dir` and waits for its "ready" banner.
  bool Start(const std::string& dir, const std::string& snapshot_dir) {
    int out[2];
    if (pipe(out) != 0) return false;
    const std::vector<std::string> args = {
        CARAC_CLI_PATH,
        "server",
        "prog.dl",
        "--listen-unix=s.sock",
        "--server-workers=" + std::to_string(kServerWorkers),
        "--snapshot-dir=" + snapshot_dir,
        "--checkpoint-every=" + std::to_string(kCheckpointEvery)};
    pid_ = fork();
    if (pid_ < 0) {
      close(out[0]);
      close(out[1]);
      return false;
    }
    if (pid_ == 0) {
      const CpuSplit cpus = SplitCpus();
      sched_setaffinity(0, sizeof(cpus.server), &cpus.server);
      std::vector<char*> argv;
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      if (chdir(dir.c_str()) != 0) _exit(127);
      const int log = open("server.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) dup2(log, 2);
      dup2(out[1], 1);
      close(out[0]);
      close(out[1]);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out[1]);
    stdout_fd_ = out[0];
    std::string banner;
    const auto start = Clock::now();
    while (banner.find("ready\n") == std::string::npos) {
      const double left = kStartupTimeout - Seconds(start);
      pollfd pfd = {stdout_fd_, POLLIN, 0};
      if (left <= 0 || poll(&pfd, 1, static_cast<int>(left * 1e3) + 1) <= 0) {
        return false;
      }
      char buf[256];
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      banner.append(buf, static_cast<size_t>(n));
    }
    return true;
  }

  /// Peak resident set of the server (VmHWM), MB.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        status >> kb;
        return kb / 1024.0;
      }
    }
    return 0;
  }

  /// SIGTERM, then waits; SIGKILL if it has not exited in 30 s. Returns
  /// true when the server exited 0 on the SIGTERM.
  bool Stop() {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    int status = 0;
    const auto start = Clock::now();
    bool clean = false;
    while (true) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        break;
      }
      if (r < 0) break;
      if (Seconds(start) > 30) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(2000);
    }
    pid_ = -1;
    if (stdout_fd_ >= 0) close(stdout_fd_);
    stdout_fd_ = -1;
    return clean;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

// ---- Protocol client ----

/// Splits received bytes into lines in linear time. (net::LineBuffer
/// erases its consumed prefix once per line, which is quadratic in a
/// multi-line response: draining `dump` replies through it made this
/// generator, not the server, the bottleneck.) A returned line stays
/// valid until the next Append.
class LineReader {
 public:
  void Append(const char* data, size_t n) {
    if (start_ == buf_.size()) {
      buf_.clear();
      start_ = 0;
    } else if (start_ > buf_.size() / 2) {
      buf_.erase(0, start_);
      start_ = 0;
    }
    buf_.append(data, n);
  }

  bool NextLine(std::string_view* line) {
    const size_t end = buf_.find('\n', start_);
    if (end == std::string::npos) return false;
    *line = std::string_view(buf_).substr(start_, end - start_);
    start_ = end + 1;
    return true;
  }

 private:
  std::string buf_;
  size_t start_ = 0;
};

bool IsPayload(std::string_view line) { return line.substr(0, 2) == "| "; }

/// The row count in a `count Path` payload ("Path: N rows"), or -1.
int64_t ParseRows(std::string_view payload) {
  constexpr std::string_view kPrefix = "Path: ";
  constexpr std::string_view kSuffix = " rows";
  if (payload.size() <= kPrefix.size() + kSuffix.size() ||
      payload.substr(0, kPrefix.size()) != kPrefix ||
      payload.substr(payload.size() - kSuffix.size()) != kSuffix) {
    return -1;
  }
  int64_t rows = 0;
  const char* end = payload.data() + payload.size() - kSuffix.size();
  const auto [stop, ec] =
      std::from_chars(payload.data() + kPrefix.size(), end, rows);
  return ec == std::errc() && stop == end ? rows : -1;
}

/// One client connection. Responses are zero or more "| " payload lines
/// then "ok" or "err <diagnostic>".
struct Connection {
  int fd = -1;
  LineReader in;

  ~Connection() {
    if (fd >= 0) close(fd);
  }

  bool Connect(const std::string& path) {
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
  }

  /// Blocking request/response; false on a transport failure or `err`.
  bool Call(const std::string& line, std::vector<std::string>* payload) {
    const std::string wire = line + "\n";
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    std::string_view got;
    while (true) {
      while (in.NextLine(&got)) {
        if (IsPayload(got)) {
          if (payload != nullptr) payload->emplace_back(got.substr(2));
          continue;
        }
        return got == "ok";
      }
      char buf[65536];
      pollfd pfd = {fd, POLLIN, 0};
      if (poll(&pfd, 1, static_cast<int>(kDrainTimeout * 1e3)) <= 0) {
        return false;
      }
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      in.Append(buf, static_cast<size_t>(n));
    }
  }
};

// ---- Inputs ----

/// The served facts. As in the batch workloads, the graph's structure
/// comes from a fixed seed and --seed relabels it: vertex v is served as
/// kLabelStride * v + r_v with r_v < kLabelStride drawn from the seed.
/// The map is strictly increasing, so `x < label(100)` still selects the
/// 100 oldest vertices and every seed does identical work.
struct ServeInput {
  std::string program;
  std::vector<storage::Tuple> base;
  std::vector<std::vector<storage::Tuple>> batches;
  std::vector<std::string> batch_files;  // relative to the server's dir
};

constexpr int64_t kLabelStride = 8;

ServeInput MakeServeInput(const Options& options, int epochs) {
  Span span("analysis.factgen");
  const std::vector<analysis::Edge> edges = analysis::GenerateGrowthGraph(
      kStructureSeed, kVertices, kExtraEdgeProb);
  util::Rng rng(options.seed);
  std::vector<int64_t> label(static_cast<size_t>(kVertices));
  for (int64_t v = 0; v < kVertices; ++v) {
    label[v] = kLabelStride * v +
               static_cast<int64_t>(rng.NextBounded(kLabelStride));
  }
  ServeInput in;
  in.program = std::string(kProgramRules) + "Frontier(x, y) :- Path(x, y), x < " +
               std::to_string(label[kFrontierBound]) + ".\n";
  // Reversed: child -> parent.
  auto fact = [&](const analysis::Edge& e) {
    return storage::Tuple{label[e.second], label[e.first]};
  };
  const size_t base = static_cast<size_t>(
      static_cast<double>(edges.size()) * kBaseShare);
  for (size_t i = 0; i < base; ++i) in.base.push_back(fact(edges[i]));
  const size_t tail = edges.size() - base;
  in.batches.resize(static_cast<size_t>(epochs));
  for (size_t i = base; i < edges.size(); ++i) {
    const size_t b = (i - base) * static_cast<size_t>(epochs) / tail;
    in.batches[b].push_back(fact(edges[i]));
  }
  for (int b = 0; b < epochs; ++b) {
    in.batch_files.push_back("b" + std::to_string(b) + ".csv");
  }
  return in;
}

/// The closure the server must serve, computed independently: a graph
/// search from every vertex over the acknowledged edges.
struct Closure {
  size_t path_rows = 0;
  std::vector<std::string> frontier;  // "x\ty", sorted
};

Closure ComputeClosure(const std::vector<storage::Tuple>& facts) {
  // Labels map back to vertices by division (see ServeInput).
  std::vector<std::vector<int64_t>> next(static_cast<size_t>(kVertices));
  std::vector<int64_t> label(static_cast<size_t>(kVertices), -1);
  for (const storage::Tuple& f : facts) {
    next[f[0] / kLabelStride].push_back(f[1] / kLabelStride);
    label[f[0] / kLabelStride] = f[0];
    label[f[1] / kLabelStride] = f[1];
  }
  Closure c;
  std::vector<int64_t> stamp(static_cast<size_t>(kVertices), -1);
  std::vector<int64_t> stack;
  std::vector<std::pair<int64_t, int64_t>> frontier;
  for (int64_t x = 0; x < kVertices; ++x) {
    stack.assign(next[x].begin(), next[x].end());
    while (!stack.empty()) {
      const int64_t y = stack.back();
      stack.pop_back();
      if (stamp[y] == x) continue;
      stamp[y] = x;
      ++c.path_rows;
      if (x < kFrontierBound) frontier.emplace_back(label[x], label[y]);
      for (int64_t z : next[y]) {
        if (stamp[z] != x) stack.push_back(z);
      }
    }
  }
  std::sort(frontier.begin(), frontier.end());
  for (const auto& [x, y] : frontier) {
    c.frontier.push_back(std::to_string(x) + "\t" + std::to_string(y));
  }
  return c;
}

/// The closure's facts after the base and the first `batches` batches.
std::vector<storage::Tuple> FactsAfter(const ServeInput& in, size_t batches) {
  std::vector<storage::Tuple> facts = in.base;
  for (size_t b = 0; b < batches; ++b) {
    facts.insert(facts.end(), in.batches[b].begin(), in.batches[b].end());
  }
  return facts;
}

// ---- The open-loop generator ----

enum class Kind { kCount, kDump, kIngest };

struct Request {
  double due = 0;  // seconds after the phase starts
  int session = 0;
  Kind kind = Kind::kCount;
  int step = 0;
  int batch = 0;
  double sent = -1;
  double done = -1;
  bool ok = true;
  size_t payload_lines = 0;
  size_t payload_bytes = 0;
  /// The row count a `count` was answered with.
  int64_t rows = -1;
};

/// The whole request stream, a pure function of the seed: writer epochs
/// on a fixed cadence, reader arrivals as seeded Poisson processes.
std::vector<Request> MakeSchedule(uint64_t seed, double seconds, int epochs,
                                  int readers) {
  std::vector<Request> schedule;
  for (int i = 0; i < epochs; ++i) {
    Request r;
    r.due = i / kEpochsPerSecond;
    r.session = 0;
    r.kind = Kind::kIngest;
    r.batch = i;
    r.step = std::min(2, static_cast<int>(r.due / (seconds / 3)));
    schedule.push_back(r);
  }
  for (int reader = 0; reader < readers; ++reader) {
    util::Rng rng(seed * 1000003 + static_cast<uint64_t>(reader) + 1);
    for (int step = 0; step < 3; ++step) {
      const double rate = kStepRates[step] / readers;
      const double end = (step + 1) * seconds / 3;
      double t = step * seconds / 3;
      while (true) {
        t += -std::log(1.0 - rng.NextDouble()) / rate;
        if (t >= end) break;
        Request r;
        r.due = t;
        r.session = 1 + reader;
        r.kind = rng.NextBool(kDumpShare) ? Kind::kDump : Kind::kCount;
        r.step = step;
        schedule.push_back(r);
      }
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Request& a, const Request& b) {
                     return a.due < b.due;
                   });
  return schedule;
}

std::string RequestLines(const Request& r, const ServeInput& in) {
  switch (r.kind) {
    case Kind::kCount:
      return "count Path\n";
    case Kind::kDump:
      return "dump Frontier\n";
    case Kind::kIngest:
      return "load Edge " + in.batch_files[static_cast<size_t>(r.batch)] +
             "\nupdate\n";
  }
  return "";
}

struct LoadResult {
  double late_p99_ms = 0;
  size_t backlog_max = 0;
  bool drained = true;
};

struct GenSession {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  LineReader in;
  /// Requests awaiting responses, oldest first, with the number of
  /// terminators each still needs (an ingest is two commands).
  std::deque<std::pair<size_t, int>> pending;
};

LoadResult RunOpenLoop(std::vector<Request>* schedule,
                       std::vector<int> fds, const ServeInput& in) {
  std::vector<GenSession> sessions(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    sessions[i].fd = fds[i];
    fcntl(fds[i], F_SETFL, fcntl(fds[i], F_GETFL) | O_NONBLOCK);
  }
  std::vector<Request>& reqs = *schedule;
  const GeneratorPin pin;
  LoadResult result;
  std::vector<double> lateness;
  lateness.reserve(reqs.size());
  const double phase_end = reqs.empty() ? 0 : reqs.back().due;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const double trace_t0 = Tracer::enabled()
                              ? Tracer::NowUs() + 20e3
                              : 0;
  size_t next = 0;
  size_t outstanding = 0;
  std::vector<pollfd> pfds(sessions.size());
  char buf[65536];
  std::string_view line;

  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  while (true) {
    double now = now_s();
    while (next < reqs.size() && reqs[next].due <= now) {
      Request& r = reqs[next];
      GenSession& s = sessions[static_cast<size_t>(r.session)];
      s.out += RequestLines(r, in);
      s.pending.emplace_back(next, r.kind == Kind::kIngest ? 2 : 1);
      r.sent = now;
      lateness.push_back((now - r.due) * 1e3);
      ++outstanding;
      ++next;
    }
    result.backlog_max = std::max(result.backlog_max, outstanding);
    for (GenSession& s : sessions) {
      while (s.out_offset < s.out.size()) {
        const ssize_t n = send(s.fd, s.out.data() + s.out_offset,
                               s.out.size() - s.out_offset, MSG_NOSIGNAL);
        if (n <= 0) break;
        s.out_offset += static_cast<size_t>(n);
      }
      if (s.out_offset == s.out.size()) {
        s.out.clear();
        s.out_offset = 0;
      }
    }
    if (next == reqs.size() && outstanding == 0) break;
    if (next == reqs.size() && now > phase_end + kDrainTimeout) {
      result.drained = false;
      break;
    }

    // Sleep until just before the next due time, then spin: a sleeping
    // generator would add its own wake-up delay to every request.
    double wait_s = next < reqs.size() ? reqs[next].due - now : 0.05;
    wait_s = wait_s < kSpinWindow ? 0 : std::min(wait_s - kSpinWindow, 0.05);
    for (size_t i = 0; i < sessions.size(); ++i) {
      pfds[i].fd = sessions[i].fd;
      pfds[i].events = POLLIN | (sessions[i].out.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;

    for (size_t i = 0; i < sessions.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      GenSession& s = sessions[i];
      while (true) {
        const ssize_t n = recv(s.fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        s.in.Append(buf, static_cast<size_t>(n));
      }
      now = now_s();
      while (s.in.NextLine(&line)) {
        if (s.pending.empty()) continue;  // Nothing expected: ignore.
        Request& r = reqs[s.pending.front().first];
        if (IsPayload(line)) {
          if (r.kind == Kind::kCount && r.payload_lines == 0) {
            r.rows = ParseRows(line.substr(2));
          }
          ++r.payload_lines;
          r.payload_bytes += line.size() - 1;
          continue;
        }
        if (line != "ok") r.ok = false;
        if (--s.pending.front().second > 0) continue;
        r.done = now;
        s.pending.pop_front();
        --outstanding;
        if (Tracer::enabled()) {
          static const char* kNames[] = {"client.count", "client.dump",
                                         "client.ingest"};
          Tracer::Record(kNames[static_cast<int>(r.kind)],
                         trace_t0 + r.due * 1e6, trace_t0 + now * 1e6,
                         1 + static_cast<uint64_t>(&r - reqs.data()));
        }
      }
    }
  }
  result.late_p99_ms = Percentile(lateness, 0.99);
  return result;
}

struct SaturationResult {
  double reads_per_s = 0;
  /// Send-to-reply latency of the burst's reads.
  double p99_ms = 0;
  size_t attempted = 0;
  /// Replies that were `err`, or not the final closure's.
  size_t wrong = 0;
  bool drained = true;
};

/// The closed-loop burst: every reader connection keeps
/// kSaturationWindow reads of the serve mix (seeded) in flight for
/// kSaturationWarmup + kSaturationSeconds. The writer is idle, so every
/// reply must match the final closure. The rate is the median over the
/// measured part's kRateWindow windows of the reads answered in each.
SaturationResult RunSaturation(const std::vector<int>& fds, uint64_t seed,
                               const Closure& expected) {
  struct Reader {
    int fd = -1;
    std::string out;
    size_t out_offset = 0;
    LineReader in;
    std::deque<std::pair<Kind, double>> pending;  // with its send time
    size_t lines = 0;
    int64_t rows = -1;
  };
  std::vector<Reader> readers(fds.size());
  std::vector<pollfd> pfds(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) readers[i].fd = fds[i];
  const int64_t expected_rows = static_cast<int64_t>(expected.path_rows);
  const double stop = kSaturationWarmup + kSaturationSeconds;
  std::vector<double> answered(
      static_cast<size_t>(std::lround(kSaturationSeconds / kRateWindow)));
  std::vector<double> latency_ms;
  util::Rng rng(seed * 1000003 + 7);
  const GeneratorPin pin;
  SaturationResult result;
  char buf[65536];
  std::string_view line;
  const auto t0 = Clock::now();
  while (true) {
    const double now = Seconds(t0);
    const bool open = now < stop;
    bool idle = true;
    for (Reader& r : readers) {
      while (open && r.pending.size() < kSaturationWindow) {
        const Kind kind =
            rng.NextBool(kDumpShare) ? Kind::kDump : Kind::kCount;
        r.out += kind == Kind::kDump ? "dump Frontier\n" : "count Path\n";
        r.pending.emplace_back(kind, now);
        ++result.attempted;
      }
      while (r.out_offset < r.out.size()) {
        const ssize_t n = send(r.fd, r.out.data() + r.out_offset,
                               r.out.size() - r.out_offset, MSG_NOSIGNAL);
        if (n <= 0) break;
        r.out_offset += static_cast<size_t>(n);
      }
      if (r.out_offset == r.out.size()) {
        r.out.clear();
        r.out_offset = 0;
      }
      idle = idle && r.pending.empty();
    }
    if (!open && idle) break;
    if (now > stop + kDrainTimeout) {
      result.drained = false;
      break;
    }
    for (size_t i = 0; i < readers.size(); ++i) {
      pfds[i].fd = readers[i].fd;
      pfds[i].events = POLLIN | (readers[i].out.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
    }
    if (poll(pfds.data(), pfds.size(), 50) <= 0) continue;
    for (size_t i = 0; i < readers.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Reader& r = readers[i];
      while (true) {
        const ssize_t n = recv(r.fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        r.in.Append(buf, static_cast<size_t>(n));
      }
      const double done = Seconds(t0);
      const double at = done - kSaturationWarmup;
      while (r.in.NextLine(&line)) {
        if (r.pending.empty()) continue;  // Nothing expected: ignore.
        if (IsPayload(line)) {
          if (r.lines++ == 0) r.rows = ParseRows(line.substr(2));
          continue;
        }
        const bool right =
            line == "ok" && (r.pending.front().first == Kind::kCount
                                 ? r.lines == 1 && r.rows == expected_rows
                                 : r.lines == expected.frontier.size());
        if (!right) ++result.wrong;
        if (at >= 0 && at < kSaturationSeconds) {
          answered[std::min(answered.size() - 1,
                            static_cast<size_t>(at / kRateWindow))] += 1;
          latency_ms.push_back((done - r.pending.front().second) * 1e3);
        }
        r.pending.pop_front();
        r.lines = 0;
        r.rows = -1;
      }
    }
  }
  result.reads_per_s = Median(answered) / kRateWindow;
  result.p99_ms = Percentile(latency_ms, 0.99);
  return result;
}

}  // namespace

void RunServeWorkload(const Options& options, Report* report,
                      LayerCounts* layers) {
  CheckGoldens(core::EngineConfig{}, report);

  const int readers = std::max(1, std::min(2, GetHost().nproc - 1));
  if (1 + readers > GetHost().nproc) {
    std::fprintf(stderr,
                 "note: %d connections on a %d-CPU host; serve latencies "
                 "are unresolved here\n",
                 1 + readers, GetHost().nproc);
  }
  const int epochs =
      std::max(1, static_cast<int>(std::lround(options.seconds *
                                               kEpochsPerSecond)));
  const std::string& dir = options.work_dir;
  ServeInput in = MakeServeInput(options, epochs);
  {
    std::ofstream prog(dir + "/prog.dl");
    prog << in.program;
    report->Check(static_cast<bool>(prog), "write prog.dl");
  }
  report->Check(WriteCsv(dir + "/base.csv", in.base), "write base.csv");
  for (int b = 0; b < epochs; ++b) {
    report->Check(WriteCsv(dir + "/" + in.batch_files[static_cast<size_t>(b)],
                           in.batches[static_cast<size_t>(b)]),
                  "write batch " + std::to_string(b));
  }
  const std::string socket_path = dir + "/s.sock";

  SessionSamples samples;
  std::vector<Request> schedule =
      MakeSchedule(options.seed, options.seconds, epochs, readers);

  // ---- Set-up, several times: spawn -> ready -> base load is set-up;
  // the first `update` (a full evaluation) is eval. The last server
  // stays up for the measured phase, its connection as the writer.
  ServerProcess server;
  Connection writer;
  const std::string snapshot_dir = "snapshot";
  for (int k = 0; k < kSetups; ++k) {
    const bool last = k + 1 == kSetups;
    const std::string snap = last ? snapshot_dir : "setup" + std::to_string(k);
    std::filesystem::create_directories(dir + "/" + snap);
    ServerProcess scratch;
    ServerProcess& proc = last ? server : scratch;
    Connection scratch_conn;
    Connection& conn = last ? writer : scratch_conn;
    const auto start = Clock::now();
    const bool up = proc.Start(dir, snap) && conn.Connect(socket_path) &&
                    conn.Call("load Edge base.csv", nullptr);
    samples.setup_s.push_back(Seconds(start));
    const auto eval_start = Clock::now();
    const bool evaluated = up && conn.Call("update", nullptr);
    samples.eval_s.push_back(Seconds(eval_start));
    report->Check(up && evaluated, "server set-up " + std::to_string(k));
    if (!up || !evaluated) return;
  }

  // ---- The measured phase.
  std::vector<Connection> reader_conns(static_cast<size_t>(readers));
  std::vector<int> fds = {writer.fd};
  for (Connection& c : reader_conns) {
    report->Check(c.Connect(socket_path), "reader connect");
    fds.push_back(c.fd);
  }
  if (!report->correct) return;
  const LoadResult load = RunOpenLoop(&schedule, fds, in);
  report->Check(load.drained, "every request answered");

  // Writer and readers were switched to non-blocking; the closing
  // checks below go back to blocking calls on the writer.
  fcntl(writer.fd, F_SETFL, fcntl(writer.fd, F_GETFL) & ~O_NONBLOCK);

  // ---- Correctness of every reply, against closures computed here.
  // The writer's session is FIFO, so the acknowledged batches are a
  // prefix of the batches, and a `count` must lie between the closure of
  // the epochs acknowledged before it was sent and that of the epochs
  // sent before it was answered (reads pin the last closed epoch, and
  // Path only grows). New vertices never join Frontier, so every dump
  // serves all of it.
  std::vector<double> ingest_sent;
  std::vector<double> ingest_acked;
  for (const Request& r : schedule) {
    if (r.kind != Kind::kIngest) continue;
    ingest_sent.push_back(r.sent);
    ingest_acked.push_back(r.done >= 0 && r.ok ? r.done : HUGE_VAL);
  }
  std::vector<int64_t> rows_after;  // Path rows after k batches
  for (size_t k = 0; k <= ingest_sent.size(); ++k) {
    rows_after.push_back(
        static_cast<int64_t>(ComputeClosure(FactsAfter(in, k)).path_rows));
  }
  const size_t acked = static_cast<size_t>(std::count_if(
      ingest_acked.begin(), ingest_acked.end(),
      [](double t) { return t != HUGE_VAL; }));
  Closure expected = ComputeClosure(FactsAfter(in, acked));
  if (options.self_test && !expected.frontier.empty()) {
    expected.frontier.back() += "0";
  }
  auto epochs_by = [](const std::vector<double>& times, double t) {
    return static_cast<size_t>(
        std::count_if(times.begin(), times.end(),
                      [t](double at) { return at <= t; }));
  };

  std::vector<double> step_count[3];
  std::vector<double> step_dump[3];
  size_t wrong[3] = {0, 0, 0};  // by Kind
  for (const Request& r : schedule) {
    bool ok = r.done >= 0 && r.ok;
    if (ok && r.kind == Kind::kCount) {
      ok = r.payload_lines == 1 &&
           r.rows >= rows_after[epochs_by(ingest_acked, r.sent)] &&
           r.rows <= rows_after[epochs_by(ingest_sent, r.done)];
    } else if (ok && r.kind == Kind::kDump) {
      ok = r.payload_lines == expected.frontier.size();
    }
    report->Attempt(ok);
    if (!ok) ++wrong[static_cast<int>(r.kind)];
    if (r.done < 0) continue;
    const double ms = (r.done - r.due) * 1e3;
    switch (r.kind) {
      case Kind::kIngest:
        samples.ingest_ms.push_back(ms);
        break;
      case Kind::kCount:
        step_count[r.step].push_back(ms);
        break;
      case Kind::kDump:
        step_dump[r.step].push_back(ms);
        layers->dump_bytes = static_cast<double>(r.payload_bytes);
        break;
    }
  }
  if (wrong[0] + wrong[1] + wrong[2] > 0) {
    std::fprintf(stderr,
                 "CHECK FAILED: %zu counts, %zu dumps and %zu ingests went "
                 "unanswered, got `err` or a wrong answer\n",
                 wrong[0], wrong[1], wrong[2]);
  }
  samples.count_ms = step_count[1];
  samples.dump_ms = step_dump[1];
  for (int step = 0; step < 3; ++step) {
    std::fprintf(stderr,
                 "step R%d %.0f reads/s offered: count p50/90/95/99 "
                 "%.3f/%.3f/%.3f/%.3f ms, dump p50/90/99 %.3f/%.3f/%.3f ms\n",
                 step + 1, kStepRates[step], Median(step_count[step]),
                 Percentile(step_count[step], 0.90),
                 Percentile(step_count[step], 0.95),
                 Percentile(step_count[step], 0.99), Median(step_dump[step]),
                 Percentile(step_dump[step], 0.90),
                 Percentile(step_dump[step], 0.99));
  }
  if (load.late_p99_ms > kLateLimitMs) {
    std::fprintf(stderr,
                 "UNRESOLVED: the generator ran late (p99 %.3f ms > %.1f ms); "
                 "serve metrics of this run do not count\n",
                 load.late_p99_ms, kLateLimitMs);
  }

  // ---- Read capacity, closed loop, on the reader connections.
  std::vector<int> reader_fds(fds.begin() + 1, fds.end());
  const SaturationResult saturation =
      RunSaturation(reader_fds, options.seed, expected);
  report->Tally(saturation.attempted, saturation.wrong);
  report->Check(saturation.drained && saturation.wrong == 0,
                "closed-loop reads: " + std::to_string(saturation.wrong) +
                    " of " + std::to_string(saturation.attempted) +
                    " wrong or unanswered");
  samples.read_rps = saturation.reads_per_s;
  std::fprintf(stderr,
               "closed loop: %.0f reads/s over %zu reads, p99 %.3f ms\n",
               saturation.reads_per_s, saturation.attempted,
               saturation.p99_ms);

  // ---- The final state against the closure of the acknowledged epochs.
  std::vector<std::string> count_reply;
  std::vector<std::string> frontier;
  report->Check(writer.Call("count Path", &count_reply) &&
                    count_reply.size() == 1 &&
                    count_reply[0] == "Path: " +
                                          std::to_string(expected.path_rows) +
                                          " rows",
                "final count Path matches the closure");
  report->Check(writer.Call("dump Frontier", &frontier) &&
                    frontier == expected.frontier,
                "final dump Frontier matches the closure");
  samples.peak_rss_mb = server.PeakRssMb();
  close(writer.fd);
  writer.fd = -1;
  for (Connection& c : reader_conns) {
    close(c.fd);
    c.fd = -1;
  }
  report->Check(server.Stop(), "server exits 0 on SIGTERM");

  // ---- Restart: a fresh server recovers the snapshot and the log tail.
  for (int k = 0; k < kRecoveries; ++k) {
    ServerProcess fresh;
    Connection conn;
    const auto start = Clock::now();
    const bool up = fresh.Start(dir, snapshot_dir) &&
                    conn.Connect(socket_path) && conn.Call("open", nullptr);
    samples.recover_s.push_back(Seconds(start));
    std::vector<std::string> reply;
    report->Check(up && conn.Call("count Path", &reply) &&
                      reply.size() == 1 &&
                      reply[0] == "Path: " +
                                      std::to_string(expected.path_rows) +
                                      " rows",
                  "recovered server serves the final closure");
  }

  ReportEndToEnd(samples, report);

  layers->late_p99_ms = load.late_p99_ms;
  layers->backlog_max = load.backlog_max;
  RecordReadTails(samples, layers);
  layers->client_count_p50_ms = layers->count_p50_ms;
  if (!options.trace) return;

  // ---- Per-layer: the same request stream replayed serially in
  // process, once through the protocol executor (net.*) and once
  // straight through core::Engine (core.*, storage.*).
  ProbeFrontEnd(in.program, report);
  auto parse = [&in, report] {
    auto program = std::make_unique<datalog::Program>();
    Span span("datalog.ParseDatalog");
    const util::Status status =
        datalog::ParseDatalog(in.program, program.get());
    report->Check(status.ok(), "parse: " + status.ToString());
    return program;
  };
  {
    std::unique_ptr<datalog::Program> program = parse();
    core::EngineConfig config;
    config.snapshot_dir = dir + "/replay_net";
    config.checkpoint_every = kCheckpointEvery;
    std::filesystem::create_directories(config.snapshot_dir);
    core::Engine engine(program.get(), config);
    report->Check(engine.Prepare().ok(), "net replay prepare");
    std::mutex write_mutex;
    net::ServeContext ctx;
    ctx.program = program.get();
    ctx.engine = &engine;
    ctx.snapshot_dir = config.snapshot_dir;
    ctx.snapshot_reads = true;
    ctx.deterministic_replies = true;
    ctx.write_mutex = &write_mutex;
    auto exec = [&](const std::string& line, const char* span_name,
                    uint64_t request) {
      CaptureWriter out;
      Span span(span_name, request);
      return net::ExecuteServeLine(&ctx, line, &out) ==
             net::ServeOutcome::kOk;
    };
    report->Check(exec("load Edge " + dir + "/base.csv",
                       "net.ExecuteServeLine.load", 0) &&
                      exec("update", "net.ExecuteServeLine.update", 0),
                  "net replay base");
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Request& r = schedule[i];
      const uint64_t id = i + 1;
      bool ok = true;
      if (r.kind == Kind::kCount) {
        ok = exec("count Path", "net.ExecuteServeLine.count", id);
      } else if (r.kind == Kind::kDump) {
        ok = exec("dump Frontier", "net.ExecuteServeLine.dump", id);
      } else {
        Span span("net.ingest", id);
        ok = exec("load Edge " + dir + "/" +
                      in.batch_files[static_cast<size_t>(r.batch)],
                  "net.ExecuteServeLine.load", id) &&
             exec("update", "net.ExecuteServeLine.update", id);
      }
      report->Check(ok, "net replay request " + std::to_string(id));
    }
  }
  {
    std::unique_ptr<datalog::Program> program = parse();
    EpochReplay replay;
    replay.config.snapshot_dir = dir + "/replay_core";
    std::filesystem::create_directories(replay.config.snapshot_dir);
    replay.relation = FindRelation(*program, "Edge");
    replay.output = FindRelation(*program, "Path");
    for (const std::string& f : in.batch_files) {
      replay.batch_files.push_back(dir + "/" + f);
    }
    replay.fresh_program = parse;
    core::Engine engine(program.get(), replay.config);
    util::Status status;
    {
      Span span("core.Engine.Prepare");
      status = engine.Prepare();
    }
    std::vector<storage::Tuple> base;
    if (status.ok()) {
      Span span("analysis.ReadFactsCsv");
      status = analysis::ReadFactsCsv(dir + "/base.csv", program.get(),
                                      replay.relation, &base);
    }
    if (status.ok()) status = engine.AddFacts(replay.relation, base);
    core::EpochReport first;
    if (status.ok()) status = engine.Update(&first);
    report->Check(status.ok(), "core replay base: " + status.ToString());
    if (!status.ok()) return;
    layers->eval = first.stats;
    ProbeEvaluated(&engine, program.get(), layers, report);
    ProbeEpochs(&engine, program.get(), replay, layers, report);
  }
}

}  // namespace carac::bench
