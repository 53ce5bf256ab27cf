// Concurrency test net for the socket serving layer (src/net/):
//
//   - Multi-client determinism: N concurrent clients run interleaved
//     sessions against one server; every session's response transcript
//     must be byte-identical to a serial-oracle replay of the same
//     session on a fresh server. The workload is partitioned (session i
//     touches only Edge_i/Path_i) so correct snapshot semantics make
//     each transcript a pure function of its own request stream — any
//     torn read, lost response, cross-session leak, or misrouted reply
//     breaks byte-identity.
//   - Reads complete while a write epoch is in flight: a write is parked
//     inside the engine's write critical section (the deterministic
//     write_stall_for_test hook — no timing games) and a second client
//     pinned to a different worker completes count/dump/stats against
//     the last CLOSED epoch's snapshot.
//   - Streaming dump regression: the zero-copy SortedRowIds dump path
//     must reproduce tests/goldens/tc.golden byte-for-byte (the golden
//     predates the streaming rewrite).
//
// The whole suite runs under TSan in CI (.github/workflows/ci.yml): the
// share-nothing dispatcher/worker routing and the copy-on-retire arena
// publication are exactly the kind of code where a missing
// happens-before edge hides until the scheduler gets unlucky.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "core/engine.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "harness/runner.h"
#include "net/commands.h"
#include "net/framing.h"
#include "net/server.h"
#include "util/status.h"

#ifndef CARAC_GOLDEN_DIR
#error "CARAC_GOLDEN_DIR must point at tests/goldens"
#endif

namespace carac {
namespace {

/// Fresh scratch directory under the test temp root.
std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("carac_srv_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Unix socket paths live in sun_path (~107 bytes); build short ones
/// under /tmp instead of the (possibly deep) test temp root.
std::string SocketPath(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/carac_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// ---------------------------------------------------------------------------
// A minimal blocking protocol client.

class Client {
 public:
  static Client ConnectUnix(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CARAC_CHECK(fd >= 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CARAC_CHECK(path.size() < sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    CARAC_CHECK(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
        0);
    return Client(fd);
  }

  static Client ConnectTcp(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    CARAC_CHECK(fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    CARAC_CHECK(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
        0);
    return Client(fd);
  }

  Client(Client&& other) noexcept : fd_(other.fd_), buffer_(other.buffer_) {
    other.fd_ = -1;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client& operator=(Client&&) = delete;

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    size_t offset = 0;
    while (offset < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + offset, framed.size() - offset, 0);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      offset += static_cast<size_t>(n);
    }
  }

  /// Sends raw bytes (no terminator added); false once the server has
  /// closed the connection.
  bool SendRaw(const std::string& bytes) {
    size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + offset,
                               bytes.size() - offset, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      offset += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one complete response — payload lines up to and including the
  /// "ok" / "err ..." terminator — and returns the raw wire bytes. A
  /// server that stops responding trips the receive timeout rather than
  /// hanging the test.
  std::string ReadResponse() {
    std::string out;
    std::string line;
    for (;;) {
      if (!NextLine(&line)) {
        ADD_FAILURE() << "connection closed mid-response; got so far: " << out;
        return out;
      }
      out += line;
      out += '\n';
      if (line == "ok" || line.rfind("err ", 0) == 0) return out;
    }
  }

  /// True when the peer has closed the connection (post-quit handshake).
  bool ReadEof() {
    char byte;
    for (;;) {
      const ssize_t n = ::recv(fd_, &byte, 1, 0);
      if (n < 0 && errno == EINTR) continue;
      return n == 0;
    }
  }

  /// True when the peer has closed the connection, cleanly or — when it
  /// closed with bytes of ours still unread — by reset.
  bool ReadClosed() {
    char byte;
    for (;;) {
      const ssize_t n = ::recv(fd_, &byte, 1, 0);
      if (n < 0 && errno == EINTR) continue;
      return n == 0 || (n < 0 && errno == ECONNRESET);
    }
  }

 private:
  explicit Client(int fd) : fd_(fd) {
    // A wedged server should fail the test, not hang it until the CTest
    // timeout reaps the whole suite.
    timeval timeout{};
    timeout.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  bool NextLine(std::string* out) {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        out->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;  // EOF or timeout.
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// An in-process server over a fresh engine.

struct TestServer {
  std::unique_ptr<datalog::Program> program;
  std::unique_ptr<core::Engine> engine;
  std::mutex write_mutex;
  net::ServeContext ctx;
  std::unique_ptr<net::Server> server;
  std::string unix_path;

  void Start(const std::string& source, int num_workers, int tcp_port = -1,
             std::function<void()> write_stall = {}) {
    program = std::make_unique<datalog::Program>();
    ASSERT_TRUE(datalog::ParseDatalog(source, program.get()).ok());
    engine = std::make_unique<core::Engine>(
        program.get(), harness::InterpretedConfig(/*use_indexes=*/true));
    ASSERT_TRUE(engine->Prepare().ok());

    ctx.program = program.get();
    ctx.engine = engine.get();
    ctx.snapshot_reads = true;
    ctx.deterministic_replies = true;
    ctx.write_mutex = &write_mutex;
    ctx.write_stall_for_test = std::move(write_stall);

    net::ServerConfig config;
    unix_path = SocketPath("srv");
    config.unix_path = unix_path;
    config.tcp_port = tcp_port;
    config.num_workers = num_workers;
    server = std::make_unique<net::Server>(&ctx, config);
    ASSERT_TRUE(server->Start().ok());
  }

  void Stop() {
    server->RequestShutdown();
    server->Wait();
  }
};

// ---------------------------------------------------------------------------
// The partitioned workload: session i owns Edge_i/Path_i exclusively, so
// its responses cannot depend on how OTHER sessions interleave.

constexpr int kPartitions = 8;

std::string PartitionedProgram() {
  std::ostringstream out;
  for (int i = 0; i < kPartitions; ++i) {
    out << "Path" << i << "(x,y) :- Edge" << i << "(x,y).\n"
        << "Path" << i << "(x,z) :- Path" << i << "(x,y), Edge" << i
        << "(y,z).\n";
  }
  return out.str();
}

/// Session i loads a chain of (3 + i) edges; the transitive closure of a
/// chain with E edges has E*(E+1)/2 pairs — distinct per session, so a
/// cross-session mixup cannot produce an identical count by accident.
int ChainEdges(int i) { return 3 + i; }
int ExpectedClosure(int i) { return ChainEdges(i) * (ChainEdges(i) + 1) / 2; }

std::string WriteChainCsv(const std::string& dir, int i) {
  const std::string path = dir + "/edges" + std::to_string(i) + ".csv";
  std::ofstream out(path);
  for (int e = 0; e < ChainEdges(i); ++e) {
    out << (e + 1) << ',' << (e + 2) << '\n';
  }
  return path;
}

struct Command {
  std::string line;
  bool silent = false;  // Blank/comment lines get no response.
};

std::vector<Command> SessionScript(int i, const std::string& csv_path) {
  const std::string suffix = std::to_string(i);
  return {
      {"", true},
      {"   # session " + suffix + " warming up", true},
      {"load Edge" + suffix + " " + csv_path},
      {"count NoSuchRelation" + suffix},  // Deterministic diagnostic.
      {"update"},
      {"count Path" + suffix},
      {"dump Path" + suffix},
      {"quit"},
  };
}

/// Runs one session to completion and returns the concatenated raw wire
/// responses — the byte string the determinism test compares.
std::string RunSession(Client* client, const std::vector<Command>& script) {
  std::string transcript;
  for (const Command& command : script) {
    client->Send(command.line);
    if (!command.silent) transcript += client->ReadResponse();
  }
  EXPECT_TRUE(client->ReadEof()) << "server did not close after quit";
  return transcript;
}

/// Runs sessions 0..n-1 against a FRESH server. Concurrent mode races
/// them on n threads; serial mode (the oracle) runs each to completion
/// before the next starts.
std::vector<std::string> RunSessionNet(int n, bool concurrent,
                                       int num_workers,
                                       const std::vector<std::string>& csvs) {
  TestServer ts;
  ts.Start(PartitionedProgram(), num_workers);
  std::vector<std::string> transcripts(static_cast<size_t>(n));
  auto run_one = [&](int i) {
    Client client = Client::ConnectUnix(ts.unix_path);
    transcripts[static_cast<size_t>(i)] =
        RunSession(&client, SessionScript(i, csvs[static_cast<size_t>(i)]));
  };
  if (concurrent) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) threads.emplace_back(run_one, i);
    for (std::thread& t : threads) t.join();
  } else {
    for (int i = 0; i < n; ++i) run_one(i);
  }
  ts.Stop();
  return transcripts;
}

TEST(ServerTest, MultiClientSessionsMatchSerialOracle) {
  const std::string dir = ScratchDir("determinism");
  std::vector<std::string> csvs;
  for (int i = 0; i < kPartitions; ++i) csvs.push_back(WriteChainCsv(dir, i));

  for (const int n : {2, 4, 8}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<std::string> oracle =
        RunSessionNet(n, /*concurrent=*/false, /*num_workers=*/1, csvs);
    const std::vector<std::string> live =
        RunSessionNet(n, /*concurrent=*/true, /*num_workers=*/4, csvs);
    for (int i = 0; i < n; ++i) {
      SCOPED_TRACE("session=" + std::to_string(i));
      EXPECT_EQ(live[static_cast<size_t>(i)], oracle[static_cast<size_t>(i)]);
      // Guard against the oracle and the live run agreeing on garbage.
      EXPECT_NE(oracle[static_cast<size_t>(i)].find(
                    "Path" + std::to_string(i) + ": " +
                    std::to_string(ExpectedClosure(i)) + " rows"),
                std::string::npos)
          << oracle[static_cast<size_t>(i)];
      EXPECT_NE(oracle[static_cast<size_t>(i)].find(
                    "err serve: unknown relation: NoSuchRelation"),
                std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Reads complete while a write epoch is in flight.

/// Deterministic write-stall: Arm() makes the NEXT write park inside the
/// engine's write critical section until Release(). No sleeps anywhere —
/// the test sequences on the condition variable.
struct WriteStall {
  std::mutex m;
  std::condition_variable cv;
  bool armed = false;
  bool stalled = false;
  bool released = false;

  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(m);
      if (!armed) return;
      armed = false;
      stalled = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    };
  }
  void Arm() {
    std::lock_guard<std::mutex> lock(m);
    armed = true;
  }
  void AwaitStalled() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return stalled; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(m);
    released = true;
    cv.notify_all();
  }
};

TEST(ServerTest, ReadsCompleteWhileWriteEpochInFlight) {
  const std::string dir = ScratchDir("stall");
  const std::string csv = WriteChainCsv(dir, 0);
  WriteStall stall;
  TestServer ts;
  ts.Start(PartitionedProgram(), /*num_workers=*/2, /*tcp_port=*/-1,
           stall.Hook());

  // Sessions are pinned round-robin in accept order; completing a
  // request on `writer` before `reader` connects guarantees the two land
  // on different workers.
  Client writer = Client::ConnectUnix(ts.unix_path);
  writer.Send("count Path0");
  EXPECT_EQ(writer.ReadResponse(), "| Path0: 0 rows\nok\n");
  Client reader = Client::ConnectUnix(ts.unix_path);
  reader.Send("count Path0");
  EXPECT_EQ(reader.ReadResponse(), "| Path0: 0 rows\nok\n");

  writer.Send("load Edge0 " + csv);  // Unarmed: passes through the hook.
  writer.ReadResponse();

  stall.Arm();
  writer.Send("update");  // Parks inside the write section.
  stall.AwaitStalled();

  // The write epoch is open RIGHT NOW, and stays open until Release().
  // Every read below must still complete — served from the snapshot of
  // the last closed epoch, in which the loaded facts are not yet
  // visible. If reads took the write path (or the write mutex), these
  // would hang until the receive timeout fails the test.
  reader.Send("count Edge0");
  EXPECT_EQ(reader.ReadResponse(), "| Edge0: 0 rows\nok\n");
  reader.Send("dump Path0");
  EXPECT_EQ(reader.ReadResponse(), "ok\n");
  reader.Send("stats");
  const std::string stats = reader.ReadResponse();
  EXPECT_NE(stats.find("ok\n"), std::string::npos);

  stall.Release();
  EXPECT_EQ(writer.ReadResponse(), "ok\n");  // The stalled update lands.

  // The closed epoch is now visible to everyone.
  reader.Send("count Path0");
  EXPECT_EQ(reader.ReadResponse(),
            "| Path0: " + std::to_string(ExpectedClosure(0)) + " rows\nok\n");

  writer.Send("quit");
  EXPECT_EQ(writer.ReadResponse(), "ok\n");
  EXPECT_TRUE(writer.ReadEof());
  reader.Send("quit");
  EXPECT_EQ(reader.ReadResponse(), "ok\n");
  EXPECT_TRUE(reader.ReadEof());
  ts.Stop();
}

// ---------------------------------------------------------------------------
// TCP transport, error contract, and shutdown hygiene.

TEST(ServerTest, TcpSmokeAndErrorContract) {
  TestServer ts;
  ts.Start(PartitionedProgram(), /*num_workers=*/2, /*tcp_port=*/0);
  ASSERT_GT(ts.server->tcp_port(), 0);

  Client client = Client::ConnectTcp(ts.server->tcp_port());
  client.Send("count Path0");
  EXPECT_EQ(client.ReadResponse(), "| Path0: 0 rows\nok\n");
  client.Send("bogus");
  EXPECT_EQ(client.ReadResponse(), "err serve: unknown command: bogus\n");
  client.Send("update trailing");
  EXPECT_EQ(client.ReadResponse(),
            "err serve: update takes no arguments (got \"trailing\")\n");
  client.Send("load Edge0");
  EXPECT_EQ(client.ReadResponse(), "err serve: load needs a csv path\n");
  client.Send("quit");
  EXPECT_EQ(client.ReadResponse(), "ok\n");
  EXPECT_TRUE(client.ReadEof());
  ts.Stop();
  EXPECT_FALSE(ts.server->fatal_error());
}

TEST(ServerTest, ShutdownUnlinksUnixSocket) {
  TestServer ts;
  ts.Start(PartitionedProgram(), /*num_workers=*/1);
  EXPECT_TRUE(std::filesystem::exists(ts.unix_path));
  ts.Stop();
  EXPECT_FALSE(std::filesystem::exists(ts.unix_path));
}

TEST(ServerTest, AbruptDisconnectDoesNotWedgeOtherSessions) {
  TestServer ts;
  ts.Start(PartitionedProgram(), /*num_workers=*/2);
  {
    Client rude = Client::ConnectUnix(ts.unix_path);
    rude.Send("count Path0");
    rude.ReadResponse();
  }  // Closed without quit: the dispatcher must retire it on EOF.
  Client polite = Client::ConnectUnix(ts.unix_path);
  polite.Send("count Path1");
  EXPECT_EQ(polite.ReadResponse(), "| Path1: 0 rows\nok\n");
  polite.Send("quit");
  EXPECT_EQ(polite.ReadResponse(), "ok\n");
  EXPECT_TRUE(polite.ReadEof());
  ts.Stop();
}

TEST(ServerTest, OverlongLineIsRejectedAndOnlyItsSessionCloses) {
  TestServer ts;
  ts.Start(PartitionedProgram(), /*num_workers=*/1);  // One shared worker.
  Client hog = Client::ConnectUnix(ts.unix_path);
  Client neighbour = Client::ConnectUnix(ts.unix_path);
  // A valid request, then twice the cap with no terminator: the server
  // must answer the first, reject the second once it passes the cap
  // (without reading the rest), and close.
  hog.SendRaw("count Path0\n" +
              std::string(2 * net::kMaxRequestLineBytes, 'a'));
  EXPECT_EQ(hog.ReadResponse(), "| Path0: 0 rows\nok\n");
  EXPECT_EQ(hog.ReadResponse(), "err request line exceeds " +
                                    std::to_string(net::kMaxRequestLineBytes) +
                                    " bytes\n");
  EXPECT_TRUE(hog.ReadClosed());

  neighbour.Send("count Path1");
  EXPECT_EQ(neighbour.ReadResponse(), "| Path1: 0 rows\nok\n");
  neighbour.Send("quit");
  EXPECT_EQ(neighbour.ReadResponse(), "ok\n");
  EXPECT_TRUE(neighbour.ReadEof());
  ts.Stop();
  EXPECT_FALSE(ts.server->fatal_error());
}

// ---------------------------------------------------------------------------
// Streaming dump regression: the zero-copy SortedRowIds path must keep
// reproducing the committed golden byte-for-byte, in both read modes.

class CollectingWriter : public net::ResponseWriter {
 public:
  void Payload(std::string_view line) override {
    text_.append(line);
    text_ += '\n';
  }
  void Error(std::string_view message) override {
    ADD_FAILURE() << "unexpected diagnostic: " << message;
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

TEST(ServerTest, StreamingDumpMatchesTcGolden) {
  const auto edges = analysis::GenerateSparseGraph(
      /*seed=*/11, /*num_vertices=*/300, /*num_edges=*/900, /*zipf_s=*/1.1);
  analysis::Workload w = analysis::MakeTransitiveClosure(
      edges, analysis::RuleOrder::kHandOptimized);
  core::Engine engine(w.program.get(),
                      harness::InterpretedConfig(/*use_indexes=*/true));
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Run().ok());

  std::ifstream in(std::string(CARAC_GOLDEN_DIR) + "/tc.golden");
  ASSERT_TRUE(in.good());
  std::stringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(golden.str().empty());

  const std::string dump_cmd = "dump " + w.program->PredicateName(w.output);
  net::ServeContext ctx;
  ctx.program = w.program.get();
  ctx.engine = &engine;

  ctx.snapshot_reads = true;  // Server read path: the published view.
  CollectingWriter snapshot;
  EXPECT_EQ(net::ExecuteServeLine(&ctx, dump_cmd, &snapshot),
            net::ServeOutcome::kOk);
  EXPECT_EQ(snapshot.text(), golden.str());

  ctx.snapshot_reads = false;  // Stdin-serve read path: the live store.
  CollectingWriter live;
  EXPECT_EQ(net::ExecuteServeLine(&ctx, dump_cmd, &live),
            net::ServeOutcome::kOk);
  EXPECT_EQ(live.text(), golden.str());
}

// ---- net::LineBuffer: request reassembly from arbitrary read chunks ----

std::vector<std::string> DrainLines(net::LineBuffer* buffer) {
  std::vector<std::string> lines;
  std::string line;
  while (buffer->NextLine(&line)) lines.push_back(line);
  return lines;
}

void Feed(net::LineBuffer* buffer, const std::string& chunk) {
  buffer->Append(chunk.data(), chunk.size());
}

TEST(LineBufferTest, ManyLinesInOneChunk) {
  net::LineBuffer buffer;
  std::string chunk;
  std::vector<std::string> expected;
  for (int i = 0; i < 5000; ++i) {
    expected.push_back("count Path" + std::to_string(i));
    chunk += expected.back() + "\n";
  }
  Feed(&buffer, chunk);
  EXPECT_EQ(DrainLines(&buffer), expected);
  EXPECT_EQ(buffer.pending_bytes(), 0u);
}

TEST(LineBufferTest, LineSplitAcrossAppends) {
  net::LineBuffer buffer;
  Feed(&buffer, "dump Pa");
  EXPECT_TRUE(DrainLines(&buffer).empty());
  Feed(&buffer, "th\ncou");
  EXPECT_EQ(DrainLines(&buffer), std::vector<std::string>{"dump Path"});
  Feed(&buffer, "nt Ed");
  EXPECT_TRUE(DrainLines(&buffer).empty());
  Feed(&buffer, "ge\n");
  EXPECT_EQ(DrainLines(&buffer), std::vector<std::string>{"count Edge"});
}

TEST(LineBufferTest, StripsCarriageReturnOfCrlf) {
  net::LineBuffer buffer;
  Feed(&buffer, "stats\r\nupdate\r");
  EXPECT_EQ(DrainLines(&buffer), std::vector<std::string>{"stats"});
  Feed(&buffer, "\n");
  EXPECT_EQ(DrainLines(&buffer), std::vector<std::string>{"update"});
}

TEST(LineBufferTest, EmptyLinesSurvive) {
  net::LineBuffer buffer;
  Feed(&buffer, "\n\nstats\n\r\n");
  EXPECT_EQ(DrainLines(&buffer),
            (std::vector<std::string>{"", "", "stats", ""}));
}

TEST(LineBufferTest, PendingBytesCountsOnlyThePartialLine) {
  net::LineBuffer buffer;
  Feed(&buffer, "count Path\ndump");
  EXPECT_EQ(buffer.pending_bytes(), 15u);
  EXPECT_EQ(DrainLines(&buffer), std::vector<std::string>{"count Path"});
  EXPECT_EQ(buffer.pending_bytes(), 4u);
  Feed(&buffer, " Ed");
  EXPECT_EQ(buffer.pending_bytes(), 7u);
  Feed(&buffer, "ge\n");
  EXPECT_EQ(DrainLines(&buffer), std::vector<std::string>{"dump Edge"});
  EXPECT_EQ(buffer.pending_bytes(), 0u);
}

}  // namespace
}  // namespace carac
