#ifndef CARAC_BENCHMARK_BENCH_H_
#define CARAC_BENCHMARK_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "datalog/ast.h"
#include "net/framing.h"
#include "storage/tuple.h"

namespace carac::bench {

/// Command-line settings of one workload run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase. Required: run.sh passes
  /// BENCHMARK.json's run_seconds unless told otherwise.
  double seconds = 0;
  bool trace = false;
  /// Flips one expected row so the correctness gate must fail.
  bool self_test = false;
  /// Scratch directory of this run (inside the checkout), removed at exit.
  std::string work_dir;
};

/// Host facts recorded with every run; threads and connections are
/// capped at nproc.
struct Host {
  int nproc = 1;
  std::string uname;
  std::string compiler;
};
const Host& GetHost();

/// Metrics, counts and verdicts of one workload run.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Printed by untraced runs.
  std::vector<Metric> end_to_end;
  /// Printed by `--trace 1` runs.
  std::vector<Metric> per_layer;

  void SetEndToEnd(const std::string& name, double value,
                   const std::string& unit);
  void SetLayer(const std::string& name, double value,
                const std::string& unit);
  /// Counts `n` operations of which `n_failed` failed (an `err` reply, a
  /// wrong answer, no answer). Any failure makes the run incorrect.
  void Tally(uint64_t n, uint64_t n_failed);
  void Attempt(bool ok) { Tally(1, ok ? 0 : 1); }
  /// Attempt, plus a diagnostic on stderr when `ok` is false.
  void Check(bool ok, const std::string& what);
};

/// Epochs between checkpoints: the server's --checkpoint-every and the
/// in-process replays of its request stream.
constexpr int kCheckpointEvery = 10;

/// The end-to-end samples every workload collects, whatever transport
/// carries its requests (see README.md for each metric's definition).
struct SessionSamples {
  std::vector<double> setup_s;
  std::vector<double> eval_s;
  std::vector<double> recover_s;
  std::vector<double> count_ms;
  std::vector<double> dump_ms;
  std::vector<double> ingest_ms;
  double read_rps = 0;
  double peak_rss_mb = 0;
};
void ReportEndToEnd(const SessionSamples& samples, Report* report);

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);
double Seconds(std::chrono::steady_clock::time_point since);

/// One line per tuple, tab-separated raw values (the goldens' format).
std::string Render(const std::vector<storage::Tuple>& rows);

/// Golden anchor: `config` must reproduce tests/goldens/{tc,andersen}
/// byte for byte on the goldens' own inputs before it is measured.
void CheckGoldens(const core::EngineConfig& config, Report* report);

/// An in-process protocol client's response sink: counts the payload,
/// keeps its first line, and prints any diagnostic to stderr.
class CaptureWriter : public net::ResponseWriter {
 public:
  void Payload(std::string_view line) override;
  void Error(std::string_view message) override;

  size_t lines = 0;
  size_t bytes = 0;
  std::string first_line;
};

datalog::PredicateId FindRelation(const datalog::Program& program,
                                  const std::string& name);
bool WriteCsv(const std::string& path,
              const std::vector<storage::Tuple>& rows);
/// This process's peak resident set, MB.
double PeakRssMb();
size_t FileBytes(const std::string& path);
/// Derived rows over every relation of `program`.
size_t TotalRows(const datalog::Program& program);

// ---- Per-layer breakdown of a `--trace 1` run (layers.cc) ----
//
// Per-layer times come from the spans the workloads record around each
// call into a layer (trace.h); the counts below come from the engine's
// public counters. ReportLayers turns both into the same per-layer
// metric set for every workload — a metric whose layer a workload never
// enters reads 0.

struct LayerCounts {
  /// Counters of the workload's full evaluation.
  ir::ExecStats eval;
  uint64_t ir_nodes = 0;
  /// Engine::profiler() summed over indexed columns after that evaluation.
  ir::ColumnProbeStats probes;
  int threads = 1;
  /// Single-thread eval time over multi-thread eval time (1 when the
  /// workload runs one thread).
  double parallel_speedup = 1;
  /// From the EpochReports of the replayed update epochs.
  double seeded_rows_per_epoch = 0;
  uint64_t strata_recomputed = 0;
  double log_bytes_per_fact = 0;
  double snapshot_bytes_per_row = 0;
  double dump_bytes = 0;
  /// Read latencies too noisy on a shared host to bound end to end.
  double count_p50_ms = 0;
  double count_p99_ms = 0;
  double dump_p99_ms = 0;
  /// Client-observed count p50 over a socket; 0 for in-process clients.
  double client_count_p50_ms = 0;
  double late_p99_ms = 0;
  uint64_t backlog_max = 0;
  uint64_t count_samples = 0;
  uint64_t dump_samples = 0;
  uint64_t ingest_samples = 0;
};

/// Front end and planner over the workload's rule text: parse, stratify,
/// lower a fresh copy, profile access paths.
void ProbeFrontEnd(const std::string& rules_text, Report* report);
/// Right after a full evaluation: IR size, index counters, join
/// reordering and lambda compilation over the post-evaluation statistics.
void ProbeEvaluated(core::Engine* engine, datalog::Program* program,
                    LayerCounts* counts, Report* report);

/// Fact batches replayed straight through core::Engine, without the
/// protocol: ReadFactsCsv/AddFacts/Update/PinReadView per epoch, an
/// explicit Checkpoint every kCheckpointEvery epochs, then a Restore
/// into a fresh engine built by `fresh_program`.
struct EpochReplay {
  datalog::PredicateId relation = 0;
  std::vector<std::string> batch_files;
  core::EngineConfig config;  // with snapshot_dir set
  std::function<std::unique_ptr<datalog::Program>()> fresh_program;
  datalog::PredicateId output = 0;
};
/// `engine` has evaluated `program` under replay.config.
void ProbeEpochs(core::Engine* engine, datalog::Program* program,
                 const EpochReplay& replay, LayerCounts* counts,
                 Report* report);

/// Read latency percentiles and sample counts of the run's samples.
void RecordReadTails(const SessionSamples& samples, LayerCounts* layers);
void ReportLayers(const LayerCounts& counts, double run_seconds,
                  Report* report);

// ---- Workloads ----

/// Each runs one workload end to end: golden anchor, set-up, evaluation,
/// the serving phase, restart and the correctness gate. End-to-end
/// metrics land in `report`; a traced run also fills `layers`.
bool IsBatchWorkload(const std::string& name);
void RunBatchWorkload(const Options& options, Report* report,
                      LayerCounts* layers);
void RunServeWorkload(const Options& options, Report* report,
                      LayerCounts* layers);

}  // namespace carac::bench

#endif  // CARAC_BENCHMARK_BENCH_H_
