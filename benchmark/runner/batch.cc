// The batch workloads: one program evaluated to a fixpoint in-process
// through core::Engine, then served through net::ExecuteServeLine (the
// `carac serve` command surface) — fact batches, counts and dumps —
// and restarted from its durable state.
//
// Inputs. Each workload builds its program with analysis::Make* under a
// FIXED structure seed and then relabels every EDB value through a
// permutation drawn from --seed. The seed therefore changes every input
// value, while the work — tuples considered, join plans, compilations —
// stays identical. A fresh structure per seed would not do: CSPA at 600
// tuples takes 0.5 s on one structure seed and 4.1 s on another (its
// considered tuples swing 16M–146M with the JIT's plan luck), which
// would bury any change to the engine under input noise.

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "analysis/programs.h"
#include "bench.h"
#include "harness/runner.h"
#include "net/commands.h"
#include "storage/symbol_table.h"
#include "trace.h"
#include "util/rng.h"

namespace carac::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// Held-out facts of the ingest relation, one `load` + `update` each.
/// Odd, so the ingest median is one epoch's cost rather than the mean of
/// two epochs whose costs can differ tenfold.
constexpr int kIngestEpochs = 11;
constexpr int kCountsPerRound = 250;
constexpr int kDumpsPerRound = 2;
/// Measured rounds (after the warm-up round) at least and at most.
constexpr int kMinRounds = 5;
constexpr int kMaxRounds = 60;

// Sized so one Run() takes about a second on one core of a 4-vCPU
// Xeon VM.
constexpr uint64_t kCspaStructureSeed = 5;
constexpr int64_t kCspaTuples = 600;
constexpr uint64_t kAndersenStructureSeed = 7;
constexpr int64_t kAndersenScale = 6;

struct BatchWorkload {
  analysis::Workload (*make)(analysis::RuleOrder order);
  analysis::RuleOrder order;
  core::EngineConfig config;
  /// Source of the held-out ingest batches.
  const char* ingest_relation;
};

analysis::Workload MakeCspaInput(analysis::RuleOrder order) {
  analysis::CspaConfig config;
  config.seed = kCspaStructureSeed;
  config.total_tuples = kCspaTuples;
  return analysis::MakeCspa(config, order);
}

analysis::Workload MakeAndersenInput(analysis::RuleOrder order) {
  analysis::SListConfig config;
  config.seed = kAndersenStructureSeed;
  config.scale = kAndersenScale;
  return analysis::MakeAndersen(config, order);
}

BatchWorkload Lookup(const std::string& name) {
  BatchWorkload w;
  if (name == "cspa_unopt_jit") {
    w.make = MakeCspaInput;
    w.order = analysis::RuleOrder::kUnoptimized;
    w.config = harness::JitConfigOf(
        backends::BackendKind::kLambda, /*async=*/false,
        /*use_indexes=*/true, core::Granularity::kUnion,
        backends::CompileMode::kFull);
    w.ingest_relation = "Assign";
  } else {
    w.make = MakeAndersenInput;
    w.order = analysis::RuleOrder::kHandOptimized;
    w.config = core::EngineConfig{};
    if (name == "andersen_par") {
      // Half the CPUs, at most 4: on a shared 4-vCPU host, a pool on
      // every vCPU drifted +-17% run to run against +-11% on two.
      w.config.num_threads = std::min(4, std::max(1, GetHost().nproc / 2));
    }
    // A new allocation site flows through every alias of its list, so
    // each held-out AddrOf fact is a real epoch (most Assign facts
    // change nothing).
    w.ingest_relation = "AddrOf";
  }
  return w;
}

/// The reference evaluator the outputs must match: a different engine
/// (pull), the hand-optimized order, one thread, no JIT.
core::EngineConfig ReferenceConfig() {
  core::EngineConfig config;
  config.engine_style = ir::EngineStyle::kPull;
  return config;
}

struct Input {
  analysis::Workload workload;
  datalog::PredicateId ingest = datalog::kInvalidPredicate;
  /// Held-out facts of `ingest`, in generation order (empty when the
  /// input was built with them included).
  std::vector<storage::Tuple> tail;
};

/// Builds the workload's program, relabels its EDB through the seed's
/// permutation and holds out the last kIngestEpochs facts of the ingest
/// relation (or keeps them, for the reference).
Input MakeInput(const BatchWorkload& spec, analysis::RuleOrder order,
                uint64_t seed, bool hold_out_tail) {
  Span span("analysis.factgen");
  Input in;
  in.workload = spec.make(order);
  datalog::Program& program = *in.workload.program;
  storage::DatabaseSet& db = program.db();
  in.ingest = FindRelation(program, spec.ingest_relation);

  std::vector<std::vector<storage::Tuple>> facts(program.NumPredicates());
  storage::Value max_value = 0;
  for (datalog::PredicateId id = 0; id < program.NumPredicates(); ++id) {
    if (program.IsIdb(id)) continue;
    const storage::Relation& rel = db.Get(id, storage::DbKind::kDerived);
    for (storage::RowId row = 0; row < rel.NumRows(); ++row) {
      facts[id].push_back(rel.View(row).ToTuple());
      for (storage::Value v : facts[id].back()) {
        if (!storage::SymbolTable::IsSymbol(v)) {
          max_value = std::max(max_value, v);
        }
      }
    }
    db.ClearFacts(id);
  }

  std::vector<storage::Value> relabel(static_cast<size_t>(max_value) + 1);
  std::iota(relabel.begin(), relabel.end(), 0);
  util::Rng rng(seed);
  for (size_t i = relabel.size(); i > 1; --i) {
    std::swap(relabel[i - 1], relabel[rng.NextBounded(i)]);
  }

  for (datalog::PredicateId id = 0; id < program.NumPredicates(); ++id) {
    const size_t held =
        hold_out_tail && id == in.ingest
            ? std::min<size_t>(kIngestEpochs, facts[id].size())
            : 0;
    const size_t keep = facts[id].size() - held;
    for (size_t i = 0; i < facts[id].size(); ++i) {
      storage::Tuple t = facts[id][i];
      for (storage::Value& v : t) {
        if (!storage::SymbolTable::IsSymbol(v) && v >= 0) {
          v = relabel[static_cast<size_t>(v)];
        }
      }
      if (i < keep) {
        program.AddFact(id, std::move(t));
      } else {
        in.tail.push_back(std::move(t));
      }
    }
  }
  return in;
}

std::string RulesText(const datalog::Program& program) {
  std::string text;
  for (const datalog::Rule& rule : program.rules()) {
    text += program.RuleToString(rule) + "\n";
  }
  return text;
}

net::ServeOutcome Execute(net::ServeContext* ctx, const std::string& line,
                          const char* span_name, uint64_t request,
                          CaptureWriter* out) {
  Span span(span_name, request);
  return net::ExecuteServeLine(ctx, line, out);
}

/// What one round observed, for the cross-round consistency checks.
struct RoundOutput {
  size_t base_rows = 0;
  std::vector<storage::Tuple> final_rows;
};

/// One round: set up a fresh durable engine, evaluate, checkpoint, ingest
/// the held-out batches and read through the serve command surface, then
/// restart a second engine from the durable state. Samples of round 0
/// (the warm-up) are dropped by the caller.
RoundOutput RunRound(const Options& options, const BatchWorkload& spec,
                     const std::vector<std::string>& batch_files, int round,
                     SessionSamples* samples, LayerCounts* layers,
                     Report* report) {
  const std::string snapshot_dir =
      options.work_dir + "/snapshot" + std::to_string(round);
  std::filesystem::create_directories(snapshot_dir);
  core::EngineConfig durable = spec.config;
  durable.snapshot_dir = snapshot_dir;
  RoundOutput result;
  std::string output_name;
  {
    const auto setup_start = Clock::now();
    Input in = MakeInput(spec, spec.order, options.seed, true);
    datalog::Program& program = *in.workload.program;
    const datalog::PredicateId output = in.workload.output;
    output_name = program.PredicateName(output);
    core::Engine engine(&program, durable);
    util::Status status;
    {
      Span span("core.Engine.Prepare");
      status = engine.Prepare();
    }
    samples->setup_s.push_back(Seconds(setup_start));
    report->Check(status.ok(), "prepare: " + status.ToString());
    const auto eval_start = Clock::now();
    {
      Span span("core.Engine.Run");
      status = engine.Run();
    }
    samples->eval_s.push_back(Seconds(eval_start));
    report->Check(status.ok(), "run: " + status.ToString());
    result.base_rows = engine.ResultSize(output);
    if (round == 0) {
      layers->eval = engine.stats();
      if (options.trace) ProbeEvaluated(&engine, &program, layers, report);
    }
    {
      Span span("core.Engine.Checkpoint");
      status = engine.Checkpoint();
    }
    report->Check(status.ok(), "checkpoint: " + status.ToString());

    net::ServeContext ctx;
    ctx.program = &program;
    ctx.engine = &engine;
    ctx.snapshot_dir = snapshot_dir;
    ctx.snapshot_reads = true;
    ctx.deterministic_replies = true;

    uint64_t request = 0;
    for (const std::string& file : batch_files) {
      CaptureWriter load_out;
      CaptureWriter update_out;
      const auto start = Clock::now();
      net::ServeOutcome load;
      net::ServeOutcome update;
      {
        Span span("net.ingest", ++request);
        load = Execute(&ctx,
                       "load " + std::string(spec.ingest_relation) + " " + file,
                       "net.ExecuteServeLine.load", request, &load_out);
        update = Execute(&ctx, "update", "net.ExecuteServeLine.update",
                         request, &update_out);
      }
      samples->ingest_ms.push_back(Seconds(start) * 1e3);
      report->Check(load == net::ServeOutcome::kOk &&
                        update == net::ServeOutcome::kOk,
                    "ingest " + file);
    }
    const size_t final_size = engine.ResultSize(output);

    // Reads, closed loop from one in-process client: counts, then dumps
    // of the whole output relation (a batch user's read is the analysis
    // result).
    const std::string count_line = "count " + output_name;
    const std::string expected_count =
        output_name + ": " + std::to_string(final_size) + " rows";
    for (int i = 0; i < kCountsPerRound; ++i) {
      CaptureWriter out;
      const auto start = Clock::now();
      const net::ServeOutcome outcome = Execute(
          &ctx, count_line, "net.ExecuteServeLine.count", ++request, &out);
      samples->count_ms.push_back(Seconds(start) * 1e3);
      report->Check(outcome == net::ServeOutcome::kOk &&
                        out.first_line == expected_count,
                    count_line + " replied '" + out.first_line +
                        "', expected '" + expected_count + "'");
    }
    for (int i = 0; i < kDumpsPerRound; ++i) {
      CaptureWriter out;
      const auto start = Clock::now();
      const net::ServeOutcome outcome =
          Execute(&ctx, "dump " + output_name, "net.ExecuteServeLine.dump",
                  ++request, &out);
      samples->dump_ms.push_back(Seconds(start) * 1e3);
      layers->dump_bytes = static_cast<double>(out.bytes);
      report->Check(outcome == net::ServeOutcome::kOk &&
                        out.lines == final_size,
                    "dump " + output_name + " returned " +
                        std::to_string(out.lines) + " of " +
                        std::to_string(final_size) + " rows");
    }
    result.final_rows = engine.Results(output);
  }

  // Restart: a fresh engine recovers the snapshot plus the logged
  // batches. Input generation is excluded; Prepare is included, as a
  // restarting process pays it.
  Input in = MakeInput(spec, spec.order, options.seed, true);
  core::Engine engine(in.workload.program.get(), durable);
  const auto start = Clock::now();
  util::Status status = engine.Prepare();
  if (status.ok()) {
    Span span("core.Engine.Restore");
    status = engine.Restore();
  }
  samples->recover_s.push_back(Seconds(start));
  report->Check(status.ok() && engine.Results(in.workload.output) ==
                                   result.final_rows,
                "recovered " + output_name + ": " + status.ToString());
  std::filesystem::remove_all(snapshot_dir);
  return result;
}

}  // namespace

bool IsBatchWorkload(const std::string& name) {
  return name == "cspa_unopt_jit" || name == "andersen_interp" ||
         name == "andersen_par";
}

void RunBatchWorkload(const Options& options, Report* report,
                      LayerCounts* layers) {
  const BatchWorkload spec = Lookup(options.workload);
  CheckGoldens(spec.config, report);
  layers->threads = spec.config.num_threads;

  std::vector<std::string> batch_files;
  std::string output_name;
  {
    Input in = MakeInput(spec, spec.order, options.seed, true);
    output_name = in.workload.program->PredicateName(in.workload.output);
    for (size_t i = 0; i < in.tail.size(); ++i) {
      batch_files.push_back(options.work_dir + "/b" + std::to_string(i) +
                            ".csv");
      report->Check(WriteCsv(batch_files.back(), {in.tail[i]}),
                    "write " + batch_files.back());
    }
    if (options.trace) ProbeFrontEnd(RulesText(*in.workload.program), report);
  }

  // Rounds until --seconds have passed, so every metric's samples spread
  // over the whole measured phase instead of one burst of it.
  SessionSamples samples;
  RoundOutput first;
  // Each round replays the same held-out epochs: epoch_ms[e] collects
  // epoch e's latency from every round.
  std::vector<std::vector<double>> epoch_ms(batch_files.size());
  // Each round's closed-loop `count` rate: counts per second of their
  // summed latency.
  std::vector<double> count_rps;
  const auto phase_start = Clock::now();
  for (int round = 0; round <= kMaxRounds; ++round) {
    if (round > kMinRounds && Seconds(phase_start) >= options.seconds) break;
    SessionSamples round_samples;
    RoundOutput out = RunRound(options, spec, batch_files, round,
                               &round_samples, layers, report);
    if (round == 0) {
      first = std::move(out);
      continue;  // Warm-up.
    }
    report->Check(out.base_rows == first.base_rows &&
                      out.final_rows == first.final_rows,
                  "round " + std::to_string(round) + " matches round 0");
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&samples.setup_s, round_samples.setup_s);
    append(&samples.eval_s, round_samples.eval_s);
    append(&samples.recover_s, round_samples.recover_s);
    append(&samples.count_ms, round_samples.count_ms);
    append(&samples.dump_ms, round_samples.dump_ms);
    for (size_t e = 0; e < round_samples.ingest_ms.size(); ++e) {
      epoch_ms[e].push_back(round_samples.ingest_ms[e]);
    }
    double count_ms = 0;
    for (double ms : round_samples.count_ms) count_ms += ms;
    count_rps.push_back(
        static_cast<double>(round_samples.count_ms.size()) / (count_ms * 1e-3));
  }
  // The epochs are a fixed set, not independent draws: each epoch's cost
  // is its median over the rounds (which drops a one-off stall), and the
  // ingest percentiles are taken over the epochs — p95 is the heaviest.
  for (const std::vector<double>& e : epoch_ms) {
    samples.ingest_ms.push_back(Median(e));
  }
  samples.read_rps = Median(count_rps);
  samples.peak_rss_mb = PeakRssMb();
  RecordReadTails(samples, layers);
  layers->ingest_samples = 0;
  for (const std::vector<double>& e : epoch_ms) {
    layers->ingest_samples += e.size();
  }

  if (options.trace) {
    // The epoch replay straight through core, on its own durable engine.
    EpochReplay replay;
    replay.config = spec.config;
    replay.config.snapshot_dir = options.work_dir + "/replay";
    std::filesystem::create_directories(replay.config.snapshot_dir);
    replay.batch_files = batch_files;
    replay.fresh_program = [&spec, &options] {
      return std::move(
          MakeInput(spec, spec.order, options.seed, true).workload.program);
    };
    Input in = MakeInput(spec, spec.order, options.seed, true);
    replay.relation = in.ingest;
    replay.output = in.workload.output;
    core::Engine engine(in.workload.program.get(), replay.config);
    const bool ok = engine.Prepare().ok() && engine.Run().ok();
    report->Check(ok, "replay engine evaluation");
    if (ok) {
      ProbeEpochs(&engine, in.workload.program.get(), replay, layers,
                  report);
    }
    if (layers->threads > 1) {
      // One thread against the configured threads on the same input.
      double eval[2] = {0, 0};
      for (int t = 0; t < 2; ++t) {
        Input again = MakeInput(spec, spec.order, options.seed, true);
        core::EngineConfig config = spec.config;
        if (t == 0) config.num_threads = 1;
        core::Engine e(again.workload.program.get(), config);
        const bool prepared = e.Prepare().ok();
        const auto start = Clock::now();
        report->Check(prepared && e.Run().ok(), "parallel speedup run");
        eval[t] = Seconds(start);
      }
      layers->parallel_speedup = eval[0] / eval[1];
    }
  }

  // Correctness: a different evaluator over every fact the rounds
  // acknowledged (base + all held-out batches).
  {
    Input in = MakeInput(spec, analysis::RuleOrder::kHandOptimized,
                         options.seed, false);
    core::Engine reference(in.workload.program.get(), ReferenceConfig());
    const bool ok = reference.Prepare().ok() && reference.Run().ok();
    std::vector<storage::Tuple> expected =
        reference.Results(in.workload.output);
    if (options.self_test && !expected.empty()) expected.back().back() += 1;
    report->Check(ok && expected == first.final_rows,
                  "final " + output_name +
                      " matches the pull-engine reference");
  }

  ReportEndToEnd(samples, report);
}

}  // namespace carac::bench
