// Per-layer breakdown of a `--trace 1` run. Every probe calls one layer's
// public function inside a span; ReportLayers folds the spans and the
// engine's counters into one metric set, the same for every workload.

#include "analysis/loader.h"
#include "backends/backend.h"
#include "bench.h"
#include "datalog/parser.h"
#include "datalog/stratify.h"
#include "ir/lowering.h"
#include "optimizer/join_order.h"
#include "optimizer/statistics.h"
#include "trace.h"

namespace carac::bench {

namespace {

/// Calls `fn` on every node of the subtree.
template <typename Fn>
void ForEachNode(ir::IROp* op, const Fn& fn) {
  if (op == nullptr) return;
  fn(op);
  for (auto& child : op->children) ForEachNode(child.get(), fn);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ProbeFrontEnd(const std::string& rules_text, Report* report) {
  datalog::Program program;
  util::Status status;
  {
    Span span("datalog.ParseDatalog");
    status = datalog::ParseDatalog(rules_text, &program);
  }
  report->Check(status.ok(), "probe parse: " + status.ToString());
  if (!status.ok()) return;
  {
    Span span("datalog.Stratify");
    datalog::Stratification strata;
    status = datalog::Stratify(program, &strata);
  }
  report->Check(status.ok(), "probe stratify: " + status.ToString());
  {
    Span span("optimizer.ProfileAccessPaths");
    const optimizer::AccessPathProfile profile =
        optimizer::ProfileAccessPaths(program);
    (void)profile;
  }
  {
    Span span("ir.LowerProgram");
    ir::IRProgram lowered;
    status = ir::LowerProgram(&program, /*declare_indexes=*/true, &lowered);
  }
  report->Check(status.ok(), "probe lower: " + status.ToString());
}

void ProbeEvaluated(core::Engine* engine, datalog::Program* program,
                    LayerCounts* counts, Report* report) {
  ir::IRProgram& irp = engine->ir();
  counts->ir_nodes = irp.num_nodes;
  counts->probes = ir::ColumnProbeStats{};
  for (const auto& [key, stats] : engine->profiler().counters()) {
    counts->probes.MergeFrom(stats);
  }

  const optimizer::StatsSnapshot stats =
      optimizer::StatsSnapshot::Capture(program->db());
  {
    // Both trees, as the JIT and the AOT planner see them.
    Span span("optimizer.ReorderSubtree");
    std::unique_ptr<ir::IROp> full = irp.root->Clone();
    std::unique_ptr<ir::IROp> update = irp.update_root->Clone();
    optimizer::ReorderSubtree(stats, optimizer::JoinOrderConfig{},
                              full.get());
    optimizer::ReorderSubtree(stats, optimizer::JoinOrderConfig{},
                              update.get());
  }

  // One lambda compilation per Union node (the JIT's default
  // granularity), built the way the JIT builds its requests.
  std::unique_ptr<backends::Backend> backend =
      backends::MakeBackend(backends::BackendKind::kLambda);
  auto compile = [&](ir::IROp* op) {
    if (op->kind != ir::OpKind::kUnion) return;
    backends::CompileRequest request;
    request.subtree = op->Clone();
    request.stats = stats;
    std::unique_ptr<backends::CompiledUnit> unit;
    util::Status status;
    {
      Span span("backends.Backend.Compile");
      status = backend->Compile(std::move(request), &unit);
    }
    report->Check(status.ok(), "probe compile: " + status.ToString());
  };
  ForEachNode(irp.root.get(), compile);
  ForEachNode(irp.update_root.get(), compile);
}

void ProbeEpochs(core::Engine* engine, datalog::Program* program,
                 const EpochReplay& replay, LayerCounts* counts,
                 Report* report) {
  const std::string& dir = replay.config.snapshot_dir;
  size_t facts_since_checkpoint = 0;
  double log_bytes = 0;
  double log_facts = 0;
  double seeded = 0;
  int epochs = 0;
  for (const std::string& file : replay.batch_files) {
    std::vector<storage::Tuple> facts;
    util::Status status;
    {
      Span span("analysis.ReadFactsCsv");
      status = analysis::ReadFactsCsv(file, program, replay.relation, &facts);
    }
    if (status.ok()) {
      Span span("core.Engine.AddFacts");
      status = engine->AddFacts(replay.relation, facts);
    }
    core::EpochReport epoch;
    if (status.ok()) {
      Span span("core.Engine.Update");
      status = engine->Update(&epoch);
    }
    {
      Span span("core.Engine.PinReadView");
      std::shared_ptr<const core::ReadView> view = engine->PinReadView();
      (void)view;
    }
    report->Check(status.ok(), "replayed epoch " + file + ": " +
                                   status.ToString());
    ++epochs;
    seeded += static_cast<double>(epoch.seeded_rows);
    counts->strata_recomputed += epoch.strata_recomputed;
    facts_since_checkpoint += facts.size();
    if (epochs % kCheckpointEvery == 0) {
      log_bytes += static_cast<double>(FileBytes(dir + "/factlog.bin"));
      log_facts += static_cast<double>(facts_since_checkpoint);
      facts_since_checkpoint = 0;
      Span span("core.Engine.Checkpoint");
      report->Check(engine->Checkpoint().ok(), "replay checkpoint");
    }
  }
  counts->seeded_rows_per_epoch = Ratio(seeded, epochs);
  counts->log_bytes_per_fact = Ratio(log_bytes, log_facts);
  counts->snapshot_bytes_per_row =
      Ratio(static_cast<double>(FileBytes(dir + "/snapshot.bin")),
            static_cast<double>(TotalRows(*program)));

  std::unique_ptr<datalog::Program> fresh = replay.fresh_program();
  core::Engine restored(fresh.get(), replay.config);
  util::Status status = restored.Prepare();
  if (status.ok()) {
    Span span("core.Engine.Restore");
    status = restored.Restore();
  }
  report->Check(status.ok() && restored.ResultSize(replay.output) ==
                                   engine->ResultSize(replay.output),
                "replay restore: " + status.ToString());
}

void ReportLayers(const LayerCounts& c, double run_seconds, Report* report) {
  auto ms = [](std::string_view span) {
    return Median(Tracer::Durations(span)) * 1e3;
  };
  const ir::ExecStats& e = c.eval;

  report->SetLayer("datalog.parse_ms", ms("datalog.ParseDatalog"), "ms");
  report->SetLayer("datalog.stratify_ms", ms("datalog.Stratify"), "ms");

  report->SetLayer("analysis.factgen_s",
                   Median(Tracer::Durations("analysis.factgen")), "s");
  report->SetLayer("analysis.csv_ms_per_batch", ms("analysis.ReadFactsCsv"),
                   "ms");

  report->SetLayer("ir.lower_ms", ms("ir.LowerProgram"), "ms");
  report->SetLayer("ir.nodes", static_cast<double>(c.ir_nodes), "count");

  report->SetLayer("optimizer.access_profile_ms",
                   ms("optimizer.ProfileAccessPaths"), "ms");
  report->SetLayer("optimizer.reorder_ms", ms("optimizer.ReorderSubtree"),
                   "ms");

  report->SetLayer("backends.compile_ms", ms("backends.Backend.Compile"),
                   "ms");
  report->SetLayer("backends.compilations",
                   static_cast<double>(e.compilations), "count");
  report->SetLayer("backends.freshness_skips",
                   static_cast<double>(e.freshness_skips), "count");
  report->SetLayer("backends.compiled_share",
                   Ratio(static_cast<double>(e.compiled_invocations),
                         static_cast<double>(e.spj_executions)),
                   "ratio");

  report->SetLayer("core.prepare_ms", ms("core.Engine.Prepare"), "ms");
  report->SetLayer("core.iterations", static_cast<double>(e.iterations),
                   "count");
  report->SetLayer("core.spj_executions",
                   static_cast<double>(e.spj_executions), "count");
  report->SetLayer("core.tuples_considered",
                   static_cast<double>(e.tuples_considered), "count");
  report->SetLayer("core.tuples_inserted",
                   static_cast<double>(e.tuples_inserted), "count");
  report->SetLayer("core.insert_yield",
                   Ratio(static_cast<double>(e.tuples_inserted),
                         static_cast<double>(e.tuples_considered)),
                   "ratio");
  report->SetLayer("core.threads", c.threads, "count");
  report->SetLayer("core.parallel_speedup", c.parallel_speedup, "x");
  report->SetLayer("core.parallel_efficiency",
                   c.parallel_speedup / c.threads, "ratio");
  report->SetLayer("core.add_facts_ms", ms("core.Engine.AddFacts"), "ms");
  report->SetLayer("core.update_ms", ms("core.Engine.Update"), "ms");
  report->SetLayer("core.seeded_rows", c.seeded_rows_per_epoch, "count");
  report->SetLayer("core.strata_recomputed",
                   static_cast<double>(c.strata_recomputed), "count");
  report->SetLayer("core.pin_view_us",
                   Median(Tracer::Durations("core.Engine.PinReadView")) * 1e6,
                   "us");

  report->SetLayer("storage.point_probes",
                   static_cast<double>(c.probes.point_probes), "count");
  report->SetLayer("storage.point_hit_ratio",
                   Ratio(static_cast<double>(c.probes.point_hits),
                         static_cast<double>(c.probes.point_probes)),
                   "ratio");
  report->SetLayer("storage.range_probes",
                   static_cast<double>(c.probes.range_probes), "count");
  report->SetLayer("storage.batch_windows",
                   static_cast<double>(c.probes.batch_windows), "count");
  report->SetLayer("storage.checkpoint_ms", ms("core.Engine.Checkpoint"),
                   "ms");
  report->SetLayer("storage.log_bytes_per_fact", c.log_bytes_per_fact, "B");
  report->SetLayer("storage.snapshot_bytes_per_row", c.snapshot_bytes_per_row,
                   "B");
  report->SetLayer("storage.restore_s",
                   Median(Tracer::Durations("core.Engine.Restore")), "s");

  const double exec_count_us =
      Median(Tracer::Durations("net.ExecuteServeLine.count")) * 1e6;
  report->SetLayer("net.exec_count_us", exec_count_us, "us");
  report->SetLayer("net.exec_dump_ms", ms("net.ExecuteServeLine.dump"), "ms");
  report->SetLayer("net.exec_ingest_ms", ms("net.ingest"), "ms");
  report->SetLayer("net.transport_count_us",
                   c.client_count_p50_ms > 0
                       ? c.client_count_p50_ms * 1e3 - exec_count_us
                       : 0,
                   "us");
  report->SetLayer("net.dump_bytes", c.dump_bytes, "B");

  report->SetLayer("loadgen.count_p50_ms", c.count_p50_ms, "ms");
  report->SetLayer("loadgen.count_p99_ms", c.count_p99_ms, "ms");
  report->SetLayer("loadgen.dump_p99_ms", c.dump_p99_ms, "ms");
  report->SetLayer("loadgen.late_p99_ms", c.late_p99_ms, "ms");
  report->SetLayer("loadgen.backlog_max", static_cast<double>(c.backlog_max),
                   "count");
  report->SetLayer("loadgen.count_samples",
                   static_cast<double>(c.count_samples), "count");
  report->SetLayer("loadgen.dump_samples",
                   static_cast<double>(c.dump_samples), "count");
  report->SetLayer("loadgen.ingest_samples",
                   static_cast<double>(c.ingest_samples), "count");
  report->SetLayer("trace.overhead_frac",
                   Ratio(Tracer::OverheadSeconds(), run_seconds), "ratio");
}

}  // namespace carac::bench
