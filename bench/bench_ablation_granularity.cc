// Ablation (design choice of §V-B2): how compilation granularity affects
// end-to-end time — higher levels compile rarely with staler statistics,
// lower levels compile per-join with the freshest statistics.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace carac;
  bench::ParseFlags(argc, argv);
  const bench::Sizes sizes = bench::Sizes::Get();
  auto factory = bench::Factory("InvFuns", analysis::RuleOrder::kUnoptimized,
                                sizes);
  const double base =
      harness::MeasureMedian(factory, harness::InterpretedConfig(true),
                             sizes.reps)
          .seconds;
  std::printf("Ablation: compilation granularity (InvFuns, unoptimized "
              "input, lambda backend)\ninterpreted baseline: %s s\n\n",
              harness::FormatSeconds(base).c_str());

  harness::TablePrinter table(
      {"granularity", "time (s)", "speedup", "compilations", "reorders"});
  const core::Granularity levels[] = {
      core::Granularity::kProgram, core::Granularity::kDoWhile,
      core::Granularity::kUnionAll, core::Granularity::kUnion,
      core::Granularity::kSpj};
  for (core::Granularity g : levels) {
    harness::Measurement m = harness::MeasureMedian(
        factory,
        harness::JitConfigOf(backends::BackendKind::kLambda, false, true, g,
                             backends::CompileMode::kFull),
        sizes.reps);
    table.AddRow({core::GranularityName(g), harness::FormatSeconds(m.seconds),
                  harness::FormatSpeedup(base / m.seconds),
                  std::to_string(m.stats.compilations),
                  std::to_string(m.stats.compiled_invocations)});
  }
  table.Print();
  std::printf("\nExpected shape: Program-level compiles once with empty "
              "deltas (stale orders);\nper-iteration levels adapt; "
              "SPJ-level has the freshest stats but most compiles.\n");
  return 0;
}
