// Ablation (design choice of §V-B2): the freshness-test threshold sweep.
// Threshold 0 recompiles whenever relative cardinalities move at all;
// threshold 1 never recompiles after the first compilation.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace carac;
  bench::ParseFlags(argc, argv);
  const bench::Sizes sizes = bench::Sizes::Get();
  auto factory = bench::Factory("CSPA", analysis::RuleOrder::kUnoptimized,
                                sizes);
  const double base =
      harness::MeasureMedian(factory, harness::InterpretedConfig(true),
                             sizes.reps)
          .seconds;
  std::printf("Ablation: freshness threshold (CSPA, unoptimized input, "
              "lambda backend, Union granularity)\ninterpreted baseline: "
              "%s s\n\n",
              harness::FormatSeconds(base).c_str());

  harness::TablePrinter table({"threshold", "time (s)", "speedup",
                               "compilations", "freshness skips"});
  for (double threshold : {0.0, 0.01, 0.05, 0.10, 0.25, 0.50, 1.0}) {
    core::EngineConfig config = harness::JitConfigOf(
        backends::BackendKind::kLambda, false, true,
        core::Granularity::kUnion, backends::CompileMode::kFull);
    config.jit.freshness_threshold = threshold;
    harness::Measurement m =
        harness::MeasureMedian(factory, config, sizes.reps);
    char t[16];
    std::snprintf(t, sizeof(t), "%.2f", threshold);
    table.AddRow({t, harness::FormatSeconds(m.seconds),
                  harness::FormatSpeedup(base / m.seconds),
                  std::to_string(m.stats.compilations),
                  std::to_string(m.stats.freshness_skips)});
  }
  table.Print();
  std::printf("\nExpected shape: tiny thresholds over-compile, huge "
              "thresholds under-adapt;\na moderate threshold balances "
              "both (the paper's tunable trade-off).\n");
  return 0;
}
