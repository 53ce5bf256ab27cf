// Reproduces Fig. 10: ahead-of-time ("macro") vs online compilation on
// the microbenchmarks — speedup over the unoptimized interpreted query of:
//   JIT-lambda                    (no information before execution),
//   Macro Facts+rules (online)    (AOT plan from facts+rules, + online
//                                  IRGenerator reordering),
//   Macro Rules (online)          (AOT plan from rules only, + online),
//   Macro Facts+rules             (AOT plan only),
//   Macro Rules                   (AOT plan only).
// AOT planning happens in Prepare(), so its cost is offline, as in §VI-C.

#include "bench_common.h"

namespace {

using namespace carac;

core::EngineConfig AotConfig(bool facts, bool online) {
  core::EngineConfig config;
  config.aot_reorder = true;
  config.aot.use_fact_cardinalities = facts;
  if (online) {
    config.mode = core::EvalMode::kJit;
    config.jit.backend = backends::BackendKind::kIRGenerator;
    config.jit.granularity = core::Granularity::kUnionAll;
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseFlags(argc, argv);
  const bench::Sizes sizes = bench::Sizes::Get();
  std::printf("Fig. 10: ahead-of-time and online compilation — speedup "
              "over \"unoptimized\" (microbenchmarks)\n\n");

  const std::vector<std::string> benchmarks = {"Ackermann", "Fibonacci",
                                               "Primes"};
  std::vector<std::string> headers = {"configuration"};
  for (const auto& b : benchmarks) headers.push_back(b);
  harness::TablePrinter table(headers);

  std::vector<double> baselines;
  for (const auto& b : benchmarks) {
    auto factory =
        bench::Factory(b, analysis::RuleOrder::kUnoptimized, sizes);
    baselines.push_back(
        harness::MeasureMedian(factory, harness::InterpretedConfig(true),
                               sizes.reps)
            .seconds);
  }

  struct Config {
    const char* label;
    core::EngineConfig config;
  };
  const Config configs[] = {
      {"JIT-lambda",
       harness::JitConfigOf(backends::BackendKind::kLambda, false, true,
                            core::Granularity::kSpj,
                            backends::CompileMode::kFull)},
      {"Macro Facts+rules (online)", AotConfig(true, true)},
      {"Macro Rules (online)", AotConfig(false, true)},
      {"Macro Facts+rules", AotConfig(true, false)},
      {"Macro Rules", AotConfig(false, false)},
  };

  for (const Config& c : configs) {
    std::vector<std::string> row = {c.label};
    for (size_t i = 0; i < benchmarks.size(); ++i) {
      auto factory = bench::Factory(benchmarks[i],
                                    analysis::RuleOrder::kUnoptimized, sizes);
      const double s =
          harness::MeasureMedian(factory, c.config, sizes.reps).seconds;
      row.push_back(s > 0 ? harness::FormatSpeedup(baselines[i] / s) : "-");
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\nExpected shape: every configuration beats the unoptimized "
              "baseline; facts+rules\ngenerally beats rules-only; "
              "online+offline combined is best for most queries.\n");
  return 0;
}
