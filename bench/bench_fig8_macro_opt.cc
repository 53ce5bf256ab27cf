// Reproduces Fig. 8: macrobenchmark speedup (or slowdown) of the JIT
// configurations applied to already *hand-optimized* input programs,
// relative to interpreting those programs (adds CSDA).

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace carac;
  const int threads =
      bench::ParseFlags(argc, argv, bench::kThreadsFlag).threads;
  const bench::Sizes sizes = bench::Sizes::Get();
  bench::PrintSpeedupFigure(
      "Fig. 8: macrobenchmarks — speedup over \"hand-optimized\"",
      {{"Andersen", false},
       {"InvFuns", false},
       {"CSPA", true},
       {"CSDA", true}},
      analysis::RuleOrder::kHandOptimized,
      /*include_hand_row=*/false, sizes, threads);
  std::printf("\nExpected shape: values cluster around 1x (the JIT must "
              "not wreck good plans);\nIRGenerator can exceed 1x on CSDA "
              "(cheap per-iteration build/probe swap, §VI-B2).\n");
  return 0;
}
