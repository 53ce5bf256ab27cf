// Reproduces Fig. 9: microbenchmark speedup (or slowdown) of the JIT
// configurations applied to already *hand-optimized* inputs.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace carac;
  bench::ParseFlags(argc, argv);
  const bench::Sizes sizes = bench::Sizes::Get();
  bench::PrintSpeedupFigure(
      "Fig. 9: microbenchmarks — speedup over \"hand-optimized\"",
      {{"Ackermann", false}, {"Fibonacci", false}, {"Primes", false}},
      analysis::RuleOrder::kHandOptimized,
      /*include_hand_row=*/false, sizes);
  std::printf("\nExpected shape: worst cases fall below 1x (compile cost "
              "is a large fraction of\nvery short runs — the paper reports "
              "~0.1x for Ackermann+quotes-blocking).\n");
  return 0;
}
