// Reproduces Fig. 7: microbenchmark speedup of the JIT configurations
// over the *unoptimized* interpreted input (Ackermann, Fibonacci, Primes;
// the paper plots this on a log scale).

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace carac;
  bench::ParseFlags(argc, argv);
  const bench::Sizes sizes = bench::Sizes::Get();
  bench::PrintSpeedupFigure(
      "Fig. 7: microbenchmarks — speedup over \"unoptimized\" (log-scale "
      "in the paper)",
      {{"Ackermann", false}, {"Fibonacci", false}, {"Primes", false}},
      analysis::RuleOrder::kUnoptimized,
      /*include_hand_row=*/true, sizes);
  std::printf("\nExpected shape: short-running queries amortize less "
              "compilation cost, so\nlightweight backends (IRGenerator, "
              "lambda) win and quotes speedups shrink.\n");
  return 0;
}
