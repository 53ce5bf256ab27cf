// Reproduces Fig. 6: macrobenchmark speedup of the JIT configurations
// over the *unoptimized* interpreted input program (Andersen's Points-To,
// Inverse Functions, CSPA), indexed and unindexed, with the interpreted
// hand-optimized program as the reference bar.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace carac;
  const int threads =
      bench::ParseFlags(argc, argv, bench::kThreadsFlag).threads;
  const bench::Sizes sizes = bench::Sizes::Get();
  bench::PrintSpeedupFigure(
      "Fig. 6: macrobenchmarks — speedup over \"unoptimized\"",
      {{"Andersen", false}, {"InvFuns", false}, {"CSPA", true}},
      analysis::RuleOrder::kUnoptimized,
      /*include_hand_row=*/true, sizes, threads);
  std::printf("\nExpected shape: JIT rows recover (and can exceed) the "
              "hand-optimized speedup;\nquotes pays the largest compile "
              "overhead, async beats blocking for quotes.\n");
  return 0;
}
