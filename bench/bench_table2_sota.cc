// Reproduces Table II: average execution time (s) of DLX, Soufflé
// (interpreter / compiler / auto-tuned) and Carac JIT on InvFuns, CSDA and
// CSPA. The comparators are behavioural analogs built in this repository
// (see DESIGN.md §2): Soufflé-compiler pays a real C++ compiler invocation
// inside the measured time; DLX is a naive-evaluation engine with a
// timeout that reports DNF.

#include <cstdio>

#include "baselines/dlx_like.h"
#include "baselines/souffle_like.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace carac;
  const int threads =
      bench::ParseFlags(argc, argv, bench::kThreadsFlag).threads;
  const bench::Sizes sizes = bench::Sizes::Get();
  const double dlx_timeout = bench::LargeScale() ? 300.0 : 60.0;

  std::printf("Table II: execution time (s) of DLX-like, Souffle-like and "
              "Carac JIT%s\n\n",
              threads > 1
                  ? (" (Carac threads=" + std::to_string(threads) + ")")
                        .c_str()
                  : "");
  harness::TablePrinter table({"benchmark", "DLX", "Souffle interp",
                               "Souffle compiler", "Souffle auto-tuned",
                               "Carac JIT"});

  for (const char* name : {"InvFuns", "CSDA", "CSPA"}) {
    // Table II uses the hand-optimized formulations (engines receive the
    // program as an expert would write it).
    auto factory =
        bench::Factory(name, analysis::RuleOrder::kHandOptimized, sizes);

    baselines::DlxResult dlx = baselines::RunDlxLike(factory, dlx_timeout);
    auto souffle = [&](baselines::SouffleMode mode) -> std::string {
      baselines::BaselineResult r = baselines::RunSouffleLike(factory, mode);
      return r.ok ? harness::FormatSeconds(r.seconds) : "err";
    };
    // Carac JIT: full mode, blocking, at the sigma-pi-join granularity
    // that sees delta relations (the configuration Table II names). The
    // comparator engines have no worker pool, so --threads widens only
    // the Carac column.
    core::EngineConfig carac_config = harness::JitConfigOf(
        backends::BackendKind::kLambda, /*async=*/false,
        /*use_indexes=*/true, core::Granularity::kSpj,
        backends::CompileMode::kFull);
    carac_config.num_threads = threads;
    harness::Measurement carac =
        harness::MeasureMedian(factory, carac_config, sizes.reps);

    table.AddRow({name,
                  dlx.dnf ? "DNF" : harness::FormatSeconds(dlx.seconds),
                  souffle(baselines::SouffleMode::kInterpreter),
                  souffle(baselines::SouffleMode::kCompiler),
                  souffle(baselines::SouffleMode::kAutoTuned),
                  carac.ok ? harness::FormatSeconds(carac.seconds) : "err"});
  }
  table.Print();
  std::printf("\nExpected shape: Carac wins InvFuns (no full-compiler "
              "invocation); the compiled\nengine wins the largest "
              "long-running analyses; DLX trails or DNFs.\n");
  return 0;
}
