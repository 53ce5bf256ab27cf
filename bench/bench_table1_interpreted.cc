// Reproduces Table I: average execution time (s) of interpreted Carac
// queries in the four {unindexed, indexed} x {unoptimized, hand-optimized}
// configurations, for every benchmark query.
//
// Like the paper, the long-running graph analyses (CSDA, CSPA) are run
// indexed only, and CSDA has a single formulation (2-way joins only).

#include <cstdio>

#include "bench_common.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace carac;
  using analysis::RuleOrder;
  bench::ParseFlags(argc, argv);
  const bench::Sizes sizes = bench::Sizes::Get();

  std::printf("Table I: execution time (s) of interpreted Carac queries\n");
  std::printf("(synthetic scaled datasets — see EXPERIMENTS.md)\n\n");

  harness::TablePrinter table({"benchmark", "unindexed unopt",
                               "unindexed opt", "indexed unopt",
                               "indexed opt"});

  struct Row {
    const char* name;
    bool indexed_only;
    bool single_formulation;
  };
  const Row rows[] = {
      {"Ackermann", false, false}, {"Fibonacci", false, false},
      {"Primes", false, false},    {"Andersen", false, false},
      {"InvFuns", false, false},   {"CSDA", true, true},
      {"CSPA", true, false},
  };

  for (const Row& row : rows) {
    auto unopt = bench::Factory(row.name, RuleOrder::kUnoptimized, sizes);
    auto opt = bench::Factory(row.name, RuleOrder::kHandOptimized, sizes);

    auto cell = [&](const harness::WorkloadFactory& factory, bool indexes,
                    bool skip) -> std::string {
      if (skip) return "-";
      harness::Measurement m = harness::MeasureMedian(
          factory, harness::InterpretedConfig(indexes), sizes.reps);
      if (!m.ok) return "err";
      return harness::FormatSeconds(m.seconds);
    };

    table.AddRow({row.name,
                  cell(unopt, false, row.indexed_only),
                  cell(opt, false, row.indexed_only),
                  cell(unopt, true, row.single_formulation),
                  cell(opt, true, false)});
  }
  table.Print();
  std::printf("\nNote: CSDA's unoptimized formulation equals the "
              "hand-optimized one (2-way joins), as in the paper.\n");
  return 0;
}
