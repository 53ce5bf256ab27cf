#ifndef CARAC_BENCH_BENCH_COMMON_H_
#define CARAC_BENCH_BENCH_COMMON_H_

// Shared flags, median and workload sizing for the paper-reproduction
// benches. The paper's datasets (httpd: 1.5M facts) are scaled down so
// every bench binary finishes in seconds-to-minutes on a laptop; the
// *shape* of each result (who wins, rough factors, crossovers) is what
// EXPERIMENTS.md compares. CARAC_BENCH_SCALE=large restores bigger inputs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/programs.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "storage/database.h"
#include "util/parse.h"

namespace carac::bench {

inline bool LargeScale() {
  const char* scale = std::getenv("CARAC_BENCH_SCALE");
  return scale != nullptr && std::string(scale) == "large";
}

/// The command-line flags of a bench main.
struct Flags {
  bool micro = false;  ///< --micro: the sub-second slice CI runs.
  int threads = 1;     ///< --threads N: Carac evaluation threads; 1 is
                       ///< what every earlier BENCH_*.json recorded.
};

/// The flags a bench takes, OR-ed into ParseFlags' `accepted`.
enum FlagSet : unsigned { kNoFlags = 0, kMicroFlag = 1, kThreadsFlag = 2 };

/// Parses argv against the flags in `accepted`. Anything else (an unknown
/// flag, one this bench does not take, a malformed --threads) prints a
/// diagnostic and exits 2, so scripts/run_benches.sh surfaces the mistake.
inline Flags ParseFlags(int argc, char** argv, unsigned accepted = kNoFlags) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--micro" && (accepted & kMicroFlag)) {
      flags.micro = true;
    } else if (arg == "--threads" && (accepted & kThreadsFlag) &&
               i + 1 < argc) {
      int64_t threads = 0;
      if (!util::ParseInt64(argv[++i], &threads) || threads < 1 ||
          threads > 256) {
        std::fprintf(stderr,
                     "error: --threads wants an integer in [1, 256], got "
                     "\"%s\"\n",
                     argv[i]);
        std::exit(2);
      }
      flags.threads = static_cast<int>(threads);
    } else {
      std::fprintf(stderr, "usage: %s%s%s\n", argv[0],
                   (accepted & kMicroFlag) ? " [--micro]" : "",
                   (accepted & kThreadsFlag) ? " [--threads N]" : "");
      std::exit(2);
    }
  }
  return flags;
}

/// Median of a bench's repetition timings (upper median on even counts).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Per-relation fact lists of a freshly built workload (construction
/// inserts facts into Derived), split into a head (the pre-loaded
/// database) and a tail (the update batch or fact-log tail) of
/// ~`delta_frac` per relation.
struct FactSplit {
  std::vector<std::vector<storage::Tuple>> head;
  std::vector<std::vector<storage::Tuple>> tail;
  size_t tail_rows = 0;
};

inline FactSplit SplitFacts(const analysis::Workload& w, double delta_frac) {
  const storage::DatabaseSet& db = w.program->db();
  FactSplit split;
  split.head.resize(db.NumRelations());
  split.tail.resize(db.NumRelations());
  for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
    const storage::Relation& rel = db.Get(id, storage::DbKind::kDerived);
    const size_t rows = rel.NumRows();
    const size_t tail_n =
        rows >= 10 ? std::max<size_t>(1, static_cast<size_t>(
                                            static_cast<double>(rows) *
                                            delta_frac))
                   : 0;
    for (storage::RowId row = 0; row < rows; ++row) {
      auto& dest = row < rows - tail_n ? split.head[id] : split.tail[id];
      dest.push_back(rel.View(row).ToTuple());
    }
    split.tail_rows += split.tail[id].size();
  }
  return split;
}

struct Sizes {
  int64_t ack_bound;
  int64_t fib_n;
  int64_t primes_n;
  int64_t slist_scale;
  int64_t csda_length;
  int64_t cspa_tuples;       // The "CSPA 20k" analog.
  int reps;

  static Sizes Get() {
    if (LargeScale()) {
      return {61, 25, 2000, 4, 8000, 20000, 3};
    }
    return {61, 25, 500, 1, 1500, 400, 1};
  }
};

inline harness::WorkloadFactory Factory(const std::string& name,
                                        analysis::RuleOrder order,
                                        const Sizes& sizes) {
  using namespace analysis;
  if (name == "Ackermann") {
    return [=] { return MakeAckermann(sizes.ack_bound, order); };
  }
  if (name == "Fibonacci") {
    return [=] { return MakeFibonacci(sizes.fib_n, order); };
  }
  if (name == "Primes") {
    return [=] { return MakePrimes(sizes.primes_n, order); };
  }
  if (name == "Andersen") {
    SListConfig config;
    config.scale = sizes.slist_scale;
    return [=] { return MakeAndersen(config, order); };
  }
  if (name == "InvFuns") {
    SListConfig config;
    config.scale = sizes.slist_scale;
    return [=] { return MakeInverseFunctions(config, order); };
  }
  if (name == "CSDA") {
    CsdaConfig config;
    config.length = sizes.csda_length;
    return [=] { return MakeCsda(config); };
  }
  if (name == "CSPA") {
    CspaConfig config;
    config.total_tuples = sizes.cspa_tuples;
    return [=] { return MakeCspa(config, order); };
  }
  return nullptr;
}

/// The seven configurations of Figs. 6-9 (Hand-Optimized is only included
/// when the baseline is the unoptimized program).
struct JitRowSpec {
  const char* label;
  backends::BackendKind backend;
  bool async;
};

inline const std::vector<JitRowSpec>& JitRows() {
  static const std::vector<JitRowSpec>* rows = new std::vector<JitRowSpec>{
      {"JIT IRGenerator", backends::BackendKind::kIRGenerator, false},
      {"JIT Lambda Blocking", backends::BackendKind::kLambda, false},
      {"JIT Bytecode Async", backends::BackendKind::kBytecode, true},
      {"JIT Bytecode Blocking", backends::BackendKind::kBytecode, false},
      {"JIT Quotes Async", backends::BackendKind::kQuotes, true},
      {"JIT Quotes Blocking", backends::BackendKind::kQuotes, false},
  };
  return *rows;
}

struct FigureBenchmark {
  std::string name;
  bool indexed_only = false;  // CSDA / CSPA run indexed only (paper §VI-B).
};

/// Shared driver for Figs. 6-9: speedup of each JIT configuration over the
/// interpreted `baseline_order` program, with the JIT consuming
/// `input_order` programs. Prints one row per configuration with indexed
/// and unindexed columns per benchmark.
inline void PrintSpeedupFigure(const std::string& title,
                               const std::vector<FigureBenchmark>& benchmarks,
                               analysis::RuleOrder input_order,
                               bool include_hand_row, const Sizes& sizes,
                               int num_threads = 1) {
  // The --threads dimension: every configuration gets the same
  // EngineConfig::num_threads, but only interpreted execution and
  // lambda-backend subqueries consume the pool — the bytecode, quotes
  // and IRGenerator compiled loops are single-threaded. At threads > 1
  // the figure therefore answers "what does enabling an N-thread pool do
  // to each configuration as-is", NOT "how does each backend scale"; the
  // printed note keeps recorded snapshots from being misread.
  auto with_threads = [num_threads](core::EngineConfig config) {
    config.num_threads = num_threads;
    return config;
  };
  if (num_threads > 1) {
    std::printf("%s (threads=%d)\n\n", title.c_str(), num_threads);
    std::printf("note: num_threads parallelizes interpreted and "
                "lambda-backend subqueries only;\nbytecode/quotes/irgen "
                "compiled loops stay single-threaded, so JIT rows are\n"
                "NOT thread-scaled — compare against the equally-threaded "
                "interpreted baseline\nwith that in mind.\n\n");
  } else {
    std::printf("%s\n\n", title.c_str());
  }

  std::vector<std::string> headers = {"configuration"};
  for (const FigureBenchmark& b : benchmarks) {
    headers.push_back(b.name + " idx");
    headers.push_back(b.name + " unidx");
  }
  harness::TablePrinter table(headers);

  // Baselines per benchmark x index setting.
  struct Baseline {
    double indexed = 0, unindexed = 0;
  };
  std::vector<Baseline> baselines;
  for (const FigureBenchmark& b : benchmarks) {
    Baseline base;
    auto factory = Factory(b.name, input_order, sizes);
    base.indexed =
        harness::MeasureMedian(factory,
                               with_threads(harness::InterpretedConfig(true)),
                               sizes.reps)
            .seconds;
    if (!b.indexed_only) {
      base.unindexed =
          harness::MeasureMedian(
              factory, with_threads(harness::InterpretedConfig(false)),
              sizes.reps)
              .seconds;
    }
    baselines.push_back(base);
  }

  auto speedup_cell = [](double base, double measured) -> std::string {
    if (base <= 0 || measured <= 0) return "-";
    return harness::FormatSpeedup(base / measured);
  };

  if (include_hand_row) {
    std::vector<std::string> row = {"Hand-Optimized (interp)"};
    for (size_t i = 0; i < benchmarks.size(); ++i) {
      auto factory = Factory(benchmarks[i].name,
                             analysis::RuleOrder::kHandOptimized, sizes);
      const double idx =
          harness::MeasureMedian(
              factory, with_threads(harness::InterpretedConfig(true)),
              sizes.reps)
              .seconds;
      row.push_back(speedup_cell(baselines[i].indexed, idx));
      if (benchmarks[i].indexed_only) {
        row.push_back("-");
      } else {
        const double unidx =
            harness::MeasureMedian(
                factory, with_threads(harness::InterpretedConfig(false)),
                sizes.reps)
                .seconds;
        row.push_back(speedup_cell(baselines[i].unindexed, unidx));
      }
    }
    table.AddRow(std::move(row));
  }

  for (const JitRowSpec& spec : JitRows()) {
    std::vector<std::string> row = {spec.label};
    for (size_t i = 0; i < benchmarks.size(); ++i) {
      auto factory = Factory(benchmarks[i].name, input_order, sizes);
      auto run = [&](bool indexes) {
        return harness::MeasureMedian(
                   factory,
                   with_threads(harness::JitConfigOf(
                       spec.backend, spec.async, indexes,
                       core::Granularity::kUnion,
                       backends::CompileMode::kFull)),
                   sizes.reps)
            .seconds;
      };
      row.push_back(speedup_cell(baselines[i].indexed, run(true)));
      row.push_back(benchmarks[i].indexed_only
                        ? "-"
                        : speedup_cell(baselines[i].unindexed, run(false)));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace carac::bench

#endif  // CARAC_BENCH_BENCH_COMMON_H_
