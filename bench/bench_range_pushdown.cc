// Range-pushdown A/B: the same comparison-filtered Datalog program run
// through core::Engine with --range-pushdown on vs off, per index kind
// and per selectivity. The program's range column carries constant
// bounds, so with pushdown on every ordered kind serves the outer scan
// via Relation::ProbeRange (plus the ascending-RowId re-sort); with
// pushdown off — and on the hash kind, which declines — the same rows
// come from the full filtered scan. The two headline numbers:
//
//   selective     bounds cover ~1% of the key domain: the range probe
//                 touches ~1% of the rows the scan walks — the win the
//                 pushdown exists for.
//   nonselective  bounds cover ~90%: RangeProbeProfitable declines
//                 (coverage > 0.5) and both arms run the identical
//                 filtered scan — the guard against the probe + re-sort
//                 costing more than it saves. Parity here is the point.
//
// Arms are interleaved within each repetition (on/off order alternating
// per rep) so frequency drift lands on both sides equally. Each kind and
// selectivity also emits a "range" record (rows, coverage, matched,
// on_s, off_s, speedup). `--micro` shrinks the workload to a sub-second
// slice for the CI bench-smoke job.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/programs.h"
#include "bench_common.h"
#include "core/engine.h"
#include "datalog/dsl.h"
#include "storage/index.h"

namespace {

using namespace carac;
using storage::IndexKind;
using storage::Value;

struct Sizes {
  int64_t rows;  // unique keys, uniform over [0, rows)
  int reps;
};

Sizes GetSizes(bool micro) {
  if (micro) return {50000, 3};
  return {400000, 5};
}

struct Span {
  const char* label;
  Value lo;  // inclusive
  Value hi;  // exclusive (the program uses Ge(lo) & Lt(hi))
};

/// Selective: 1% of the key domain, centered. Nonselective: the middle
/// 90% — past the optimizer's coverage cutoff, so pushdown declines and
/// both arms must land at parity.
std::vector<Span> GetSpans(const Sizes& s) {
  return {
      {"selective", s.rows / 2, s.rows / 2 + s.rows / 100},
      {"nonselective", s.rows / 20, s.rows - s.rows / 20},
  };
}

/// Hit(x, y) :- Big(x, y), x >= lo, x < hi. One key per row (scrambled
/// insertion order, fair to every kind's build path); x occurs in the
/// relational atom and both builtins, so lowering declares the col-0
/// index this bench measures the probe against.
analysis::Workload MakeRangeWorkload(const Sizes& s, const Span& span) {
  analysis::Workload w;
  w.name = std::string("Range-") + span.label;
  w.program = std::make_unique<datalog::Program>();
  datalog::Dsl dsl(w.program.get());
  auto big = dsl.Relation("Big", 2);
  auto hit = dsl.Relation("Hit", 2);
  auto [x, y] = dsl.Vars<2>();
  hit(x, y) <<= big(x, y) & dsl.Ge(x, span.lo) & dsl.Lt(x, span.hi);
  w.output = hit.id();
  w.relations["Big"] = big.id();
  w.relations["Hit"] = hit.id();
  for (int64_t j = 0; j < s.rows; ++j) {
    const int64_t i = (j * 48271) % s.rows;  // 48271 coprime to the sizes.
    w.program->AddFact(big.id(), {i, i % 97});
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const Sizes s =
      GetSizes(bench::ParseFlags(argc, argv, bench::kMicroFlag).micro);
  const std::vector<Span> spans = GetSpans(s);

  std::printf(
      "Range pushdown A/B: %lld rows, per kind x selectivity, "
      "pushdown on vs off interleaved (median of %d)\n\n",
      static_cast<long long>(s.rows), s.reps);

  harness::TablePrinter table(
      {"kind", "selectivity", "on (s)", "off (s)", "on/off"});
  bool diverged = false;
  for (const storage::IndexKindInfo& info : storage::kIndexKindTable) {
    const IndexKind kind = info.kind;
    for (const Span& span : spans) {
      const auto factory = [&]() { return MakeRangeWorkload(s, span); };

      core::EngineConfig on = harness::InterpretedConfig(true);
      on.index_kind = kind;
      on.range_pushdown = true;
      core::EngineConfig off = on;
      off.range_pushdown = false;

      std::vector<double> on_times, off_times;
      size_t on_rows = 0, off_rows = 0;
      for (int rep = 0; rep < s.reps; ++rep) {
        // Alternate arm order per rep: drift hits both sides equally.
        const bool on_first = (rep % 2) == 0;
        for (int leg = 0; leg < 2; ++leg) {
          const bool run_on = on_first == (leg == 0);
          const harness::Measurement m =
              harness::MeasureOnce(factory, run_on ? on : off);
          if (!m.ok) {
            std::fprintf(stderr, "error: %s\n", m.error.c_str());
            return 1;
          }
          (run_on ? on_times : off_times).push_back(m.seconds);
          (run_on ? on_rows : off_rows) = m.result_size;
        }
      }
      if (on_rows != off_rows || on_rows == 0) {
        std::fprintf(stderr,
                     "error: pushdown arms diverged under %s/%s "
                     "(on=%zu off=%zu)\n",
                     info.name, span.label, on_rows, off_rows);
        diverged = true;
      }

      const double on_s = bench::Median(on_times);
      const double off_s = bench::Median(off_times);
      const double speedup = on_s > 0 ? off_s / on_s : 0;
      const double coverage =
          static_cast<double>(span.hi - span.lo) / s.rows;
      harness::EmitRecord("bench_range_pushdown", "range",
                          {{"kind", info.name}, {"selectivity", span.label},
                           {"rows", s.rows}, {"coverage", coverage, 3},
                           {"matched", on_rows}, {"on_s", on_s, 6},
                           {"off_s", off_s, 6}, {"speedup", speedup, 2}});

      char on_cell[32], off_cell[32], ratio_cell[32];
      std::snprintf(on_cell, sizeof on_cell, "%.4f", on_s);
      std::snprintf(off_cell, sizeof off_cell, "%.4f", off_s);
      std::snprintf(ratio_cell, sizeof ratio_cell, "%.2fx", speedup);
      table.AddRow({info.name, span.label, on_cell, off_cell, ratio_cell});
    }
  }
  std::printf("\n");
  table.Print();
  return diverged ? 1 : 0;
}
