// Helpers every workload shares: statistics, the end-to-end metric set,
// the golden anchor, and small file/process utilities.

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "bench.h"

namespace carac::bench {

const Host& GetHost() {
  static const Host host = [] {
    Host h;
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    h.nproc = n > 0 ? static_cast<int>(n) : 1;
    struct utsname u;
    if (uname(&u) == 0) {
      h.uname = std::string(u.sysname) + " " + u.release + " " + u.machine;
    }
#if defined(__clang__)
    h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    h.compiler = "gcc " __VERSION__;
#else
    h.compiler = "unknown";
#endif
    return h;
  }();
  return host;
}

void Report::SetEndToEnd(const std::string& name, double value,
                         const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Report::SetLayer(const std::string& name, double value,
                      const std::string& unit) {
  per_layer.push_back({name, value, unit});
}

void Report::Tally(uint64_t n, uint64_t n_failed) {
  attempted += n;
  failed += n_failed;
  if (n_failed > 0) correct = false;
}

void Report::Check(bool ok, const std::string& what) {
  Attempt(ok);
  if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

void ReportEndToEnd(const SessionSamples& s, Report* report) {
  report->SetEndToEnd("setup_s", Median(s.setup_s), "s");
  report->SetEndToEnd("eval_s", Median(s.eval_s), "s");
  report->SetEndToEnd("peak_rss_mb", s.peak_rss_mb, "MB");
  report->SetEndToEnd("dump_p50_ms", Median(s.dump_ms), "ms");
  report->SetEndToEnd("ingest_p50_ms", Median(s.ingest_ms), "ms");
  report->SetEndToEnd("ingest_p95_ms", Percentile(s.ingest_ms, 0.95), "ms");
  report->SetEndToEnd("read_rps", s.read_rps, "1/s");
  report->SetEndToEnd("recover_s", Median(s.recover_s), "s");
  std::fprintf(stderr,
               "samples: setup=%zu eval=%zu count=%zu dump=%zu ingest=%zu "
               "recover=%zu\n",
               s.setup_s.size(), s.eval_s.size(), s.count_ms.size(),
               s.dump_ms.size(), s.ingest_ms.size(), s.recover_s.size());
}

void RecordReadTails(const SessionSamples& s, LayerCounts* layers) {
  layers->count_p50_ms = Median(s.count_ms);
  layers->count_p99_ms = Percentile(s.count_ms, 0.99);
  layers->dump_p99_ms = Percentile(s.dump_ms, 0.99);
  layers->count_samples = s.count_ms.size();
  layers->dump_samples = s.dump_ms.size();
  layers->ingest_samples = s.ingest_ms.size();
}

std::string Render(const std::vector<storage::Tuple>& rows) {
  std::ostringstream out;
  for (const storage::Tuple& t : rows) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << '\t';
      out << t[i];
    }
    out << '\n';
  }
  return out.str();
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// Same inputs as tests/storage_golden_test.cc.
analysis::Workload GoldenTc() {
  return analysis::MakeTransitiveClosure(
      analysis::GenerateSparseGraph(/*seed=*/11, /*num_vertices=*/300,
                                    /*num_edges=*/900, /*zipf_s=*/1.1),
      analysis::RuleOrder::kHandOptimized);
}

analysis::Workload GoldenAndersen() {
  analysis::SListConfig config;
  config.scale = 2;
  return analysis::MakeAndersen(config, analysis::RuleOrder::kHandOptimized);
}

}  // namespace

void CheckGoldens(const core::EngineConfig& config, Report* report) {
  const std::pair<const char*, analysis::Workload (*)()> goldens[] = {
      {"tc", GoldenTc}, {"andersen", GoldenAndersen}};
  for (const auto& [name, make] : goldens) {
    analysis::Workload w = make();
    core::Engine engine(w.program.get(), config);
    const bool ran = engine.Prepare().ok() && engine.Run().ok();
    const std::string expected =
        ReadFile(std::string(CARAC_GOLDEN_DIR) + "/" + name + ".golden");
    report->Check(ran && !expected.empty() &&
                      Render(engine.Results(w.output)) == expected,
                  std::string("golden anchor ") + name +
                      " under the workload's engine config");
  }
}

void CaptureWriter::Payload(std::string_view line) {
  if (lines == 0) first_line = std::string(line);
  ++lines;
  bytes += line.size() + 1;
}

void CaptureWriter::Error(std::string_view message) {
  std::fprintf(stderr, "err %.*s\n", static_cast<int>(message.size()),
               message.data());
}

datalog::PredicateId FindRelation(const datalog::Program& program,
                                  const std::string& name) {
  for (datalog::PredicateId id = 0; id < program.NumPredicates(); ++id) {
    if (program.PredicateName(id) == name) return id;
  }
  return datalog::kInvalidPredicate;
}

bool WriteCsv(const std::string& path,
              const std::vector<storage::Tuple>& rows) {
  std::ofstream out(path);
  for (const storage::Tuple& t : rows) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << ',';
      out << t[i];
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

size_t TotalRows(const datalog::Program& program) {
  size_t rows = 0;
  for (datalog::PredicateId id = 0; id < program.NumPredicates(); ++id) {
    rows += program.db().Get(id, storage::DbKind::kDerived).size();
  }
  return rows;
}

}  // namespace carac::bench
