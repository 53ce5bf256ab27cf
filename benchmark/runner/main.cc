// carac_bench — runs one workload of the repository benchmark and prints
// its metrics. benchmark/run.sh builds this and is the documented entry
// point; see benchmark/README.md.
//
//   carac_bench --workload W --seconds S [--seed N] [--trace 0|1]
//               [--self-test] [--work-root DIR]
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": M,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exit 0 only when every operation and correctness check succeeded
// (then "correct" is true and "failed" is 0); 2 on bad usage.

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"
#include "util/parse.h"

namespace {

using namespace carac;
using namespace carac::bench;

const char* const kWorkloads[] = {"cspa_unopt_jit", "andersen_interp",
                                  "andersen_par", "serve_reach"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "carac_bench: %s\n"
               "usage: carac_bench --workload W --seconds S [--seed N] "
               "[--trace 0|1] [--self-test] [--work-root DIR]\n"
               "workloads: cspa_unopt_jit andersen_interp andersen_par "
               "serve_reach\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options,
               std::string* work_root, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc && argv[i + 1][0] != '-';
    int64_t number = 0;
    if (arg == "--self-test") {
      options->self_test = true;
    } else if (arg == "--trace" && !has_value) {
      options->trace = true;
    } else if (!has_value) {
      *error = "missing value for " + arg;
      return false;
    } else if (arg == "--workload") {
      options->workload = argv[++i];
    } else if (arg == "--seed") {
      if (!util::ParseInt64(argv[++i], &number) || number < 0) {
        *error = "--seed needs a non-negative integer";
        return false;
      }
      options->seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds") {
      if (!util::ParseInt64(argv[++i], &number) || number < 1 ||
          number > 600) {
        *error = "--seconds needs an integer in [1, 600]";
        return false;
      }
      options->seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      options->trace = v == "1";
    } else if (arg == "--work-root") {
      *work_root = argv[++i];
    } else {
      *error = "unknown argument " + arg;
      return false;
    }
  }
  if (options->seconds <= 0) {
    *error = "--seconds is required";
    return false;
  }
  for (const char* w : kWorkloads) {
    if (options->workload == w) return true;
  }
  *error = options->workload.empty()
               ? "--workload is required"
               : "unknown workload " + options->workload;
  return false;
}

void PrintResult(const Report& report, bool trace) {
  const std::vector<Report::Metric>& metrics =
      trace ? report.per_layer : report.end_to_end;
  for (const Report::Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string work_root = ".bench_build";
  std::string error;
  if (!ParseArgs(argc, argv, &options, &work_root, &error)) {
    return Usage(error.c_str());
  }

  const Host& host = GetHost();
  std::fprintf(stderr,
               "workload %s seed %llu seconds %.0f trace %d | host: nproc=%d "
               "%s | %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0, host.nproc, host.uname.c_str(),
               host.compiler.c_str());

  options.work_dir = work_root + "/work/" + options.workload + "-" +
                     std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (options.trace) Tracer::Enable();

  Report report;
  LayerCounts layers;
  const auto start = std::chrono::steady_clock::now();
  try {
    if (IsBatchWorkload(options.workload)) {
      RunBatchWorkload(options, &report, &layers);
    } else {
      RunServeWorkload(options, &report, &layers);
    }
  } catch (const std::exception& e) {
    report.Check(false, std::string("exception: ") + e.what());
  }
  const double wall = Seconds(start);
  std::filesystem::remove_all(options.work_dir, ec);

  if (options.trace) {
    ReportLayers(layers, wall, &report);
    const std::string traces = work_root + "/traces";
    std::filesystem::create_directories(traces, ec);
    const std::string path = traces + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    if (Tracer::WriteJson(path)) {
      std::fprintf(stderr, "spans: %zu written to %s\n",
                   Tracer::spans().size(), path.c_str());
    }
  }
  PrintResult(report, options.trace);
  return report.correct ? 0 : 1;
}
