#ifndef CARAC_BENCHMARK_TRACE_H_
#define CARAC_BENCHMARK_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace carac::bench {

/// One recorded span: a call from the benchmark into one layer's public
/// function. Times are microseconds since the tracer was enabled.
struct SpanRecord {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  /// Index of the span that was open when this one began, or -1.
  int64_t parent = -1;
  /// Spans issued on behalf of one protocol request share this id; 0
  /// when the span serves no particular request.
  uint64_t request = 0;
};

/// In-memory span recorder for `--trace 1` runs. Spans nest by call
/// order (carac_bench records from one thread), stay in memory, and are
/// written out once, when the run ends. Disabled, every call is a
/// branch on one flag, so untraced runs measure the engine alone.
class Tracer {
 public:
  static void Enable();
  static bool enabled() { return enabled_; }

  static size_t Begin(std::string_view name, uint64_t request = 0);
  static void End(size_t span);
  /// Records a span whose interval was measured elsewhere — a client
  /// request, timed from its due time, that overlaps others in flight.
  /// It nests under nothing.
  static void Record(std::string_view name, double start_us, double end_us,
                     uint64_t request);
  /// Microseconds since Enable(), on the clock spans use.
  static double NowUs();

  static const std::vector<SpanRecord>& spans() { return spans_; }
  /// Durations of every closed span named `name`, in seconds.
  static std::vector<double> Durations(std::string_view name);

  /// Estimated time the recorder itself spent, in seconds: the span
  /// count times a per-span cost calibrated when tracing was enabled.
  static double OverheadSeconds();

  /// Writes every span as a JSON array to `path`.
  static bool WriteJson(const std::string& path);

 private:
  static bool enabled_;
  static std::vector<SpanRecord> spans_;
  static std::vector<size_t> open_;
  static double per_span_seconds_;
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(std::string_view name, uint64_t request = 0)
      : id_(Tracer::enabled() ? Tracer::Begin(name, request) : kNone) {}
  ~Span() {
    if (id_ != kNone) Tracer::End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t id_;
};

}  // namespace carac::bench

#endif  // CARAC_BENCHMARK_TRACE_H_
