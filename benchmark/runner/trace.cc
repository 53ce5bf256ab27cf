#include "trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace carac::bench {

namespace {

std::chrono::steady_clock::time_point g_origin;

/// Escapes the few characters span names can contain in JSON.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool Tracer::enabled_ = false;
std::vector<SpanRecord> Tracer::spans_;
std::vector<size_t> Tracer::open_;
double Tracer::per_span_seconds_ = 0;

double Tracer::NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

void Tracer::Enable() {
  g_origin = std::chrono::steady_clock::now();
  enabled_ = true;
  // Calibrate the recorder's own cost so trace.overhead_frac can be
  // reported from the span count instead of re-running untraced.
  constexpr int kCalibration = 4000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalibration; ++i) {
    Span span("trace.calibration");
  }
  per_span_seconds_ = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      kCalibration;
  spans_.clear();
}

size_t Tracer::Begin(std::string_view name, uint64_t request) {
  SpanRecord span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.request = request;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Record(std::string_view name, double start_us, double end_us,
                    uint64_t request) {
  SpanRecord span;
  span.name = std::string(name);
  span.start_us = start_us;
  span.end_us = end_us;
  span.request = request;
  spans_.push_back(std::move(span));
}

void Tracer::End(size_t span) {
  spans_[span].end_us = NowUs();
  // Spans close in LIFO order (RAII), so the open stack pops exactly.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<double> Tracer::Durations(std::string_view name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) * 1e-6);
  }
  return out;
}

double Tracer::OverheadSeconds() {
  return per_span_seconds_ * static_cast<double>(spans_.size());
}

bool Tracer::WriteJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"start_us\": %.3f, \"end_us\": %.3f",
                  s.start_us, s.end_us);
    out << "  {\"id\": " << i << ", \"name\": " << JsonString(s.name) << ", "
        << times << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace carac::bench
