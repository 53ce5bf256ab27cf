#ifndef CARAC_HARNESS_TABLE_H_
#define CARAC_HARNESS_TABLE_H_

#include <string>
#include <type_traits>
#include <vector>

namespace carac::harness {

/// Aligned ASCII table printer for the bench harnesses: each bench binary
/// reproduces the rows/series of one paper table or figure and prints them
/// in this format so EXPERIMENTS.md can quote the output directly.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Renders with per-column padding; first column left-aligned, the rest
  /// right-aligned (numbers).
  std::string Render() const;

  /// Render() to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "12.3", "0.0123", "1.23e-05"-style compact formatting.
std::string FormatSeconds(double seconds);
std::string FormatSpeedup(double speedup);

/// One typed field of a bench record, rendered to its JSON text when
/// built: a string stays a string, an integer prints exactly, and a
/// double prints with a fixed number of decimals (non-finite -> null).
struct RecordField {
  RecordField(std::string key, const std::string& value);
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T> &&
                                                    !std::is_same_v<T, bool>>>
  RecordField(std::string key, T value)
      : key(std::move(key)), json(std::to_string(value)) {}
  RecordField(std::string key, double value, int decimals);

  std::string key;
  std::string json;
};

/// One machine-readable bench record as a single-line JSON object:
/// {"bench": ..., "record": ..., <fields in order>}. scripts/run_benches.sh
/// collects every such line of a bench's stdout into the snapshot's
/// `records` array.
std::string FormatRecord(const std::string& bench, const std::string& record,
                         const std::vector<RecordField>& fields);

/// FormatRecord() plus a newline, to stdout.
void EmitRecord(const std::string& bench, const std::string& record,
                const std::vector<RecordField>& fields);

}  // namespace carac::harness

#endif  // CARAC_HARNESS_TABLE_H_
