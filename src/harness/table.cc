#include "harness/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace carac::harness {

std::string TablePrinter::Render() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out;
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      const size_t pad = widths[c] - cell.size();
      if (c == 0) {
        out += cell + std::string(pad, ' ');
      } else {
        out += std::string(pad, ' ') + cell;
      }
      if (c + 1 < widths.size()) out += "  ";
    }
    out += "\n";
    return out;
  };

  std::string out = render_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out += std::string(total > 2 ? total - 2 : total, '-') + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TablePrinter::Print() const { std::fputs(Render().c_str(), stdout); }

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds >= 100) {
    std::snprintf(buf, sizeof(buf), "%.1f", seconds);
  } else if (seconds >= 0.1) {
    std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.5f", seconds);
  }
  return buf;
}

std::string FormatSpeedup(double speedup) {
  char buf[32];
  if (speedup >= 100) {
    std::snprintf(buf, sizeof(buf), "%.0fx", speedup);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
  }
  return buf;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

RecordField::RecordField(std::string key, const std::string& value)
    : key(std::move(key)), json(JsonString(value)) {}

RecordField::RecordField(std::string key, double value, int decimals)
    : key(std::move(key)) {
  if (!std::isfinite(value)) {
    json = "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  json = buf;
}

std::string FormatRecord(const std::string& bench, const std::string& record,
                         const std::vector<RecordField>& fields) {
  std::string out = "{\"bench\": " + JsonString(bench) +
                    ", \"record\": " + JsonString(record);
  for (const RecordField& field : fields) {
    out += ", " + JsonString(field.key) + ": " + field.json;
  }
  return out + "}";
}

void EmitRecord(const std::string& bench, const std::string& record,
                const std::vector<RecordField>& fields) {
  std::printf("%s\n", FormatRecord(bench, record, fields).c_str());
}

}  // namespace carac::harness
