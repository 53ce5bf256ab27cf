#include "net/framing.h"

#include <cstdio>

namespace carac::net {

void StripComment(std::string* line) {
  for (size_t i = 0; i < line->size(); ++i) {
    if ((*line)[i] != '#') continue;
    if (i == 0 || (*line)[i - 1] == ' ' || (*line)[i - 1] == '\t') {
      line->resize(i);
      return;
    }
  }
}

void LineBuffer::Append(const char* data, size_t n) {
  if (read_ > 0) {
    buffer_.erase(0, read_);
    scan_ -= read_;
    read_ = 0;
  }
  buffer_.append(data, n);
}

bool LineBuffer::NextLine(std::string* out) {
  const size_t pos = buffer_.find('\n', scan_);
  if (pos == std::string::npos) {
    scan_ = buffer_.size();
    return false;
  }
  out->assign(buffer_, read_, pos - read_);
  if (!out->empty() && out->back() == '\r') out->pop_back();
  read_ = pos + 1;
  scan_ = read_;
  return true;
}

void StdioWriter::Payload(std::string_view line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
}

void StdioWriter::Error(std::string_view message) {
  std::fwrite(message.data(), 1, message.size(), stderr);
  std::fputc('\n', stderr);
}

void WireResponse::Payload(std::string_view line) {
  out_ += "| ";
  out_ += line;
  out_ += '\n';
}

void WireResponse::Error(std::string_view message) {
  error_.assign(message);
  has_error_ = true;
}

std::string WireResponse::Finish() && {
  if (has_error_) {
    out_ += "err ";
    out_ += error_;
  } else {
    out_ += "ok";
  }
  out_ += '\n';
  return std::move(out_);
}

}  // namespace carac::net
