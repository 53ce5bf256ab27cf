#ifndef CARAC_NET_FRAMING_H_
#define CARAC_NET_FRAMING_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace carac::net {

/// Truncates `line` at the first comment marker. A '#' starts a comment
/// only at the beginning of the line or after whitespace — a '#' embedded
/// in a token is payload (`load Edge data#1.csv` names a file, and
/// truncating it used to make serve try to load "data"). The comment
/// convention is documented per line, so this is the single
/// implementation both the stdin serve loop and the socket server use.
void StripComment(std::string* line);

/// Longest request line the socket server accepts, terminator excluded.
/// A session whose line grows past it gets `err request line exceeds
/// <N> bytes` and is closed, so a client that never sends '\n' cannot
/// grow server memory without bound.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

/// Reassembles the line-per-request protocol from arbitrary read chunks:
/// a socket read may deliver half a line or twelve of them, and the
/// dispatcher feeds whatever arrived. NextLine() hands back complete
/// lines (without the terminator; a trailing '\r' is stripped so naive
/// CRLF clients work) and leaves any unterminated tail buffered for the
/// next Append(). Linear in the bytes fed: extracted lines advance a read
/// offset, and the consumed prefix is dropped once per Append().
class LineBuffer {
 public:
  void Append(const char* data, size_t n);

  /// Extracts the next complete line into `out`; false when no full
  /// line is buffered yet.
  bool NextLine(std::string* out);

  /// Buffered bytes not yet returned as lines.
  size_t pending_bytes() const { return buffer_.size() - read_; }

 private:
  std::string buffer_;
  size_t read_ = 0;  // Start of the unconsumed bytes.
  size_t scan_ = 0;  // No '\n' in [read_, scan_): resume the search here.
};

/// Where one command's response goes. The executor (ExecuteServeLine)
/// emits payload lines and at most one diagnostic through this
/// interface; the caller decides the wire format — stdout/stderr for
/// `carac serve`, framed socket responses for `carac server`.
class ResponseWriter {
 public:
  virtual ~ResponseWriter() = default;
  /// One payload line (no trailing newline).
  virtual void Payload(std::string_view line) = 0;
  /// The command's diagnostic (at most one per command).
  virtual void Error(std::string_view message) = 0;
};

/// The stdin-serve writer: payload to stdout, diagnostics to stderr —
/// byte-identical to what serve has always printed. Flushing after each
/// command is the caller's job (see RunServe: stdout is block-buffered
/// on pipes, so unflushed responses deadlock programmatic clients).
class StdioWriter : public ResponseWriter {
 public:
  void Payload(std::string_view line) override;
  void Error(std::string_view message) override;
};

/// Accumulates one command's response in wire form:
///
///   | <payload line>        (zero or more, "| "-prefixed)
///   ok                      (or: err <diagnostic>)
///
/// The prefix keeps framing unambiguous — a payload line whose text is
/// literally "ok" (a symbol dump can contain anything) can never be
/// mistaken for the terminator. Blank and comment-only request lines
/// produce no response at all (the executor reports kSilent and the
/// server skips Finish()).
class WireResponse : public ResponseWriter {
 public:
  void Payload(std::string_view line) override;
  void Error(std::string_view message) override;

  /// Appends the terminator and returns the complete wire bytes.
  std::string Finish() &&;

 private:
  std::string out_;
  std::string error_;
  bool has_error_ = false;
};

}  // namespace carac::net

#endif  // CARAC_NET_FRAMING_H_
