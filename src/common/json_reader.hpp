#pragma once

// Minimal recursive-descent reader for the JSON subset the fault-plan
// format emits (objects, arrays, strings, numbers); its one user is
// fault/fault_plan_io.
//
// Hardened for untrusted bytes: every primitive bounds-checks, nothing
// asserts, and the first deviation records a byte offset plus a
// human-readable detail so typed errors can name exactly where a file
// went bad. A reader that has failed stays failed — callers can parse
// optimistically and inspect ok()/errorOffset()/errorDetail() once at
// the end. truncated() distinguishes "the bytes ran out" from "the bytes
// are garbage", which loaders map to different error kinds.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

namespace occm {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// Byte offset of the first failure (valid only when !ok()).
  [[nodiscard]] std::size_t errorOffset() const noexcept { return errorPos_; }
  [[nodiscard]] const std::string& errorDetail() const noexcept {
    return errorDetail_;
  }
  /// True when the first failure was the input ending mid-structure.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  /// Current read position (for callers recording record offsets).
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }

  /// Records the first failure; later failures are ignored.
  void fail(const std::string& detail) {
    if (ok_) {
      ok_ = false;
      errorPos_ = pos_;
      errorDetail_ = detail;
      truncated_ = pos_ >= text_.size();
    }
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skipWs();
    if (!ok_) {
      return false;
    }
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    ++pos_;
    return true;
  }

  [[nodiscard]] bool peek(char c) {
    skipWs();
    return ok_ && pos_ < text_.size() && text_[pos_] == c;
  }

  /// True at end of input (after whitespace); does not fail the reader.
  [[nodiscard]] bool atEnd() {
    skipWs();
    return pos_ >= text_.size();
  }

  /// Walks one object: for each key, field(key, keyOffset) must consume
  /// the value and returns false to stop. False when the walk stopped or
  /// the reader failed.
  template <typename Field>
  bool parseObject(Field&& field) {
    if (!consume('{')) {
      return false;
    }
    for (bool first = true; ok_ && !peek('}'); first = false) {
      if (!first && !consume(',')) {
        return false;
      }
      skipWs();
      const std::size_t keyOffset = pos_;
      const std::string key = parseString();
      if (!consume(':') || !field(key, keyOffset)) {
        return false;
      }
    }
    return consume('}');
  }

  /// Walks one array: element() must consume one element and returns
  /// false to stop. False when the walk stopped or the reader failed.
  template <typename Element>
  bool parseArray(Element&& element) {
    if (!consume('[')) {
      return false;
    }
    for (bool first = true; ok_ && !peek(']'); first = false) {
      if ((!first && !consume(',')) || !element()) {
        return false;
      }
    }
    return consume(']');
  }

  std::string parseString() {
    if (!consume('"')) {
      return {};
    }
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("string escape runs past end of input");
          return out;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("\\u escape runs past end of input");
              return out;
            }
            const std::string hex(text_.substr(pos_, 4));
            char* end = nullptr;
            const unsigned long code = std::strtoul(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) {
              fail("bad \\u escape digits");
              return out;
            }
            pos_ += 4;
            c = static_cast<char>(code & 0xFFU);
            break;
          }
          default: c = esc; break;
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  double parseNumber() {
    skipWs();
    if (!ok_) {
      return 0.0;
    }
    if (pos_ >= text_.size()) {
      fail("expected a number");
      return 0.0;
    }
    // strtod needs a NUL-terminated buffer; copy the token's plausible
    // extent instead of trusting the underlying view to be terminated.
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) != 0 ||
            text_[end] == '+' || text_[end] == '-' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    const std::string token(text_.substr(pos_, end - pos_));
    errno = 0;
    char* stop = nullptr;
    const double value = std::strtod(token.c_str(), &stop);
    if (stop == token.c_str() || errno == ERANGE) {
      fail("malformed number");
      return 0.0;
    }
    pos_ += static_cast<std::size_t>(stop - token.c_str());
    return value;
  }

  /// Reads a number that must be an integer within int's range; a
  /// fraction or an out-of-range value fails the reader naming `field`
  /// (converting such a double to int is undefined behaviour).
  int parseInt(std::string_view field) {
    const double value = parseNumber();
    if (!ok_) {
      return 0;
    }
    if (!(value >= std::numeric_limits<int>::min() &&
          value <= std::numeric_limits<int>::max()) ||
        value != std::trunc(value)) {
      fail(std::string(field) + " is not an integer in int's range");
      return 0;
    }
    return static_cast<int>(value);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  bool truncated_ = false;
  std::size_t errorPos_ = 0;
  std::string errorDetail_;
};

}  // namespace occm
