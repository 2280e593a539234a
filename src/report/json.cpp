#include "report/json.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <ostream>
#include <stdexcept>

namespace stamp::report {
namespace {

/// JSON spelling of a character that must be escaped, or empty when `ch`
/// goes out as is.
std::string_view escape_of(unsigned char ch, char (&buf)[8]) noexcept {
  switch (ch) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default:
      if (ch >= 0x20) return {};
      static constexpr char kHex[] = "0123456789abcdef";
      std::memcpy(buf, "\\u00", 4);
      buf[4] = kHex[ch >> 4];
      buf[5] = kHex[ch & 0xF];
      return {buf, 6};
  }
}

/// Writes printf("%.15g") of `v` at `out`; needs 32 bytes of room.
char* write_number(char* out, double v) noexcept {
  // "%.15g" prints an integral value below 1e15 as its plain digits, which
  // the integer conversion produces several times faster. Most numbers in
  // the sweep schema are such integers. -0.0 keeps its sign below.
  if (std::fabs(v) < 1e15) {
    const auto n = static_cast<long long>(v);
    if (static_cast<double>(n) == v && (n != 0 || !std::signbit(v)))
      return std::to_chars(out, out + sizeof(NumberText::data), n).ptr;
  }
  return std::to_chars(out, out + sizeof(NumberText::data), v,
                       std::chars_format::general, 15)
      .ptr;
}

}  // namespace

NumberText format_number(double v) noexcept {
  NumberText text;
  text.size = static_cast<std::size_t>(write_number(text.data, v) - text.data);
  return text;
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  char buf[8] = {};
  for (const char ch : s) {
    const std::string_view e = escape_of(static_cast<unsigned char>(ch), buf);
    if (e.empty())
      out += ch;
    else
      out += e;
  }
  return out;
}

JsonWriter::JsonWriter(std::ostream& os)
    : os_(&os), buf_(new char[kBufferBytes]) {}

JsonWriter::~JsonWriter() {
  try {
    flush();
  } catch (...) {
    // A stream with exceptions enabled reports its failure through its own
    // state; a destructor must not throw on top of it.
  }
}

void JsonWriter::flush() {
  if (len_ == 0) return;
  os_->write(buf_.get(), static_cast<std::streamsize>(len_));
  len_ = 0;
}

char* JsonWriter::reserve(std::size_t n) {
  if (kBufferBytes - len_ < n) flush();
  return buf_.get() + len_;
}

void JsonWriter::put(std::string_view s) {
  if (s.size() > kBufferBytes) {
    flush();
    os_->write(s.data(), static_cast<std::streamsize>(s.size()));
    return;
  }
  std::memcpy(reserve(s.size()), s.data(), s.size());
  len_ += s.size();
}

void JsonWriter::put_quoted(std::string_view s) {
  const auto clean = [](char ch) {
    const auto c = static_cast<unsigned char>(ch);
    return c >= 0x20 && c != '"' && c != '\\';
  };
  std::size_t run = 0;  // end of the prefix that needs no escaping
  while (run < s.size() && clean(s[run])) ++run;
  if (run == s.size() && s.size() + 2 <= kBufferBytes) {
    char* out = reserve(s.size() + 2);
    out[0] = '"';
    std::memcpy(out + 1, s.data(), s.size());
    out[s.size() + 1] = '"';
    len_ += s.size() + 2;
    return;
  }
  put('"');
  char buf[8] = {};
  std::size_t start = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = run; i < s.size(); ++i) {
    const std::string_view e =
        escape_of(static_cast<unsigned char>(s[i]), buf);
    if (e.empty()) continue;
    put(s.substr(start, i - start));
    put(e);
    start = i + 1;
  }
  put(s.substr(start));
  put('"');
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (root_written_)
      throw std::logic_error("JsonWriter: more than one root value");
    return;
  }
  Open& top = stack_.back();
  if (top.frame == Frame::Object && !key_pending_)
    throw std::logic_error("JsonWriter: value in object without a key");
  // In an object the comma (if any) was already emitted by key(); in an
  // array it is emitted here.
  if (top.frame == Frame::Array && !top.first) put(',');
  top.first = false;
  key_pending_ = false;
}

void JsonWriter::after_value() {
  if (!stack_.empty()) return;
  root_written_ = true;
  flush();
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back().frame != Frame::Object)
    throw std::logic_error("JsonWriter: key outside an object");
  if (key_pending_) throw std::logic_error("JsonWriter: two keys in a row");
  if (!stack_.back().first) put(',');
  stack_.back().first = false;
  put_quoted(k);
  put(':');
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  put('{');
  stack_.push_back({Frame::Object, true});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back().frame != Frame::Object || key_pending_)
    throw std::logic_error("JsonWriter: unbalanced end_object");
  put('}');
  stack_.pop_back();
  after_value();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  put('[');
  stack_.push_back({Frame::Array, true});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back().frame != Frame::Array)
    throw std::logic_error("JsonWriter: unbalanced end_array");
  put(']');
  stack_.pop_back();
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  put_quoted(v);
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (std::isfinite(v)) {
    len_ = static_cast<std::size_t>(
        write_number(reserve(sizeof(NumberText::data)), v) - buf_.get());
  } else {
    put("null");  // JSON has no NaN/Inf
  }
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(long long v) {
  before_value();
  constexpr std::size_t kRoom = 24;  // "-9223372036854775808" is 20 chars
  char* out = reserve(kRoom);
  len_ = static_cast<std::size_t>(std::to_chars(out, out + kRoom, v).ptr -
                                  buf_.get());
  after_value();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  put(v ? "true" : "false");
  after_value();
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  put("null");
  after_value();
  return *this;
}

}  // namespace stamp::report
