#pragma once
/// \file json.hpp
/// \brief A small streaming JSON writer for exporting bench results and
///        evaluations to downstream tooling (plots, dashboards).
///
/// Deliberately minimal: objects, arrays, scalars, correct escaping and
/// number formatting. Structure errors (mismatched begin/end, missing keys)
/// throw rather than emit invalid JSON.
///
/// Every artifact and wire line goes through this writer, so it is built to
/// cost little per token: numbers are formatted with `std::to_chars` and
/// tokens collect in a fixed block buffer that reaches the stream with one
/// `os.write` per block.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stamp::report {

/// A double in the canonical number format of every artifact: what
/// `printf("%.15g")` prints, which is what JsonWriter emits. Two doubles are
/// "the same value" to the byte-identity contracts exactly when their texts
/// are equal. NaN and Inf come out as "nan" / "inf" (JsonWriter itself
/// writes them as null).
struct NumberText {
  char data[32] = {};  ///< "-1.23456789012345e-308", the longest, is 22
  std::size_t size = 0;
  [[nodiscard]] std::string_view view() const noexcept { return {data, size}; }
};

[[nodiscard]] NumberText format_number(double v) noexcept;

class JsonWriter {
 public:
  /// Tokens collect in a buffer of this many bytes. It is handed to the
  /// stream when it fills, when the root value completes, and on
  /// destruction, so raw writes after a finished document (and a second
  /// writer on the same stream) stay in program order.
  static constexpr std::size_t kBufferBytes = 64 * 1024;

  explicit JsonWriter(std::ostream& os);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // -- structure ---------------------------------------------------------------
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key for the next value (only inside an object).
  JsonWriter& key(std::string_view k);

  // -- scalars -----------------------------------------------------------------
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(long long v);
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key + value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// True when the document is complete (all containers closed, one root).
  [[nodiscard]] bool complete() const noexcept {
    return stack_.empty() && root_written_;
  }

  /// Escape a string for JSON (exposed for tests).
  [[nodiscard]] static std::string escape(std::string_view s);

 private:
  enum class Frame { Object, Array };
  struct Open {
    Frame frame;
    bool first;  ///< no member/element written yet
  };

  void before_value();
  /// Marks the root complete and flushes once the outermost value closes.
  void after_value();
  /// Room for `n` more bytes (n <= kBufferBytes), flushing if needed.
  char* reserve(std::size_t n);
  void put(char c) { *reserve(1) = c; ++len_; }
  void put(std::string_view s);
  void put_quoted(std::string_view s);
  void flush();

  std::ostream* os_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
  std::vector<Open> stack_;
  bool key_pending_ = false;
  bool root_written_ = false;
};

}  // namespace stamp::report
