#include "report/json.hpp"

#include "fault/prng.hpp"
#include "report/table.hpp"
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <vector>

namespace stamp::report {
namespace {

std::string render(void (*build)(JsonWriter&)) {
  std::ostringstream os;
  JsonWriter w(os);
  build(w);
  EXPECT_TRUE(w.complete());
  return os.str();
}

TEST(Json, Scalars) {
  EXPECT_EQ(render([](JsonWriter& w) { w.value("hi"); }), "\"hi\"");
  EXPECT_EQ(render([](JsonWriter& w) { w.value(42LL); }), "42");
  EXPECT_EQ(render([](JsonWriter& w) { w.value(true); }), "true");
  EXPECT_EQ(render([](JsonWriter& w) { w.null(); }), "null");
}

TEST(Json, NumbersFormatted) {
  EXPECT_EQ(render([](JsonWriter& w) { w.value(1.5); }), "1.5");
  // NaN/Inf become null (JSON has no such literals).
  EXPECT_EQ(render([](JsonWriter& w) {
              w.value(std::numeric_limits<double>::quiet_NaN());
            }),
            "null");
  EXPECT_EQ(render([](JsonWriter& w) {
              w.value(std::numeric_limits<double>::infinity());
            }),
            "null");
}

TEST(Json, ObjectAndArray) {
  const std::string out = render([](JsonWriter& w) {
    w.begin_object();
    w.kv("name", "stamp");
    w.key("values");
    w.begin_array();
    w.value(1LL);
    w.value(2LL);
    w.end_array();
    w.kv("ok", true);
    w.end_object();
  });
  EXPECT_EQ(out, R"({"name":"stamp","values":[1,2],"ok":true})");
}

TEST(Json, NestedContainers) {
  const std::string out = render([](JsonWriter& w) {
    w.begin_array();
    w.begin_object();
    w.kv("a", 1LL);
    w.end_object();
    w.begin_object();
    w.kv("b", 2LL);
    w.end_object();
    w.end_array();
  });
  EXPECT_EQ(out, R"([{"a":1},{"b":2}])");
}

TEST(Json, Escaping) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonWriter::escape(std::string_view("x\x01y", 3)), "x\\u0001y");
  const std::string out =
      render([](JsonWriter& w) { w.value("quote\" and \\slash"); });
  EXPECT_EQ(out, "\"quote\\\" and \\\\slash\"");
  // Strings whose only escapes are a backslash or a control character.
  EXPECT_EQ(render([](JsonWriter& w) { w.value("a\\b"); }), "\"a\\\\b\"");
  EXPECT_EQ(render([](JsonWriter& w) { w.value("tab\there"); }),
            "\"tab\\there\"");
}

TEST(Json, StructureErrorsThrow) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1LL), std::logic_error);  // value without key
  }
  {
    JsonWriter w(os);
    EXPECT_THROW(w.key("k"), std::logic_error);  // key at root
  }
  {
    JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.end_object(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter w(os);
    w.begin_object();
    w.key("k");
    EXPECT_THROW(w.key("k2"), std::logic_error);  // two keys in a row
  }
  {
    JsonWriter w(os);
    w.value(1LL);
    EXPECT_THROW(w.value(2LL), std::logic_error);  // two roots
  }
}

TEST(Json, CompleteTracksState) {
  std::ostringstream os;
  JsonWriter w(os);
  EXPECT_FALSE(w.complete());
  w.begin_object();
  EXPECT_FALSE(w.complete());
  w.end_object();
  EXPECT_TRUE(w.complete());
}

TEST(Json, TableExport) {
  Table t("results", {"name", "count", "ratio"});
  t.add_row({Cell{std::string("alpha")}, Cell{3LL}, Cell{0.5}});
  t.add_row({Cell{std::string("beta")}, Cell{7LL}, Cell{1.25}});
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(os.str(),
            R"({"title":"results","rows":[)"
            R"({"name":"alpha","count":3,"ratio":0.5},)"
            R"({"name":"beta","count":7,"ratio":1.25}]})");
}

// -- number formatting against the old ostringstream formatter ---------------

/// The formatter every artifact used before `to_chars`: one ostringstream at
/// precision 15 (printf "%.15g"). It is the oracle the fast path must match
/// byte for byte. The stream is reused; its precision and flags never change.
class Oracle {
 public:
  Oracle() { ss_.precision(15); }
  std::string operator()(double v) {
    ss_.str("");
    ss_ << v;
    return ss_.str();
  }

 private:
  std::ostringstream ss_;
};

/// The old writer's document for `values`: one array, numbers through the
/// oracle formatter, non-finite values as null.
std::string oracle_array(std::span<const double> values) {
  std::ostringstream ss;
  ss.precision(15);
  ss << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) ss << ',';
    if (std::isfinite(values[i]))
      ss << values[i];
    else
      ss << "null";
  }
  ss << ']';
  return ss.str();
}

/// Writes `values` as one JsonWriter array and compares it with the oracle's
/// document. Returns "" when they match, else the first value the two
/// formatters disagree on.
std::string oracle_mismatch(std::span<const double> values) {
  const std::string want = oracle_array(values);
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
  if (os.str() == want) return "";

  Oracle oracle;
  for (const double v : values) {
    const std::string expected = oracle(v);
    if (format_number(v).view() == expected) continue;
    std::ostringstream msg;
    msg << "value with bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
        << ": format_number gave '" << format_number(v).view()
        << "', oracle '" << expected << "'";
    return msg.str();
  }
  return "documents differ, though every value formats the same";
}

TEST(JsonNumbers, RandomBitPatternsMatchOracle) {
  // The oracle is the slow side: printf does bignum arithmetic for large
  // exponents, ~0.8 us a value. Four slices on their own threads keep the
  // test well under a second.
  constexpr std::size_t kCount = 1'000'000;
  constexpr std::size_t kSlices = 4;
  std::vector<double> values;
  values.reserve(kCount);
  for (std::uint64_t i = 0; i < kCount; ++i)
    values.push_back(std::bit_cast<double>(fault::mix64(i)));
  std::vector<std::string> errors(kSlices);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSlices; ++s)
    threads.emplace_back([&, s] {
      errors[s] = oracle_mismatch(std::span<const double>(values).subspan(
          s * kCount / kSlices, kCount / kSlices));
    });
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");
}

TEST(JsonNumbers, SubnormalsAndZerosMatchOracle) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::nextafter(std::numeric_limits<double>::min(), 0.0),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()};
  // Exponent field zero, random sign and mantissa.
  for (std::uint64_t i = 0; i < 20000; ++i)
    values.push_back(std::bit_cast<double>(fault::mix64(i ^ 0x5AB) &
                                           0x800FFFFFFFFFFFFFull));
  EXPECT_EQ(oracle_mismatch(values), "");
}

TEST(JsonNumbers, IntegersUpTo2To53MatchOracle) {
  std::vector<double> values;
  for (int k = 0; k <= 53; ++k) {
    const double p = std::ldexp(1.0, k);
    for (const double v : {p - 1, p, p + 1}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  double ten = 1;
  for (int k = 0; k <= 17; ++k, ten *= 10) {
    for (const double v : {ten - 1, ten, ten + 1}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  // Random integers of every magnitude up to 2^53.
  for (std::uint64_t i = 0; i < 50000; ++i) {
    const std::uint64_t bits = fault::mix64(i ^ 0x1D7);
    const auto n = static_cast<double>(bits >> (11 + i % 53));
    values.push_back((bits & 1) != 0 ? -n : n);
  }
  EXPECT_EQ(oracle_mismatch(values), "");
}

TEST(JsonNumbers, ExponentSwitchBoundariesMatchOracle) {
  // "%g" switches to exponent form below 1e-4 and at 15 integer digits;
  // rounding to 15 digits can carry a value across either switch.
  std::vector<double> values;
  for (const double base : {1e-5, 1e-4, 1e15, 1e16, 1e17}) {
    for (const double sign : {1.0, -1.0}) {
      double up = base;
      double down = base;
      for (int k = 0; k < 2000; ++k) {
        values.push_back(sign * up);
        values.push_back(sign * down);
        up = std::nextafter(up, INFINITY);
        down = std::nextafter(down, 0.0);
      }
      for (std::uint64_t i = 0; i < 5000; ++i) {
        const double rel = (fault::u01(fault::mix64(i ^ 0xB0)) - 0.5) * 1e-13;
        values.push_back(sign * base * (1 + rel));
      }
    }
  }
  for (const double v : {999999999999999.4, 999999999999999.5,
                         999999999999999.6, 9.999999999999994e-5,
                         9.999999999999995e-5, 9.999999999999996e-5,
                         9.999999999999994e-6, 9.999999999999995e-6})
    values.push_back(v);
  EXPECT_EQ(oracle_mismatch(values), "");
}

TEST(JsonNumbers, RoundingTiesMatchOracle) {
  // Doubles whose exact decimal expansion ends in a 5 at the 16th
  // significant digit: the 15-digit rounding is an exact tie.
  std::vector<double> values;
  for (std::uint64_t i = 0; i < 50000; ++i) {
    const std::uint64_t bits = fault::mix64(i ^ 0x71E5);
    // n has 15 digits, so n + 0.5 is exact and a tie at digit 16.
    const std::uint64_t n = 100000000000000ull + bits % 900000000000000ull;
    values.push_back(static_cast<double>(n) + 0.5);
    // m * 10 + 5 is a 16-digit integer below 2^53, also a tie.
    const std::uint64_t m = 100000000000000ull + (bits >> 7) % 800000000000000ull;
    values.push_back(static_cast<double>(m * 10 + 5));
    // Dyadic fractions scaled down: exact expansions that end in 5.
    values.push_back(std::ldexp(static_cast<double>(n * 2 + 1),
                                -static_cast<int>(1 + bits % 60)));
  }
  EXPECT_EQ(oracle_mismatch(values), "");
}

TEST(JsonNumbers, NonFiniteBecomeNull) {
  const std::vector<double> values = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  Oracle oracle;
  for (const double v : values) EXPECT_EQ(format_number(v).view(), oracle(v));
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null,null,null,null]");
}

TEST(JsonNumbers, LongLongExtremesMatchToString) {
  std::vector<long long> values = {LLONG_MIN, LLONG_MIN + 1, -1, 0,
                                   1,         LLONG_MAX - 1, LLONG_MAX};
  for (std::uint64_t i = 0; i < 10000; ++i)
    values.push_back(
        static_cast<long long>(fault::mix64(i ^ 0x11) >> (i % 64)));
  std::string want;
  std::ostringstream os;
  for (const long long v : values) {
    JsonWriter w(os);
    w.value(v);
    os << ' ';
    want += std::to_string(v) + ' ';
  }
  EXPECT_EQ(os.str(), want);
}

// -- the block buffer -----------------------------------------------------------

TEST(JsonBuffer, TwoWritersAndRawWritesKeepProgramOrder) {
  // Two writers alive in one scope on one stream, each finished document
  // followed by a raw newline: the bytes come out in program order.
  std::ostringstream os;
  JsonWriter inputs(os);
  inputs.begin_object().key("inputs").begin_object();
  inputs.kv("seed", "1");
  inputs.key("failures").begin_array();
  inputs.end_array().end_object().end_object();
  os << "\n";

  JsonWriter result(os);
  result.begin_object();
  result.kv("correct", true);
  result.kv("attempted", 3LL);
  result.end_object();
  os << "\n";

  EXPECT_EQ(os.str(),
            "{\"inputs\":{\"seed\":\"1\",\"failures\":[]}}\n"
            "{\"correct\":true,\"attempted\":3}\n");
}

TEST(JsonBuffer, UnfinishedDocumentReachesStreamOnDestruction) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_array();
    w.value(1LL);
  }
  EXPECT_EQ(os.str(), "[1");
}

TEST(JsonBuffer, DocumentLargerThanBufferMatchesOracle) {
  // Records with escaped keys and strings, numbers, and one string longer
  // than the whole buffer, built alongside the expected bytes.
  Oracle oracle;
  const std::string huge(JsonWriter::kBufferBytes + 123, 'x');
  const std::string huge_escaped =
      std::string(JsonWriter::kBufferBytes / 2, '"') + "tail";
  std::string want = "[";
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const double d = std::bit_cast<double>(fault::mix64(i) >> 2);
    const std::string name = "key\t" + std::to_string(i);
    w.begin_object();
    w.kv("d", d);
    w.kv(name, "v\"" + std::to_string(i));
    w.kv("n", static_cast<long long>(i));
    w.end_object();
    if (i > 0) want += ',';
    want += "{\"d\":" + oracle(d) + ",\"" + JsonWriter::escape(name) +
            "\":\"v\\\"" + std::to_string(i) + "\",\"n\":" +
            std::to_string(i) + "}";
  }
  w.value(huge);
  w.value(huge_escaped);
  w.end_array();
  want += ",\"" + huge + "\",\"" + JsonWriter::escape(huge_escaped) + "\"]";
  ASSERT_GT(want.size(), 4 * JsonWriter::kBufferBytes);
  EXPECT_EQ(os.str(), want);
}

/// A streambuf that accepts `limit` bytes and then fails every write.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::size_t limit) : room_(limit) {}

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const auto take = std::min<std::streamsize>(
        n, static_cast<std::streamsize>(room_));
    room_ -= static_cast<std::size_t>(take);
    return take;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof()) || room_ == 0)
      return traits_type::eof();
    --room_;
    return ch;
  }

 private:
  std::size_t room_;
};

TEST(JsonBuffer, SweepWriteJsonThrowsWhenTheStreamFails) {
  const sweep::SweepResult result =
      sweep::run_sweep(sweep::SweepConfig::tiny(), nullptr);
  const std::size_t bytes = sweep::to_json(result).size();
  for (const std::size_t limit : {std::size_t{0}, std::size_t{100}, bytes - 1}) {
    FailingBuf buf(limit);
    std::ostream os(&buf);
    EXPECT_THROW(sweep::write_json(result, os), std::runtime_error)
        << "limit " << limit;
  }
  FailingBuf enough(bytes);
  std::ostream os(&enough);
  EXPECT_NO_THROW(sweep::write_json(result, os));
}

}  // namespace
}  // namespace stamp::report
