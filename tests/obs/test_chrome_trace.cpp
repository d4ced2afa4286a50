// Golden-file test of the Chrome trace_event exporter: runs a small CG
// workload through the simulator with observability on, exports the
// trace, and parses the JSON back with a minimal recursive-descent
// parser to prove the exporter emits structurally valid JSON with the
// trace_event fields Perfetto/chrome://tracing require.

#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "sim/machine_sim.hpp"
#include "topology/presets.hpp"
#include "workloads/workload.hpp"

namespace occm::obs {
namespace {

// --- minimal JSON validator ------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses one complete JSON value; returns false on any syntax error or
  /// trailing garbage.
  bool parse() {
    pos_ = 0;
    objects = arrays = strings = numbers = 0;
    if (!value()) {
      return false;
    }
    skipWs();
    return pos_ == text_.size();
  }

  std::size_t objects = 0;
  std::size_t arrays = 0;
  std::size_t strings = 0;
  std::size_t numbers = 0;

 private:
  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
              return false;
            }
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    ++strings;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    std::size_t digits = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      pos_ = start;
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    ++numbers;
    return true;
  }
  bool object() {
    if (text_[pos_] != '{') {
      return false;
    }
    ++pos_;
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      ++objects;
      return true;
    }
    while (true) {
      skipWs();
      if (!string()) {
        return false;
      }
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return false;
      }
      ++pos_;
      if (!value()) {
        return false;
      }
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != '}') {
      return false;
    }
    ++pos_;
    ++objects;
    return true;
  }
  bool array() {
    if (text_[pos_] != '[') {
      return false;
    }
    ++pos_;
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      ++arrays;
      return true;
    }
    while (true) {
      if (!value()) {
        return false;
      }
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != ']') {
      return false;
    }
    ++pos_;
    ++arrays;
    return true;
  }
  bool value() {
    skipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

perf::RunProfile tracedCgRun() {
  workloads::WorkloadSpec spec;
  spec.program = workloads::Program::kCG;
  spec.problemClass = workloads::ProblemClass::kS;
  spec.threads = 4;
  const auto instance = workloads::makeWorkload(spec);
  sim::SimConfig config;
  config.observability.metrics = true;
  config.observability.trace = true;
  sim::MachineSim sim(topology::testNuma4(), config);
  return sim.run(instance.threads, 4, instance.name);
}

// --- tests -----------------------------------------------------------------

TEST(ChromeTrace, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape(std::string("a\x01" "b", 3)), "a\\u0001b");
}

TEST(ChromeTrace, EmptyTraceIsValidJson) {
  RunTrace trace(100, 16, 1.0);
  const std::string json = toChromeTraceJson(trace);
  JsonParser parser(json);
  EXPECT_TRUE(parser.parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(ChromeTrace, GoldenCgRunRoundTripsThroughParser) {
  const perf::RunProfile profile = tracedCgRun();
  ASSERT_NE(profile.trace, nullptr);
  EXPECT_GT(profile.trace->events.size(), 0u);
  EXPECT_GT(profile.trace->metrics.size(), 0u);

  const std::string json = toChromeTraceJson(*profile.trace);
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse());
  // One object per event plus the root and args objects; a real run emits
  // thousands.
  EXPECT_GT(parser.objects, profile.trace->events.size());

  // The trace_event essentials are present.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track names
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(json.find("memory controller 0"), std::string::npos);
  EXPECT_NE(json.find("mem.node0.utilization"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
}

TEST(ChromeTrace, RejectsMalformedJson) {
  // Sanity-check the validator itself so the golden test means something.
  EXPECT_FALSE(JsonParser(R"({"a":1,})").parse());
  EXPECT_FALSE(JsonParser(R"({"a":)").parse());
  EXPECT_FALSE(JsonParser(R"([1,2)").parse());
  EXPECT_FALSE(JsonParser("{} trailing").parse());
  EXPECT_TRUE(JsonParser(R"({"a":[1,2.5,-3e4],"b":"x"})").parse());
}

}  // namespace
}  // namespace occm::obs
