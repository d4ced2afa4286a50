#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "obs/chrome_trace.hpp"

namespace perfbench {

namespace {

std::uint64_t steadyNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string Span::layer() const {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epochNs_(steadyNs()) {}

std::uint64_t SpanRecorder::nowNs() const noexcept {
  return steadyNs() - epochNs_;
}

std::int64_t SpanRecorder::add(std::string name, std::uint64_t startNs,
                               std::uint64_t endNs, std::int64_t parent,
                               std::uint64_t requestId) {
  if (!enabled_) {
    return -1;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.startNs = startNs;
  span.endNs = endNs;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent = parent;
  span.requestId = requestId;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent) {
  if (!enabled_) {
    return -1;
  }
  const std::uint64_t now = nowNs();
  return add(std::move(name), now, now, parent);
}

void SpanRecorder::finish(std::int64_t id) {
  if (!enabled_ || id < 0) {
    return;
  }
  const std::uint64_t now = nowNs();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].endNs = now;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanRecorder::chromeTrace() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,",
                  i == 0 ? "" : ",", occm::obs::jsonEscape(s.name).c_str(),
                  occm::obs::jsonEscape(s.layer()).c_str(),
                  static_cast<double>(s.startNs) / 1e3,
                  static_cast<double>(s.durationNs()) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"args\":{\"id\":%lld,\"parent\":%lld,"
                  "\"request_id\":%llu}}",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.requestId));
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::map<std::string, std::uint64_t> layerSelfTimesNs(
    const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> indexOf;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    indexOf.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto parent = indexOf.find(s.parent);
    if (s.parent >= 0 && parent != indexOf.end()) {
      children[parent->second].emplace_back(s.startNs, s.endNs);
    }
  }
  std::map<std::string, std::uint64_t> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.startNs;
    for (const auto& [start, end] : kids) {
      const std::uint64_t lo = std::max(start, cursor);
      const std::uint64_t hi = std::min(end, s.endNs);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[s.layer()] += s.durationNs() - std::min(covered, s.durationNs());
  }
  return self;
}

}  // namespace perfbench
