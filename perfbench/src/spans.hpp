#pragma once

// In-memory span recorder of the traced benchmark mode. Spans are taken
// only in the benchmark's own code, around calls into the repository's
// public functions; nothing inside src/ is instrumented. Each span has a
// name ("<layer>.<what>"), a start and end on the recorder's steady clock,
// a parent span and the request it belongs to. The recorder keeps every
// span in memory and renders one Chrome trace_event JSON document at the
// end of the run.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< -1 = root
  std::uint64_t requestId = 0;  ///< 0 = not part of a request

  [[nodiscard]] std::uint64_t durationNs() const noexcept {
    return endNs > startNs ? endNs - startNs : 0;
  }
  /// The layer is the name up to its first '.' ("cache.replay" -> "cache").
  [[nodiscard]] std::string layer() const;
};

/// Thread-safe span store. A disabled recorder records nothing and hands
/// out id -1, so untraced runs pay one branch per would-be span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Nanoseconds since the recorder was built (steady clock).
  [[nodiscard]] std::uint64_t nowNs() const noexcept;

  /// Records a finished span; returns its id (-1 when disabled).
  std::int64_t add(std::string name, std::uint64_t startNs,
                   std::uint64_t endNs, std::int64_t parent = -1,
                   std::uint64_t requestId = 0);

  /// Reserves an id for a span whose end is not known yet; finish() fills
  /// it in. Lets children name a parent that is still open.
  std::int64_t open(std::string name, std::int64_t parent = -1);
  void finish(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  [[nodiscard]] std::string chromeTrace() const;

 private:
  bool enabled_;
  std::uint64_t epochNs_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< indexed by id
};

/// RAII span: opens on construction, finishes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), id_(recorder.open(std::move(name))) {}
  ~ScopedSpan() { recorder_.finish(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int64_t id_;
};

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of its interval that its children cover, summed by layer.
[[nodiscard]] std::map<std::string, std::uint64_t> layerSelfTimesNs(
    const std::vector<Span>& spans);

}  // namespace perfbench
