#pragma once

// Structured event trace of one simulated run: span events (a named
// interval on a track — a controller busy period, a core's memory stall)
// and instant events (a context switch, a thread pinning). Events are
// buffered in a fixed-capacity ring (common/ring_buffer) so tracing has
// bounded memory regardless of run length; on overflow the sink
// overwrites the oldest events (keeping the end of the run) and counts
// what it lost.
//
// Tracks are integer lanes in the exported timeline — core ids for core
// events, kControllerTrackBase + node for controller events. Track names
// are attached once and exported as timeline metadata.

#include <cstdint>
#include <map>
#include <string>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"

namespace occm::obs {

enum class TracePhase : std::uint8_t {
  kSpan,     ///< interval [start, start+duration)
  kInstant,  ///< point event at start
};

/// Track-id convention used by the simulator's instrumentation.
inline constexpr std::int32_t kControllerTrackBase = 1000;

struct TraceEvent {
  std::string name;
  std::string category;   ///< e.g. "mem", "sched", "core"
  std::int32_t track = 0; ///< timeline lane (tid in Chrome trace terms)
  Cycles start = 0;
  Cycles duration = 0;    ///< 0 for instants
  TracePhase phase = TracePhase::kInstant;
  /// Optional numeric payload (argName empty = absent).
  std::string argName;
  double arg = 0.0;
};

class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity);

  void span(std::string name, std::string category, std::int32_t track,
            Cycles start, Cycles duration, std::string argName = {},
            double arg = 0.0);
  void instant(std::string name, std::string category, std::int32_t track,
               Cycles time, std::string argName = {}, double arg = 0.0);

  /// Human label for a track lane (exported as timeline metadata).
  void setTrackName(std::int32_t track, std::string name);
  [[nodiscard]] const std::map<std::int32_t, std::string>& trackNames()
      const noexcept {
    return trackNames_;
  }

  /// Events currently retained, oldest first.
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] const TraceEvent& operator[](std::size_t i) const {
    return events_[i];
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return events_.capacity();
  }
  /// Events pushed over the sink's lifetime (retained + lost).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events lost to overflow (overwritten).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  void push(TraceEvent event);

  RingBuffer<TraceEvent> events_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::map<std::int32_t, std::string> trackNames_;
};

}  // namespace occm::obs
