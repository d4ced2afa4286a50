#include "obs/trace_sink.hpp"

#include <utility>

namespace occm::obs {

TraceSink::TraceSink(std::size_t capacity) : events_(capacity) {}

void TraceSink::push(TraceEvent event) {
  ++recorded_;
  if (events_.full()) {
    ++dropped_;
  }
  events_.push(std::move(event));
}

void TraceSink::span(std::string name, std::string category,
                     std::int32_t track, Cycles start, Cycles duration,
                     std::string argName, double arg) {
  push(TraceEvent{std::move(name), std::move(category), track, start,
                  duration, TracePhase::kSpan, std::move(argName), arg});
}

void TraceSink::instant(std::string name, std::string category,
                        std::int32_t track, Cycles time, std::string argName,
                        double arg) {
  push(TraceEvent{std::move(name), std::move(category), track, time, 0,
                  TracePhase::kInstant, std::move(argName), arg});
}

void TraceSink::setTrackName(std::int32_t track, std::string name) {
  trackNames_[track] = std::move(name);
}

}  // namespace occm::obs
