#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace occm::obs {
namespace {

TEST(TraceSink, RecordsSpanAndInstantFields) {
  TraceSink sink(8);
  sink.span("service", "mem", kControllerTrackBase + 1, 100, 40,
            "queue_wait", 12.0);
  sink.instant("ctx-switch", "sched", 3, 250);
  ASSERT_EQ(sink.size(), 2u);
  const TraceEvent& span = sink[0];
  EXPECT_EQ(span.name, "service");
  EXPECT_EQ(span.category, "mem");
  EXPECT_EQ(span.track, kControllerTrackBase + 1);
  EXPECT_EQ(span.start, 100u);
  EXPECT_EQ(span.duration, 40u);
  EXPECT_EQ(span.phase, TracePhase::kSpan);
  EXPECT_EQ(span.argName, "queue_wait");
  EXPECT_DOUBLE_EQ(span.arg, 12.0);
  const TraceEvent& instant = sink[1];
  EXPECT_EQ(instant.phase, TracePhase::kInstant);
  EXPECT_EQ(instant.duration, 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.recorded(), 2u);
}

TEST(TraceSink, DropOldestKeepsTheTail) {
  TraceSink sink(3);
  for (int i = 0; i < 5; ++i) {
    sink.instant("e" + std::to_string(i), "t", 0,
                 static_cast<Cycles>(i));
  }
  ASSERT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink[0].name, "e2");  // e0, e1 overwritten
  EXPECT_EQ(sink[2].name, "e4");
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.recorded(), 5u);
}

TEST(TraceSink, ExactlyFullDropsNothing) {
  TraceSink sink(2);
  sink.instant("a", "t", 0, 0);
  sink.instant("b", "t", 0, 1);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, TrackNames) {
  TraceSink sink(4);
  sink.setTrackName(0, "core 0");
  sink.setTrackName(kControllerTrackBase, "memory controller 0");
  sink.setTrackName(0, "core 0 (renamed)");
  ASSERT_EQ(sink.trackNames().size(), 2u);
  EXPECT_EQ(sink.trackNames().at(0), "core 0 (renamed)");
}

TEST(TraceSink, ZeroCapacityRejected) {
  EXPECT_THROW((void)TraceSink(0), ContractViolation);
}

}  // namespace
}  // namespace occm::obs
