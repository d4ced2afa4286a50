#include "perf/run_profile.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "perf/counters.hpp"

namespace occm::perf {
namespace {

TEST(CounterSet, WorkIsTotalMinusStall) {
  CounterSet c;
  c.totalCycles = 100;
  c.stallCycles = 30;
  EXPECT_EQ(c.workCycles(), 70u);
}

TEST(CounterSet, AdditionAggregates) {
  CounterSet a;
  a.totalCycles = 100;
  a.stallCycles = 40;
  a.instructions = 10;
  a.llcMisses = 3;
  CounterSet b;
  b.totalCycles = 50;
  b.stallCycles = 10;
  b.instructions = 5;
  b.llcMisses = 2;
  const CounterSet sum = a + b;
  EXPECT_EQ(sum.totalCycles, 150u);
  EXPECT_EQ(sum.stallCycles, 50u);
  EXPECT_EQ(sum.instructions, 15u);
  EXPECT_EQ(sum.llcMisses, 5u);
  a += b;
  EXPECT_EQ(a.totalCycles, 150u);
}

TEST(RunProfile, ReportContainsTheCounters) {
  RunProfile profile;
  profile.program = "CG.C";
  profile.machine = "Intel NUMA (24 cores, Xeon X5650)";
  profile.threads = 24;
  profile.activeCores = 12;
  profile.counters.totalCycles = 1'234'567;
  profile.counters.stallCycles = 1'000'000;
  profile.counters.instructions = 42;
  profile.counters.llcMisses = 777;
  profile.makespan = 99;
  const std::string report = formatReport(profile);
  EXPECT_NE(report.find("CG.C"), std::string::npos);
  EXPECT_NE(report.find("24 threads on 12 active cores"), std::string::npos);
  EXPECT_NE(report.find("1,234,567"), std::string::npos);
  EXPECT_NE(report.find("234,567"), std::string::npos);
  EXPECT_NE(report.find("777"), std::string::npos);
  // Work cycles derived: 234,567.
  EXPECT_NE(report.find("work cycles"), std::string::npos);
}

TEST(RunProfile, ReportListsBusyControllers) {
  RunProfile profile;
  profile.program = "p";
  profile.machine = "m";
  mem::ControllerStats busy;
  busy.requests = 5;
  busy.remoteRequests = 2;
  mem::ControllerStats idle;
  profile.controllerStats = {busy, idle};
  const std::string report = formatReport(profile);
  EXPECT_NE(report.find("controller 0"), std::string::npos);
  EXPECT_EQ(report.find("controller 1"), std::string::npos);
}

TEST(RunProfile, ControllerUtilizationFromBusyCycles) {
  RunProfile profile;
  mem::ControllerStats c;
  c.busyCycles = 500;
  profile.controllerStats = {c};
  EXPECT_DOUBLE_EQ(profile.controllerUtilization(0), 0.0);  // makespan unknown
  profile.makespan = 1000;
  profile.channelsPerController = 2;
  EXPECT_DOUBLE_EQ(profile.controllerUtilization(0), 0.25);
  EXPECT_DOUBLE_EQ(profile.controllerUtilization(9), 0.0);  // out of range
}

TEST(RunProfile, ReportShowsUtilizationRowHitAndMeanWait) {
  RunProfile profile;
  profile.program = "p";
  profile.machine = "m";
  profile.makespan = 1000;
  profile.channelsPerController = 2;
  mem::ControllerStats c;
  c.requests = 10;
  c.totalWait = 150;
  c.busyCycles = 500;
  c.rowHits = 3;
  c.rowMisses = 1;
  profile.controllerStats = {c};
  const std::string report = formatReport(profile);
  EXPECT_NE(report.find("mean wait 15 cycles"), std::string::npos);
  EXPECT_NE(report.find("util 25.0%"), std::string::npos);
  EXPECT_NE(report.find("row-hit 75.0%"), std::string::npos);
}

TEST(RunProfile, ReportMentionsAttachedObsTrace) {
  RunProfile profile;
  profile.program = "p";
  profile.machine = "m";
  const std::string without = formatReport(profile);
  EXPECT_EQ(without.find("obs trace"), std::string::npos);

  profile.trace = std::make_shared<obs::RunTrace>(100, 16, 1.0);
  profile.trace->metrics.counter("sim.llc_misses").record(0);
  profile.trace->events.instant("ctx-switch", "sched", 0, 10);
  const std::string report = formatReport(profile);
  EXPECT_NE(report.find("obs trace"), std::string::npos);
  EXPECT_NE(report.find("1 metrics, 1 events"), std::string::npos);
}

}  // namespace
}  // namespace occm::perf
