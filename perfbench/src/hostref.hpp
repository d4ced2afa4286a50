#pragma once

// A fixed reference workload for host speed. It lives in the benchmark,
// not in the program, so no change to the program moves it; timing it
// beside the program's own work tells how fast the shared host is running
// at that moment.

namespace perfbench {

/// Runs the reference workload once and returns its host wall time in
/// seconds (about 10 ms on an idle 2020s server core).
[[nodiscard]] double timeHostReference();

}  // namespace perfbench
