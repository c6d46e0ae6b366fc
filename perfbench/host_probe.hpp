// Host-speed probe for the benchmark driver.
//
// The benchmark runs on shared virtual machines whose speed drifts by tens
// of percent over seconds to minutes as other tenants come and go. The
// probe is a fixed synthetic discrete-event loop (a binary event heap plus
// hash-table lookups, inserts and erases), so it slows down with the host
// the way the simulator does. It shares no code with the simulator and is
// compiled as its own target, so a change to the simulator cannot move it.
#pragma once

namespace perfbench {

// Runs the probe once on each of `threads` threads at once (the calling
// thread and threads - 1 new ones, as the parallel engine runs a window) and
// returns the host time until all have finished, in milliseconds.
double probe_ms(int threads);

}  // namespace perfbench
