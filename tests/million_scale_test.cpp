// Scale tests for the million-flow row (ISSUE 9): the fan-dumbbell plant
// plus the on/off million workload, proven end-to-end at 2^16 on every
// preset and at the full 2^20 under the `MillionScale` tag. The tag is
// what CI tiers on: the sanitize preset excludes `MillionScale` (see
// CMakePresets.json) and runs only the 2^16 variant; the TSan preset's
// include filter never selects either. Expect the 2^20 case to take tens
// of seconds and ~6 GB RSS in a RelWithDebInfo build — it is the gate
// that the simulator genuinely sustains a million concurrent flows, not a
// benchmark.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "harness/scenarios.hpp"
#include "workload/workload.hpp"

namespace tcppr::workload {
namespace {

struct ScaleRun {
  std::unique_ptr<harness::Scenario> s;
  std::unique_ptr<WorkloadEngine> engine;
};

ScaleRun make_scale_run(int flows) {
  ScaleRun r;
  r.s = harness::make_fan_dumbbell(harness::million_fan_config(flows));
  r.engine =
      std::make_unique<WorkloadEngine>(*r.s, million_workload_config(flows));
  r.engine->start();
  return r;
}

// Runs in quarter-second steps until steady-state concurrency pins at the
// population cap (plus one extra step so completed mice churn through the
// quarantine FIFO), failing if the ramp has not pinned by `max_sim_s`.
// Stepping instead of one long run_until keeps the full-size test's wall
// clock at the ramp time actually needed, not the worst-case bound.
void ramp_until_pinned(ScaleRun& r, std::size_t flows, double max_sim_s) {
  double t = 0.0;
  while (t < max_sim_s && r.engine->stats().peak_active < flows) {
    t += 0.25;
    r.s->sched.run_until(sim::TimePoint::from_seconds(t));
  }
  ASSERT_EQ(r.engine->stats().peak_active, flows)
      << "concurrency failed to pin at the population cap within "
      << max_sim_s << " simulated seconds";
  r.s->sched.run_until(sim::TimePoint::from_seconds(t + 0.5));
}

void expect_scale_invariants(const ScaleRun& r, std::size_t flows) {
  const WorkloadStats stats = r.engine->stats();
  // Concurrency pinned exactly at the cap: the on/off population exceeds
  // max_concurrent, so active saturates at the configured ceiling.
  EXPECT_EQ(stats.peak_active, flows);
  // Instantaneous concurrency sits at the cap bar the handful of slots
  // mid-recycle between a completion and the next restart claiming it.
  EXPECT_LE(stats.active, flows);
  EXPECT_GE(stats.active, flows - flows / 16);
  // Mice in the Pareto tail complete, recycle their id slots and restart.
  EXPECT_GT(stats.completed, 0u);
  // Receiver-side demux conservation: every receiver ever created is
  // accounted for as closed, idle-reaped, or still live.
  EXPECT_EQ(stats.receivers_created,
            stats.receivers_closed + stats.receivers_reaped +
                r.engine->live_receivers());
  EXPECT_EQ(stats.stray_packets, 0u);

  // Slab high-water: the id space materialized stays inside id_slots and
  // the bookkeeping honours the per-slot byte budget (the factor of two is
  // vector capacity growth; the static_assert on kSlabBytesPerSlot keeps
  // the true per-slot footprint inside 64 bytes — this is the same bound
  // bench_check.py gates as bytes_per_slot <= 128 on the 1M bench row).
  const std::size_t slots = r.engine->slots_in_use();
  EXPECT_GE(slots, flows);
  EXPECT_LE(slots, static_cast<std::size_t>(
                       million_workload_config(static_cast<int>(flows))
                           .id_slots));
  EXPECT_LE(r.engine->slab_bytes(), 2 * slots * 64 + (1u << 16));
}

// Locks the preset pair down: the capacity model in DESIGN.md §4.9 only
// holds if the workload population, id space, reap cadence and plant
// bandwidth keep their relationships.
TEST(WorkloadScale, MillionPresetRelationshipsHold) {
  const int flows = 1 << 20;
  const WorkloadConfig wc = million_workload_config(flows);
  EXPECT_EQ(wc.kind, WorkloadKind::kOnOff);
  EXPECT_EQ(wc.max_concurrent, flows);
  // Population above the cap so steady-state concurrency pins at the cap.
  EXPECT_GT(wc.onoff_sources, wc.max_concurrent);
  // Id space covers concurrency plus a quarantine's worth of cooling slots.
  EXPECT_GE(wc.id_slots, flows + flows / 2);
  // Chunked-reaper worst case (1.5 * reap_idle + reap_sweep) must stay
  // inside the quarantine or a recycled slot could find the previous
  // incarnation's receiver still attached.
  EXPECT_LT(3 * wc.reap_idle.as_nanos() / 2 + wc.reap_sweep.as_nanos(),
            wc.quarantine.as_nanos());

  const harness::FanDumbbellConfig fc = harness::million_fan_config(flows);
  EXPECT_EQ(fc.flows, flows);
  // Per-flow bandwidth share keeps each flow near cwnd 1-2 so the event
  // rate floor stays at flows / RTT.
  EXPECT_GT(fc.per_flow_bw_bps, 0.0);
  EXPECT_LT(fc.per_flow_bw_bps *
                (fc.bottleneck_delay.as_nanos() / 1e9) /
                (8.0 * fc.tcp.segment_bytes),
            4.0);
}

// The ECMP fan races data segments against kTcpClose across different
// relay paths, so some receivers outlive their close (ghosts). The
// clock-hand reaper must reclaim them within its bounded per-sweep budget
// — observable as receivers_reaped > 0 with conservation intact.
TEST(WorkloadScale, ChunkedReaperReclaimsGhostReceivers) {
  ScaleRun r = make_scale_run(4096);
  r.s->sched.run_until(sim::TimePoint::from_seconds(8));
  const WorkloadStats stats = r.engine->stats();
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.receivers_reaped, 0u);
  EXPECT_EQ(stats.receivers_created,
            stats.receivers_closed + stats.receivers_reaped +
                r.engine->live_receivers());
  EXPECT_EQ(stats.stray_packets, 0u);
}

// 2^16 end-to-end variant: runs on every preset (including sanitizers).
TEST(WorkloadScale, FanDumbbell64kPinsConcurrencyWithinSlabBudget) {
  constexpr std::size_t kFlows = 1 << 16;
  ScaleRun r = make_scale_run(kFlows);
  ramp_until_pinned(r, kFlows, /*max_sim_s=*/4.0);
  expect_scale_invariants(r, kFlows);
}

// The full 2^20 row (tagged: release-tier presets only). One million
// concurrent flows, slab high-water at a million occupied slots.
TEST(MillionScale, FanDumbbellMillionPinsConcurrencyWithinSlabBudget) {
  constexpr std::size_t kFlows = 1 << 20;
  ScaleRun r = make_scale_run(kFlows);
  ramp_until_pinned(r, kFlows, /*max_sim_s=*/4.0);
  expect_scale_invariants(r, kFlows);
}

}  // namespace
}  // namespace tcppr::workload
