// Tests for the flow lifecycle engine (src/workload): dynamic arrivals,
// genuine departures, slot recycling under quarantine, steady-state memory
// at churn scale, and byte-identical delivery streams across the parallel
// engine and the batched/unbatched hot paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "harness/experiment.hpp"
#include "harness/parallel_run.hpp"
#include "harness/scenarios.hpp"
#include "net/link_pump.hpp"
#include "obs/series.hpp"
#include "trace/trace.hpp"
#include "validate/determinism.hpp"
#include "workload/workload.hpp"

namespace tcppr::workload {
namespace {

using harness::Scenario;

std::unique_ptr<Scenario> make_churn_dumbbell(double bottleneck_bw_bps) {
  harness::DumbbellConfig cfg;
  cfg.pr_flows = 0;
  cfg.sack_flows = 0;
  cfg.bottleneck_bw_bps = bottleneck_bw_bps;
  cfg.access_bw_bps = 4 * bottleneck_bw_bps;
  cfg.bottleneck_queue = 500;
  cfg.access_queue = 1000;
  return harness::make_dumbbell(cfg);
}

// A mice-heavy Poisson workload whose quarantine is short enough that the
// slot table recycles many times over within a test-sized run.
WorkloadConfig mice_config(double arrival_rate) {
  WorkloadConfig wc;
  wc.kind = WorkloadKind::kPoisson;
  wc.arrival_rate = arrival_rate;
  wc.min_segments = 2;
  wc.max_segments = 16;
  wc.quarantine = sim::Duration::millis(300);
  wc.reap_idle = sim::Duration::millis(150);
  wc.reap_sweep = sim::Duration::millis(50);
  return wc;
}

TEST(Workload, ParseKindRoundTrips) {
  WorkloadKind kind;
  EXPECT_TRUE(parse_workload_kind("poisson", &kind));
  EXPECT_EQ(kind, WorkloadKind::kPoisson);
  EXPECT_TRUE(parse_workload_kind("web", &kind));
  EXPECT_EQ(kind, WorkloadKind::kWeb);
  EXPECT_TRUE(parse_workload_kind("onoff", &kind));
  EXPECT_EQ(kind, WorkloadKind::kOnOff);
  EXPECT_FALSE(parse_workload_kind("bulk", &kind));
  EXPECT_STREQ(to_string(WorkloadKind::kWeb), "web");
}

TEST(Workload, FlowsArriveCompleteAndGenuinelyDepart) {
  auto s = make_churn_dumbbell(50e6);
  const std::size_t src_agents = s->network.node(s->src_host).agent_count();
  const std::size_t dst_agents = s->network.node(s->dst_host).agent_count();

  WorkloadEngine engine(*s, mice_config(500));
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(5));
  const WorkloadStats mid = engine.stats();
  EXPECT_GT(mid.arrivals, 2000u);
  EXPECT_GT(mid.completed, mid.arrivals * 9 / 10);
  EXPECT_GT(mid.mean_completion_s(), 0.0);
  EXPECT_LT(mid.mean_completion_s(), 2.0);
  // Departure is real: live transport state tracks concurrency, not the
  // total ever created.
  EXPECT_LT(mid.active, 200u);
  EXPECT_EQ(mid.receivers_created,
            mid.receivers_closed + mid.receivers_reaped +
                engine.live_receivers());

  // Stop arrivals and drain: every sender and receiver must detach.
  engine.stop();
  s->sched.run_until(sim::TimePoint::from_seconds(8));
  const WorkloadStats end = engine.stats();
  EXPECT_EQ(end.active, 0u);
  EXPECT_EQ(s->network.node(s->src_host).agent_count(), src_agents);
  EXPECT_EQ(s->network.node(s->dst_host).agent_count(), dst_agents);
}

// The satellite-1 regression: 10k+ churned flows through one engine must
// leave the scheduler, the packet pool, and the slot table at steady state
// — every per-flow resource is reclaimed, nothing scales with the number
// of flows ever created. This is also the ISSUE acceptance run: 10
// simulated seconds at >= 10k arrivals/sec with a bounded bytes-per-slot
// budget.
TEST(WorkloadChurn, TenSecondsAtTenThousandArrivalsPerSecondStaysBounded) {
  auto s = make_churn_dumbbell(400e6);
  WorkloadConfig wc = mice_config(10000);
  wc.max_segments = 4;  // mice: keep offered load under the bottleneck
  wc.max_concurrent = 8192;
  wc.id_slots = 1 << 15;
  WorkloadEngine engine(*s, wc);
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(10));

  const WorkloadStats mid = engine.stats();
  ASSERT_GE(mid.arrivals, 95000u);
  EXPECT_GT(mid.completed, mid.arrivals * 9 / 10);
  EXPECT_EQ(mid.rejected, 0u);

  // Steady state: the slot table holds active + cooling flows, an order
  // of magnitude below the number of flows ever created...
  EXPECT_LT(engine.slots_in_use(), mid.arrivals / 6);
  // ...and the bookkeeping honours the per-slot byte budget (the slabs
  // plus a constant-ish slack for the recycling queues and monitor pool).
  // The factor of two is vector growth: capacity may run up to double the
  // high-water slot count; the static_assert on kSlabBytesPerSlot keeps
  // the true per-slot footprint inside 64 bytes.
  EXPECT_LE(engine.slab_bytes(),
            2 * engine.slots_in_use() * 64 + (1u << 16));

  engine.stop();
  s->sched.run_until(sim::TimePoint::from_seconds(12));
  const WorkloadStats end = engine.stats();
  EXPECT_EQ(end.active, 0u);
  // Scheduler population is O(live state), not O(flows ever created):
  // after the drain only stale cancelled shots and idle-timer leftovers
  // remain.
  EXPECT_EQ(s->sched.pending_count(), 0u);
  EXPECT_LT(s->sched.queued_count(), 4096u);
  // Packet pool: no packet of any departed flow is still checked out (the
  // pool's storage is a high-water mark and never shrinks — steady state
  // means every slot is back on the free list).
  EXPECT_EQ(s->network.packet_pool()->allocated(),
            s->network.packet_pool()->idle());
}

TEST(WorkloadChurn, SlotRecyclingRespectsQuarantine) {
  auto s = make_churn_dumbbell(50e6);
  WorkloadConfig wc = mice_config(1000);
  wc.id_slots = 64;  // force heavy recycling
  wc.max_concurrent = 64;
  WorkloadEngine engine(*s, wc);
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(5));
  const WorkloadStats stats = engine.stats();
  // Far more flows than slots: recycling worked (rejects are allowed when
  // every slot is cooling, but most arrivals must land).
  EXPECT_GT(stats.arrivals, 3 * 64u);
  EXPECT_EQ(engine.slots_in_use(), 64u);
  EXPECT_GT(stats.completed, 0u);
}

TEST(Workload, DeterministicForSeedAndSensitiveToSeed) {
  const auto digest = [](std::uint64_t seed) {
    auto s = make_churn_dumbbell(50e6);
    validate::DeliveryHasher hasher;
    s->network.add_trace_sink(&hasher);
    WorkloadConfig wc = mice_config(800);
    wc.seed = seed;
    WorkloadEngine engine(*s, wc);
    engine.start();
    s->sched.run_until(sim::TimePoint::from_seconds(3));
    return hasher.hash();
  };
  EXPECT_EQ(digest(7), digest(7));
  EXPECT_NE(digest(7), digest(8));
}

// ---------------------------------------------------------------------------
// Parallel / batching equivalence: the churn acceptance criterion. A
// churning run must produce a byte-identical delivery stream at every LP
// count and on both hot paths; the canonical baseline is the stamped
// one-shard batched run.

struct ChurnDigest {
  std::uint64_t hash = 0;
  std::uint64_t delivered = 0;
  std::uint64_t completed = 0;
};

ChurnDigest run_churn(WorkloadKind kind, int lps, bool batching) {
  auto s = make_churn_dumbbell(100e6);
  if (!batching) s->network.disable_batching();
  validate::DeliveryHasher hasher;
  s->network.add_trace_sink(&hasher);
  WorkloadConfig wc = mice_config(2000);
  wc.kind = kind;
  if (kind == WorkloadKind::kOnOff) wc.onoff_sources = 64;
  const auto end = sim::TimePoint::from_seconds(2);
  ChurnDigest out;
  if (lps == 0) {  // legacy sequential scheduler
    WorkloadEngine engine(*s, wc);
    engine.start();
    s->sched.run_until(end);
    out.completed = engine.stats().completed;
  } else {
    harness::ParallelRunConfig pc;
    pc.lps = lps;
    harness::ParallelSim psim(*s, pc);
    WorkloadEngine engine(*s, wc, &psim);
    engine.start();
    psim.run_until(end);
    out.completed = engine.stats().completed;
  }
  out.hash = hasher.hash();
  out.delivered = hasher.delivered();
  return out;
}

class ChurnEquivalence : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(ChurnEquivalence, DigestIdenticalAcrossParAndBatching) {
  const WorkloadKind kind = GetParam();
  const ChurnDigest base = run_churn(kind, /*lps=*/1, /*batching=*/true);
  ASSERT_GT(base.delivered, 0u);
  ASSERT_GT(base.completed, 0u);
  for (const int lps : {1, 2, 4}) {
    for (const bool batching : {true, false}) {
      if (lps == 1 && batching) continue;  // the baseline itself
      const ChurnDigest d = run_churn(kind, lps, batching);
      EXPECT_EQ(d.hash, base.hash)
          << to_string(kind) << " lps=" << lps << " batching=" << batching;
      EXPECT_EQ(d.delivered, base.delivered)
          << to_string(kind) << " lps=" << lps << " batching=" << batching;
      EXPECT_EQ(d.completed, base.completed)
          << to_string(kind) << " lps=" << lps << " batching=" << batching;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ChurnEquivalence,
                         ::testing::Values(WorkloadKind::kPoisson,
                                           WorkloadKind::kWeb,
                                           WorkloadKind::kOnOff));

// ---------------------------------------------------------------------------
// Observability under churn: the registry leak regression.

TEST(WorkloadObs, RegistryRetiresDepartedFlowsUnderChurn) {
  auto s = make_churn_dumbbell(50e6);
  obs::MetricRegistry registry;
  obs::MemorySeriesSink sink;
  registry.add_sink(&sink);
  WorkloadEngine engine(*s, mice_config(800));
  engine.set_metric_registry(registry);
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(5));
  const WorkloadStats mid = engine.stats();
  ASSERT_GT(mid.arrivals, 2000u);
  ASSERT_GT(registry.samples_recorded(), 0u);
  // The leak this guards against: one (metric, flow) entry per flow ever
  // created, i.e. >= arrivals. With teardown retiring flows the table is
  // bounded by live flows (plus in-transit closes).
  EXPECT_LT(registry.tracked_series(),
            registry.metric_count() * (mid.active + 64));

  engine.stop();
  s->sched.run_until(sim::TimePoint::from_seconds(8));
  // Fully drained: only unlabeled (kInvalidFlow) series remain.
  EXPECT_LE(registry.tracked_series(), registry.metric_count());
}

TEST(WorkloadObs, AggregateOnlyKeepsValueTableAtMetricCount) {
  auto s = make_churn_dumbbell(50e6);
  obs::MetricRegistry registry;
  obs::MemorySeriesSink sink;
  registry.add_sink(&sink);
  registry.set_aggregate_only(true);
  WorkloadEngine engine(*s, mice_config(800));
  engine.set_metric_registry(registry);
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(3));
  ASSERT_GT(engine.stats().arrivals, 1000u);
  ASSERT_GT(registry.samples_recorded(), 0u);
  EXPECT_LE(registry.tracked_series(), registry.metric_count());
  // Values still accrue across flows in aggregate mode (the dumbbell path
  // is clean, so use the receive-point gauge — it advances on every flow).
  const auto& fm = registry.flow_metrics();
  EXPECT_GT(registry.total(fm.rcv_next), 0.0);
}

// ---------------------------------------------------------------------------
// Workload kinds

TEST(Workload, WebMixProducesMiceAndElephants) {
  auto s = make_churn_dumbbell(50e6);
  WorkloadConfig wc = mice_config(500);
  wc.kind = WorkloadKind::kWeb;
  wc.elephant_fraction = 0.05;
  wc.max_segments = 2048;
  WorkloadEngine engine(*s, wc);
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(5));
  const WorkloadStats stats = engine.stats();
  EXPECT_GT(stats.arrivals, 1500u);
  EXPECT_GT(stats.completed, stats.arrivals / 2);
  // Aggregate reorder telemetry folds live + departed flows.
  EXPECT_GT(engine.reorder_stats().total(), 1000u);
}

TEST(Workload, OnOffPopulationAlternatesTransfersAndThink) {
  auto s = make_churn_dumbbell(50e6);
  WorkloadConfig wc = mice_config(0);  // rate ignored for on/off
  wc.kind = WorkloadKind::kOnOff;
  wc.onoff_sources = 16;
  WorkloadEngine engine(*s, wc);
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(10));
  const WorkloadStats stats = engine.stats();
  // Each source cycles transfer -> think -> transfer; with a median think
  // time of exp(-0.7) ~ 0.5 s every source completes several rounds.
  EXPECT_GT(stats.arrivals, 16u * 4);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_LE(stats.active, 16u);
}

// ---------------------------------------------------------------------------
// Flow completion times and teardown edges

TEST(Workload, ReorderingInflatesSackMiceButNotPrMice) {
  // Flow completion time on the multipath mesh, next to the mesh's TCP-PR
  // bulk flow: SACK mice suffer spurious retransmissions and RTO stalls
  // under per-packet spraying; TCP-PR mice do not.
  const auto run_mice = [](double pr_fraction) {
    auto scenario = harness::make_multipath(harness::MultipathConfig{});
    WorkloadConfig wc;
    wc.kind = WorkloadKind::kWeb;
    wc.arrival_rate = 2.5;
    wc.elephant_fraction = 0;
    wc.mouse_min_segments = 10;
    wc.mouse_max_segments = 30;
    wc.pr_fraction = pr_fraction;
    wc.seed = 5;
    harness::RunConfig rc;
    rc.window.total = sim::Duration::seconds(60);
    rc.window.measured = rc.window.total;
    rc.workload = wc;
    harness::Run run(*scenario, rc);
    run.run();
    return run.engine()->stats();
  };
  const WorkloadStats pr = run_mice(1.0);
  const WorkloadStats sack = run_mice(0.0);
  EXPECT_GT(pr.completed, 50u);
  EXPECT_GT(sack.completed, 50u);
  EXPECT_LT(pr.mean_completion_s(), sack.mean_completion_s());
}

// Stops the scheduler on the delivery event that completes a transfer:
// the sender's completion callback runs inside that same event and
// schedules its zero-delay teardown, so when run_until returns the
// teardown is still queued.
class StopOnFinalAck final : public trace::TraceSink {
 public:
  StopOnFinalAck(sim::Scheduler& sched, net::SeqNo total)
      : sched_(sched), total_(total) {}
  void record(const trace::Record& r) override {
    if (r.type == trace::EventType::kDeliver && r.is_ack &&
        r.seq >= total_) {
      triggered_ = true;
      sched_.stop();
    }
  }
  bool triggered() const { return triggered_; }

 private:
  sim::Scheduler& sched_;
  net::SeqNo total_;
  bool triggered_ = false;
};

TEST(Workload, DestroyingEngineWithDeferredTeardownPendingIsSafe) {
  // The teardown event is guarded by the engine's liveness sentinel: an
  // engine destroyed while it is queued must turn it into a no-op instead
  // of firing into freed memory.
  auto s = make_churn_dumbbell(50e6);
  StopOnFinalAck stopper(s->sched, 5);
  s->network.add_trace_sink(&stopper);
  {
    WorkloadConfig wc = mice_config(20);
    wc.min_segments = 5;  // fixed size: ack == 5 completes any flow
    wc.max_segments = 5;
    WorkloadEngine engine(*s, wc);
    engine.start();
    s->sched.run_until(sim::TimePoint::from_seconds(30));  // stops early
    ASSERT_TRUE(stopper.triggered());
    EXPECT_EQ(engine.stats().completed, 0u);  // teardown still queued
  }
  // The stranded teardown fires against the destroyed engine.
  s->sched.run_until(s->sched.now() + sim::Duration::seconds(1));
}

TEST(Workload, SlowBottleneckRejectsArrivalsBeyondConcurrencyCap) {
  auto s = make_churn_dumbbell(1e5);  // flows pile up
  WorkloadConfig wc = mice_config(20);
  wc.min_segments = 5;
  wc.max_segments = 50;
  wc.max_concurrent = 10;
  WorkloadEngine engine(*s, wc);
  engine.start();
  for (int i = 1; i <= 20; ++i) {
    s->sched.run_until(sim::TimePoint::from_seconds(i));
    EXPECT_LE(engine.stats().active, 10u);
  }
  EXPECT_GT(engine.stats().rejected, 0u);
}

}  // namespace
}  // namespace tcppr::workload
