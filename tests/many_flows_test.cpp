// Tests for the many-flow scale workload (make_many_flows) and the
// O(flows) pending-event contract that the per-flow deadline-timer
// coalescing provides.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "harness/scenarios.hpp"
#include "validate/determinism.hpp"

namespace tcppr::harness {
namespace {

int count_variant(const Scenario& s, TcpVariant v) {
  return static_cast<int>(std::count(s.variants.begin(), s.variants.end(), v));
}

TEST(ManyFlows, DumbbellBuilderScalesWithFlowCount) {
  ManyFlowsConfig cfg;
  cfg.flows = 64;
  auto s = make_many_flows(cfg);
  ASSERT_EQ(s->senders.size(), 64u);
  ASSERT_EQ(s->receivers.size(), 64u);
  ASSERT_EQ(s->variants.size(), 64u);
  // pr_fraction = 0.5 interleaves the two variants evenly.
  EXPECT_EQ(count_variant(*s, TcpVariant::kTcpPr), 32);
  EXPECT_EQ(count_variant(*s, TcpVariant::kSack), 32);
  // Per-flow bottleneck share is constant: the bottleneck scales with N.
  ASSERT_FALSE(s->bottlenecks.empty());
  EXPECT_DOUBLE_EQ(s->bottlenecks.front()->bandwidth_bps(),
                   cfg.bottleneck_bw_per_flow_bps * 64);
}

TEST(ManyFlows, PrFractionControlsTheVariantMix) {
  ManyFlowsConfig cfg;
  cfg.flows = 40;
  cfg.pr_fraction = 0.25;
  auto s = make_many_flows(cfg);
  EXPECT_EQ(count_variant(*s, TcpVariant::kTcpPr), 10);
  EXPECT_EQ(count_variant(*s, TcpVariant::kSack), 30);
}

TEST(ManyFlows, RandomGraphBuilderCreatesRequestedFlows) {
  ManyFlowsConfig cfg;
  cfg.topology = ManyFlowsConfig::Topology::kRandomGraph;
  cfg.flows = 32;
  cfg.graph_nodes = 16;
  auto s = make_many_flows(cfg);
  ASSERT_EQ(s->senders.size(), 32u);
  ASSERT_EQ(s->receivers.size(), 32u);
  EXPECT_FALSE(s->bottlenecks.empty());
}

TEST(ManyFlows, ShortRunDeliversGoldenDigest) {
  // Recorded when three scheduler backends still existed and all agreed.
  ManyFlowsConfig cfg;
  cfg.flows = 48;
  auto s = make_many_flows(cfg);
  validate::DeliveryHasher hasher;
  s->network.add_trace_sink(&hasher);
  s->sched.run_until(sim::TimePoint::from_seconds(3));
  EXPECT_EQ(hasher.delivered(), 4066u);
  EXPECT_EQ(hasher.hash(), 0x6e95caca7ba87bafu);
}

TEST(ManyFlows, PendingEventPopulationIsLinearInFlows) {
  // The timer-coalescing contract at workload scale: with one armed
  // deadline timer per flow (instead of one stale queue entry per ACK),
  // the peak pending-event population stays a small constant per flow —
  // measured ~3 (armed timers plus in-flight packet arrivals plus
  // bottleneck serialization). A per-ACK stale-entry regression multiplies
  // this several-fold and breaks the 6-per-flow ceiling.
  for (const int flows : {64, 192}) {
    ManyFlowsConfig cfg;
    cfg.flows = flows;
    auto s = make_many_flows(cfg);
    std::size_t max_queued = 0;
    std::function<void()> probe = [&] {
      max_queued = std::max(max_queued, s->sched.queued_count());
      s->sched.schedule_in(sim::Duration::millis(20), [&] { probe(); });
    };
    s->sched.schedule_in(sim::Duration::millis(20), [&] { probe(); });
    s->sched.run_until(sim::TimePoint::from_seconds(5));
    EXPECT_LE(max_queued, static_cast<std::size_t>(6 * flows + 64))
        << "flows=" << flows;
    EXPECT_GT(max_queued, static_cast<std::size_t>(flows))
        << "flows=" << flows << " (probe saw implausibly few events)";
  }
}

}  // namespace
}  // namespace tcppr::harness
