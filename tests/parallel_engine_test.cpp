// Parallel execution mode: the only property that matters is that the
// parallel run is *byte-identical* to the one-shard run. Every test here
// builds the same scenario several times — through harness::ParallelSim at
// different LP counts, plus (where event ties permit) the legacy
// sequential scheduler — and compares the DeliveryHasher digest (an
// order-sensitive FNV fold over every delivery event), so a single
// reordered, missing or duplicated delivery fails the run.
//
// Baselines: the canonical trajectory is the stamped single-shard run
// (lps = 1) — stamp order is partition-independent, so every LP count must
// reproduce it exactly. The legacy unstamped scheduler coincides with it
// except when two nodes schedule same-target-time events within the same
// nanosecond; topologies with distinct per-hop delays (dumbbell) are free
// of such coincidences and also assert canonical == legacy, while
// equal-delay topologies (multipath) compare against the canonical run
// only.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "harness/parallel_run.hpp"
#include "harness/partition.hpp"
#include "harness/scenarios.hpp"
#include "net/node.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "validate/determinism.hpp"
#include "validate/fuzzer.hpp"
#include "validate/invariants.hpp"

namespace tcppr {
namespace {

using harness::ParallelRunConfig;
using harness::ParallelSim;
using harness::Scenario;
using harness::TcpVariant;
using validate::DeliveryHasher;

struct RunDigest {
  std::uint64_t hash = 0;
  std::uint64_t delivered = 0;
  int realized_lps = 1;
};

// Runs `scenario` to `end` and digests its delivery stream; lps == 0 runs
// the legacy sequential scheduler, lps >= 1 runs through ParallelSim
// (stamped shards; one shard still sequential).
RunDigest run_and_digest(std::unique_ptr<Scenario> scenario,
                         sim::TimePoint end, int lps) {
  RunDigest out;
  DeliveryHasher hasher;
  scenario->network.add_trace_sink(&hasher);
  if (lps == 0) {
    scenario->sched.run_until(end);
  } else {
    ParallelRunConfig pc;
    pc.lps = lps;
    ParallelSim psim(*scenario, pc);
    out.realized_lps = psim.lp_count();
    psim.run_until(end);
  }
  out.hash = hasher.hash();
  out.delivered = hasher.delivered();
  return out;
}

// ---------------------------------------------------------------------------
// Scheduler::next_deadline against a sorted reference

TEST(NextDeadline, MatchesSortedReferenceOnRandomizedSchedule) {
  // A randomized schedule with some events cancelled (exercising the lazy
  // stale-skip inside next_deadline). The reference is the sorted multiset
  // of surviving times: every next_deadline must be its minimum, and the
  // run_until that follows must fire exactly the events at that time.
  sim::Scheduler sched;
  sim::Rng rng(7);
  std::vector<std::int64_t> times;
  std::vector<std::size_t> cancel_picks;
  for (int i = 0; i < 300; ++i) {
    times.push_back(static_cast<std::int64_t>(rng.uniform(0.0, 5e8)));
    if (i % 7 == 0) cancel_picks.push_back(static_cast<std::size_t>(i));
  }
  int fired = 0;
  std::vector<sim::EventId> ids;
  for (const auto t : times) {
    ids.push_back(sched.schedule_at(sim::TimePoint::from_nanos(t),
                                    [&fired] { ++fired; }));
  }
  std::multiset<std::int64_t> reference(times.begin(), times.end());
  for (const auto pick : cancel_picks) {
    sched.cancel(ids[pick]);
    reference.erase(reference.find(times[pick]));
  }

  // Drain window by window: the deadline must match the reference before
  // every step.
  for (;;) {
    const std::optional<sim::TimePoint> d = sched.next_deadline();
    ASSERT_EQ(d.has_value(), !reference.empty());
    if (!d) break;
    ASSERT_EQ(d->as_nanos(), *reference.begin());
    const int before = fired;
    sched.run_until(*d);
    EXPECT_EQ(static_cast<std::size_t>(fired - before),
              reference.count(d->as_nanos()));
    reference.erase(d->as_nanos());
  }
  EXPECT_EQ(fired, 300 - static_cast<int>(cancel_picks.size()));
}

// ---------------------------------------------------------------------------
// Partitioner

TEST(Partition, DumbbellSplitsAcrossPositiveLookaheadCuts) {
  harness::DumbbellConfig cfg;
  auto s = harness::make_dumbbell(cfg);
  harness::PartitionConfig pc;
  pc.target_lps = 2;
  const harness::Partition part(s->network, pc);
  ASSERT_EQ(part.lp_count(), 2);
  EXPECT_FALSE(part.cut_links().empty());
  for (const net::Link* cut : part.cut_links()) {
    EXPECT_GT(cut->prop_delay().as_nanos(), 0);
    EXPECT_NE(part.lp_of(cut->from()), part.lp_of(cut->to()));
  }
}

TEST(Partition, ZeroDelayLinksAreNeverCut) {
  Scenario s;
  net::Network& nw = s.network;
  const auto a = nw.add_node();
  const auto b = nw.add_node();
  const auto c = nw.add_node();
  net::LinkConfig zero;
  zero.bandwidth_bps = 10e6;
  zero.delay = sim::Duration::zero();
  nw.add_duplex_link(a, b, zero);
  net::LinkConfig pos = zero;
  pos.delay = sim::Duration::millis(5);
  nw.add_duplex_link(b, c, pos);
  nw.compute_static_routes();

  harness::PartitionConfig pc;
  pc.target_lps = 3;
  const harness::Partition part(nw, pc);
  EXPECT_EQ(part.lp_of(a), part.lp_of(b));  // contracted
  EXPECT_EQ(part.lp_count(), 2);
}

TEST(Partition, SingleLpFallbackWhenNoCutExists) {
  Scenario s;
  net::Network& nw = s.network;
  const auto a = nw.add_node();
  const auto b = nw.add_node();
  net::LinkConfig zero;
  zero.bandwidth_bps = 10e6;
  zero.delay = sim::Duration::zero();
  nw.add_duplex_link(a, b, zero);
  nw.compute_static_routes();

  harness::PartitionConfig pc;
  pc.target_lps = 4;
  const harness::Partition part(nw, pc);
  EXPECT_EQ(part.lp_count(), 1);
  EXPECT_TRUE(part.cut_links().empty());

  // And ParallelSim degrades to the sequential scheduler.
  ParallelRunConfig rc;
  rc.lps = 4;
  ParallelSim psim(s, rc);
  EXPECT_FALSE(psim.parallel());
  psim.run_until(sim::TimePoint::from_seconds(0.1));
}

// ---------------------------------------------------------------------------
// Variant x topology equivalence matrix

enum class Topo { kDumbbell, kParkingLot, kMultipath };

std::unique_ptr<Scenario> build_topo(Topo topo, TcpVariant variant) {
  switch (topo) {
    case Topo::kDumbbell: {
      harness::DumbbellConfig cfg;
      cfg.pr_flows = 0;
      cfg.sack_flows = 0;
      auto s = harness::make_dumbbell(cfg);
      // Two flows of the variant under test plus one SACK competitor.
      s->add_flow(variant, s->src_host, s->dst_host, 1, cfg.tcp, cfg.pr,
                  sim::TimePoint::origin());
      s->add_flow(variant, s->src_host, s->dst_host, 2, cfg.tcp, cfg.pr,
                  sim::TimePoint::from_seconds(0.2));
      s->add_flow(TcpVariant::kSack, s->src_host, s->dst_host, 3, cfg.tcp,
                  cfg.pr, sim::TimePoint::from_seconds(0.4));
      return s;
    }
    case Topo::kParkingLot: {
      harness::ParkingLotConfig cfg;
      cfg.pr_flows = 0;
      cfg.sack_flows = 0;
      cfg.with_cross_traffic = true;
      auto s = harness::make_parking_lot(cfg);
      s->add_flow(variant, s->src_host, s->dst_host, 50, cfg.tcp, cfg.pr,
                  sim::TimePoint::origin());
      return s;
    }
    case Topo::kMultipath: {
      harness::MultipathConfig cfg;
      cfg.variant = variant;
      cfg.epsilon = 1;
      return harness::make_multipath(cfg);
    }
  }
  return nullptr;
}

class ParallelMatrix
    : public ::testing::TestWithParam<std::tuple<TcpVariant, Topo>> {};

TEST_P(ParallelMatrix, ParallelDigestMatchesCanonicalOneShardRun) {
  const auto [variant, topo] = GetParam();
  const auto end = sim::TimePoint::from_seconds(3.0);
  const RunDigest seq = run_and_digest(build_topo(topo, variant), end, 1);
  ASSERT_GT(seq.delivered, 0u);
  if (topo != Topo::kMultipath) {
    // Distinct per-hop delays: no same-nanosecond cross-node ties, so the
    // canonical run must also equal the legacy sequential scheduler.
    const RunDigest legacy = run_and_digest(build_topo(topo, variant), end, 0);
    EXPECT_EQ(seq.hash, legacy.hash) << "canonical vs legacy";
    EXPECT_EQ(seq.delivered, legacy.delivered);
  }
  for (const int lps : {2, 4}) {
    const RunDigest par = run_and_digest(build_topo(topo, variant), end, lps);
    EXPECT_GT(par.realized_lps, 1) << "partition degenerated";
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
  }
}

// Eight LPs is more than most of these plants have positive-lookahead
// cuts for, so the partitioner packs several LPs thinly. The digest must
// still match, and the per-LP barrier report must account for every
// executed event and every cross-LP push.
TEST_P(ParallelMatrix, EightLpDigestAndLpReportsMatchCanonicalRun) {
  const auto [variant, topo] = GetParam();
  const auto end = sim::TimePoint::from_seconds(3.0);
  const RunDigest seq = run_and_digest(build_topo(topo, variant), end, 1);
  ASSERT_GT(seq.delivered, 0u);

  auto scenario = build_topo(topo, variant);
  DeliveryHasher hasher;
  scenario->network.add_trace_sink(&hasher);
  ParallelRunConfig pc;
  pc.lps = 8;
  ParallelSim psim(*scenario, pc);
  ASSERT_GT(psim.lp_count(), 1) << "partition degenerated";
  psim.run_until(end);
  EXPECT_EQ(hasher.delivered(), seq.delivered);
  EXPECT_EQ(hasher.hash(), seq.hash);

  const auto reports = psim.lp_reports();
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(psim.lp_count()));
  std::uint64_t events = 0;
  std::uint64_t pushed = 0;
  double busiest = 0.0;
  for (const auto& r : reports) {
    events += r.events;
    pushed += r.cross_pushed;
    EXPECT_GE(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    busiest = std::max(busiest, r.utilization);
  }
  EXPECT_EQ(events, psim.events_processed());
  EXPECT_DOUBLE_EQ(busiest, 1.0);
  EXPECT_GT(pushed, 0u);
  // Every push was either drained at a barrier or still sits in a
  // mailbox, and mailbox residency is part of the external in-flight count.
  EXPECT_GE(pushed, psim.exchanged());
  EXPECT_LE(pushed, psim.exchanged() + psim.external_in_flight());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelMatrix,
    ::testing::Combine(::testing::ValuesIn(harness::all_variants()),
                       ::testing::Values(Topo::kDumbbell, Topo::kParkingLot,
                                         Topo::kMultipath)));

// ---------------------------------------------------------------------------
// Many-flow scale path

TEST(ParallelManyFlows, DumbbellDigestMatchesSequentialAtEveryLpCount) {
  const auto make = [] {
    harness::ManyFlowsConfig cfg;
    cfg.flows = 64;
    cfg.seed = 3;
    return harness::make_many_flows(cfg);
  };
  const auto end = sim::TimePoint::from_seconds(2.0);
  const RunDigest seq = run_and_digest(make(), end, 0);  // legacy sequential
  ASSERT_GT(seq.delivered, 0u);
  for (const int lps : {1, 2, 4, 8}) {
    const RunDigest par = run_and_digest(make(), end, lps);
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
  }
}

TEST(ParallelManyFlows, RandomGraphDigestMatchesCanonicalOneShardRun) {
  const auto make = [] {
    harness::ManyFlowsConfig cfg;
    cfg.topology = harness::ManyFlowsConfig::Topology::kRandomGraph;
    cfg.flows = 32;
    cfg.seed = 11;
    return harness::make_many_flows(cfg);
  };
  const auto end = sim::TimePoint::from_seconds(2.0);
  const RunDigest seq = run_and_digest(make(), end, 1);
  ASSERT_GT(seq.delivered, 0u);
  for (const int lps : {2, 4}) {
    const RunDigest par = run_and_digest(make(), end, lps);
    EXPECT_GT(par.realized_lps, 1);
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
  }
}

// ---------------------------------------------------------------------------
// Clustered mesh: the low-lookahead plant. Cut lookahead is 100us, so
// conservative windows are tiny and cross-cluster traffic rides the
// mailboxes at nearly every barrier.

RunDigest run_mesh(const harness::ClusteredMeshConfig& cfg, sim::TimePoint end,
                   int lps) {
  auto scenario = harness::make_clustered_mesh(cfg);
  RunDigest out;
  DeliveryHasher hasher;
  scenario->network.add_trace_sink(&hasher);
  ParallelRunConfig pc;
  pc.lps = lps;
  pc.min_cut_lookahead = cfg.min_cut_lookahead();
  ParallelSim psim(*scenario, pc);
  out.realized_lps = psim.lp_count();
  psim.run_until(end);
  out.hash = hasher.hash();
  out.delivered = hasher.delivered();
  return out;
}

harness::ClusteredMeshConfig mesh_config(int cross_flows) {
  harness::ClusteredMeshConfig cfg;
  cfg.clusters = 4;
  cfg.flows = 64;
  cfg.cross_flows = cross_flows;
  cfg.max_start_stagger = sim::Duration::seconds(0.3);
  return cfg;
}

TEST(ClusteredMesh, ConservativeDigestMatchesCanonicalOneShardRun) {
  const auto end = sim::TimePoint::from_seconds(1.0);
  const RunDigest seq = run_mesh(mesh_config(2), end, 1);
  ASSERT_GT(seq.delivered, 0u);
  for (const int lps : {2, 4}) {
    const RunDigest par = run_mesh(mesh_config(2), end, lps);
    EXPECT_EQ(par.realized_lps, lps);
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
  }
}

TEST(ClusteredMesh, CrossFreeMeshMatchesCanonicalRunAtFourLps) {
  // No cross-cluster flows: the ring cuts stay silent, so each LP runs
  // its cluster alone between barriers and the merged trace must still
  // interleave the four clusters in canonical stamp order.
  const auto end = sim::TimePoint::from_seconds(1.0);
  const RunDigest seq = run_mesh(mesh_config(0), end, 1);
  ASSERT_GT(seq.delivered, 0u);
  const RunDigest par = run_mesh(mesh_config(0), end, 4);
  EXPECT_EQ(par.realized_lps, 4);
  EXPECT_EQ(par.hash, seq.hash);
  EXPECT_EQ(par.delivered, seq.delivered);
}

TEST(ClusteredMesh, HeavyCrossTrafficMatchesCanonicalRun) {
  // Four cross-cluster flows put deliveries on the 100us ring cuts in
  // nearly every window, so mailbox ordering is exercised at every barrier.
  const auto end = sim::TimePoint::from_seconds(1.0);
  const RunDigest seq = run_mesh(mesh_config(4), end, 1);
  ASSERT_GT(seq.delivered, 0u);
  for (const int lps : {2, 4}) {
    const RunDigest par = run_mesh(mesh_config(4), end, lps);
    EXPECT_EQ(par.realized_lps, lps);
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
  }
}

// ---------------------------------------------------------------------------
// Cut-link deliveries: kDeliver ops on the destination LP's pump

// One arrival at the far node: (seq, delivery time in ns).
struct CutArrival {
  net::SeqNo seq;
  std::int64_t at_ns;
  bool operator==(const CutArrival&) const = default;
};

class CutArrivalRecorder final : public net::Agent {
 public:
  explicit CutArrivalRecorder(const sim::Scheduler& clock) : clock_(clock) {}
  void deliver(net::Packet&& pkt) override {
    arrivals.push_back({pkt.tcp.seq, clock_.now().as_nanos()});
  }
  std::vector<CutArrival> arrivals;

 private:
  const sim::Scheduler& clock_;
};

struct CutLinkRun {
  std::vector<CutArrival> arrivals;
  int realized_lps = 0;
  std::uint64_t pump_ops = 0;
  std::uint64_t pushed = 0;  // cross-LP pushes over the LP reports
  // Barrier drains and external in-flight count before the first
  // delivery and after the last.
  std::uint64_t exchanged_mid = 0;
  std::uint64_t in_flight_mid = 0;
  std::uint64_t exchanged_end = 0;
  std::uint64_t in_flight_end = 0;
};

// A burst of 400 40-byte packets over one lossy, jittered 5-ms link whose
// transmission time truncates to 0 ns: every packet leaves at t = 0 and
// the survivors land on at most three instants. With two LPs the link is
// the cut, so every delivery crosses. The run stops once mid-flight
// (after every push, before any delivery) and once after the last
// delivery.
CutLinkRun run_same_instant_cut_link(int lps, bool batching) {
  Scenario s;
  if (!batching) s.network.disable_batching();
  const net::NodeId a = s.network.add_node();
  const net::NodeId b = s.network.add_node();
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 1e12;
  cfg.delay = sim::Duration::millis(5);
  cfg.queue_limit_packets = 1000;
  net::Link& ab = s.network.add_link(a, b, cfg);
  s.network.compute_static_routes();
  ab.set_loss_model(0.2, sim::Rng(42));
  ab.set_jitter(sim::Duration::nanos(3), sim::Rng(43));
  s.schedule_action(sim::TimePoint::origin(), a, [&s, a, b] {
    for (int i = 0; i < 400; ++i) {
      net::Packet pkt;
      pkt.dst = b;
      pkt.size_bytes = 40;
      pkt.tcp.flow = 1;
      pkt.tcp.seq = i;
      s.network.node(a).originate(std::move(pkt));
    }
  });

  CutLinkRun out;
  ParallelRunConfig pc;
  pc.lps = lps;
  ParallelSim psim(s, pc);
  out.realized_lps = psim.lp_count();
  CutArrivalRecorder agent(psim.shard_for(b));
  s.network.node(b).attach_agent(1, &agent);
  psim.run_until(sim::TimePoint::from_seconds(0.002));
  out.exchanged_mid = psim.exchanged();
  out.in_flight_mid = psim.external_in_flight();
  psim.run_until(sim::TimePoint::from_seconds(0.02));
  out.in_flight_end = psim.external_in_flight();
  s.network.node(b).detach_agent(1);
  out.arrivals = agent.arrivals;
  out.pump_ops = psim.pump_stats().ops;
  for (const auto& r : psim.lp_reports()) out.pushed += r.cross_pushed;
  out.exchanged_end = psim.exchanged();
  return out;
}

TEST(ParallelCutLink, SameInstantDeliverySequenceMatchesOneLpAndUnbatched) {
  const CutLinkRun par = run_same_instant_cut_link(2, true);
  ASSERT_EQ(par.realized_lps, 2);
  ASSERT_FALSE(par.arrivals.empty());
  EXPECT_LT(par.arrivals.size(), 400u);  // the loss lottery ran
  // Hundreds of arrivals on at most three instants (5 ms + 0..2 ns),
  // jitter-reordered among themselves.
  EXPECT_EQ(par.arrivals.front().at_ns, sim::Duration::millis(5).as_nanos());
  EXPECT_LE(par.arrivals.back().at_ns - par.arrivals.front().at_ns, 2);
  EXPECT_FALSE(std::is_sorted(
      par.arrivals.begin(), par.arrivals.end(),
      [](const CutArrival& x, const CutArrival& y) { return x.seq < y.seq; }));

  EXPECT_EQ(par.arrivals, run_same_instant_cut_link(1, true).arrivals);
  EXPECT_EQ(par.arrivals, run_same_instant_cut_link(2, false).arrivals);
  EXPECT_EQ(par.arrivals, run_same_instant_cut_link(1, false).arrivals);
}

TEST(ParallelCutLink, PumpOpsCountEveryCrossLpDelivery) {
  // One tx completion per packet on the source LP's pump plus one kDeliver
  // op per cross-LP delivery on the destination LP's — the same count as
  // the one-LP run, where the link is local.
  const CutLinkRun par = run_same_instant_cut_link(2, true);
  ASSERT_EQ(par.realized_lps, 2);
  EXPECT_EQ(par.pump_ops, 400u + par.arrivals.size());
  EXPECT_EQ(par.pump_ops, run_same_instant_cut_link(1, true).pump_ops);
  EXPECT_EQ(run_same_instant_cut_link(2, false).pump_ops, 0u);
}

TEST(ParallelCutLink, InFlightCountsEveryUndeliveredPush) {
  // Every survivor was pushed at t = 0: mid-flight all of them are
  // external (drained or not), afterwards all have executed. Either way
  // every push is drained or still counted in flight.
  for (const bool batching : {true, false}) {
    const CutLinkRun par = run_same_instant_cut_link(2, batching);
    ASSERT_EQ(par.realized_lps, 2);
    EXPECT_EQ(par.pushed, par.arrivals.size()) << "batching " << batching;
    EXPECT_EQ(par.in_flight_mid, par.pushed) << "batching " << batching;
    EXPECT_EQ(par.in_flight_end, 0u) << "batching " << batching;
    EXPECT_EQ(par.exchanged_end, par.pushed) << "batching " << batching;
    EXPECT_LE(par.pushed, par.exchanged_mid + par.in_flight_mid);
    EXPECT_LE(par.pushed, par.exchanged_end + par.in_flight_end);
  }
}

// ---------------------------------------------------------------------------
// Invariants under parallel execution (conservation swept at barriers)

TEST(ParallelInvariants, CheckerIsCleanAtBarriersAndTeardown) {
  harness::DumbbellConfig cfg;
  cfg.pr_flows = 2;
  cfg.sack_flows = 2;
  auto s = harness::make_dumbbell(cfg);
  validate::InvariantChecker checker(*s);
  ParallelRunConfig pc;
  pc.lps = 4;
  ParallelSim psim(*s, pc);
  ASSERT_TRUE(psim.parallel());
  psim.set_checker(&checker);
  psim.run_until(sim::TimePoint::from_seconds(3.0));
  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.sweeps(), 1u);
  EXPECT_GT(psim.windows(), 0u);
  EXPECT_GT(psim.exchanged(), 0u);
}

// ---------------------------------------------------------------------------
// Fuzz equivalence: sampled adversarial cases (loss, jitter, flapping,
// mid-run reconfiguration, all four topologies) must digest identically
// at 2 and 4 LPs. The full 100-seed campaign lives in the fuzz test
// below; a reduced sweep keeps the default ctest run fast.

void expect_seed_equivalent(std::uint64_t seed, int lps) {
  validate::FuzzCase c = validate::sample_fuzz_case(seed);
  c.par_lps = 1;  // canonical one-shard baseline (ties keyed by node)
  const validate::FuzzResult seq = validate::run_fuzz_case(c);
  EXPECT_TRUE(seq.ok) << "seed " << seed << ": " << seq.first_violation;
  c.par_lps = lps;
  const validate::FuzzResult par = validate::run_fuzz_case(c);
  EXPECT_TRUE(par.ok) << "seed " << seed << " lps " << lps << ": "
                      << par.first_violation;
  EXPECT_EQ(par.delivery_hash, seq.delivery_hash)
      << "seed " << seed << " lps " << lps << " ("
      << validate::describe(c) << ")";
  EXPECT_EQ(par.delivered, seq.delivered) << "seed " << seed;
}

TEST(ParallelFuzz, HundredSeedsMatchSequentialAtTwoAndFourLps) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    expect_seed_equivalent(seed, seed % 2 == 0 ? 2 : 4);
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first divergent seed " << seed;
    }
  }
}

}  // namespace
}  // namespace tcppr
