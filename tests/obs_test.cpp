// Tests for the flow-state observability layer (src/obs): registry
// semantics, sink output formats (golden CSV), the no-sink zero-cost
// discipline, and the end-to-end mxrtt-envelope series on a live flow.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "core/tcp_pr.hpp"
#include "net/link_flapper.hpp"
#include "net/network.hpp"
#include "obs/probe.hpp"
#include "obs/registry.hpp"
#include "obs/series.hpp"
#include "test_util.hpp"

// Program-wide operator new replacement, counting every heap allocation so
// the zero-allocation test below can assert the disabled observability
// path never touches the allocator. Replacements must have external
// linkage; the counter itself stays internal.
static std::atomic<std::uint64_t> g_heap_allocations{0};

// The replacements stay out of line: once gcc inlines one side of a
// new/delete pair it sees malloc paired with operator delete, or operator
// new with free, and reports -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tcppr::obs {
namespace {

using sim::TimePoint;

TEST(MetricRegistry, InternsOnceAndTracksLastAndTotal) {
  MetricRegistry reg;
  const MetricId cwnd = reg.intern("cwnd", MetricKind::kGauge);
  const MetricId drops = reg.intern("drops", MetricKind::kCounter);
  EXPECT_EQ(reg.intern("cwnd", MetricKind::kGauge), cwnd);
  EXPECT_EQ(reg.metric_count(), 2u);
  EXPECT_EQ(reg.name(cwnd), "cwnd");
  EXPECT_EQ(reg.kind(drops), MetricKind::kCounter);

  MemorySeriesSink sink;
  reg.add_sink(&sink);
  reg.set(TimePoint::from_seconds(1), cwnd, 1, 4.0);
  reg.set(TimePoint::from_seconds(2), cwnd, 1, 8.0);
  reg.add(TimePoint::from_seconds(2), drops, 1);
  reg.add(TimePoint::from_seconds(3), drops, 1);
  reg.add(TimePoint::from_seconds(3), drops, 2);  // separate flow label
  EXPECT_EQ(reg.last(cwnd, 1), 8.0);
  EXPECT_EQ(reg.total(drops, 1), 2.0);
  EXPECT_EQ(reg.total(drops, 2), 1.0);
  EXPECT_EQ(reg.samples_recorded(), 5u);
  // Counters record their running total, per flow label.
  const auto drop_series = sink.series("drops", 1);
  ASSERT_EQ(drop_series.size(), 2u);
  EXPECT_EQ(drop_series[0].second, 1.0);
  EXPECT_EQ(drop_series[1].second, 2.0);
}

TEST(CsvSeriesSink, GoldenFile) {
  // Hand-driven samples with exactly representable times and values: the
  // emitted bytes are part of the sink's contract (downstream plotting
  // scripts parse them), so compare against the literal expected file.
  const std::string path = "obs_csv_golden_test.csv";
  MetricRegistry reg;
  const MetricId cwnd = reg.intern("cwnd", MetricKind::kGauge);
  const MetricId drops = reg.intern("drops", MetricKind::kCounter);
  {
    CsvSeriesSink sink(path);
    ASSERT_TRUE(sink.ok());
    reg.add_sink(&sink);
    reg.set(TimePoint::from_seconds(0), cwnd, 1, 1.0);
    reg.set(TimePoint::from_seconds(0.1), cwnd, 1, 2.5);
    reg.add(TimePoint::from_seconds(0.25), drops, 2);
    reg.set(TimePoint::from_seconds(1.0 / 3), cwnd, 2, 1e-9);
    reg.add(TimePoint::from_seconds(0.5), drops, 2);
    sink.flush();
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[256];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents,
            "time,metric,flow,value\n"
            "0.000000000,cwnd,1,1\n"
            "0.100000000,cwnd,1,2.5\n"
            "0.250000000,drops,2,1\n"
            "0.333333333,cwnd,2,1e-09\n"
            "0.500000000,drops,2,2\n");
}

TEST(MetricRegistry, UnattachedRecordsNothingAndAllocatesNothing) {
  MetricRegistry reg;
  // Interning (including the standard flow metrics) allocates; do all of
  // it before taking the allocation snapshot, as real endpoints do at
  // set_metric_registry time.
  const FlowMetrics m = reg.flow_metrics();
  FlowProbe probe(reg, /*flow=*/1);
  ASSERT_FALSE(reg.active());
  ASSERT_FALSE(static_cast<bool>(probe));

  const std::uint64_t before = g_heap_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    const TimePoint t = TimePoint::from_seconds(0.001 * i);
    // The guarded call-site pattern every endpoint uses...
    if (probe) probe.cwnd(t, 42.0);
    if (probe) probe.drop_declared(t);
    // ...and the raw registry path a direct caller would hit.
    reg.set(t, m.cwnd, 1, 42.0);
    reg.add(t, m.drops_declared, 1);
  }
  EXPECT_EQ(g_heap_allocations.load(), before);
  EXPECT_EQ(reg.samples_recorded(), 0u);
  EXPECT_EQ(reg.last(m.cwnd, 1), std::nullopt);
  EXPECT_EQ(reg.total(m.drops_declared, 1), 0.0);
}

TEST(Series, MxrttEnvelopeTracksRttSpikeOnLiveFlow) {
  // End-to-end: a TCP-PR flow instrumented through set_metric_registry
  // plus a QueueProbe on the bottleneck. The mxrtt series must hold the
  // beta * ewrtt envelope before the spike, absorb an injected RTT spike,
  // and decay back afterwards (eq. 1 / Section 3.1).
  testutil::PathFixture f(10e6, sim::Duration::millis(20));
  tcp::TcpConfig tc;
  tc.max_cwnd = 20;
  core::TcpPrConfig pr;
  pr.alpha = 0.9;  // fast decay keeps the test short
  auto* sender = f.add_flow(harness::TcpVariant::kTcpPr, 1, tc, pr);

  MetricRegistry reg;
  MemorySeriesSink sink;
  reg.add_sink(&sink);
  sender->set_metric_registry(reg);
  f.receiver()->set_metric_registry(reg);
  QueueProbe queue_probe(f.sched, reg, *f.fwd, sim::Duration::millis(100));
  queue_probe.start();

  sender->start();
  f.run_for(10);
  const auto pre_ew = sink.series("ewrtt", 1);
  ASSERT_FALSE(pre_ew.empty());
  const double base = pre_ew.back().second;
  ASSERT_GT(base, 0.0);

  // RTT spike: +180 ms of forward propagation delay for half a second.
  f.fwd->set_prop_delay(sim::Duration::millis(200));
  f.sched.schedule_at(f.sched.now() + sim::Duration::millis(500), [&] {
    f.fwd->set_prop_delay(sim::Duration::millis(20));
  });
  f.run_for(5);

  const auto ew = sink.series("ewrtt", 1);
  const auto mx = sink.series("mxrtt", 1);
  ASSERT_EQ(ew.size(), mx.size());  // emitted pairwise per ACK
  ASSERT_GT(ew.size(), 100u);

  double peak_ew = 0;
  for (std::size_t i = 0; i < ew.size(); ++i) {
    // Envelope: mxrtt >= beta * ewrtt always (the backoff override only
    // raises it above the beta envelope, never below).
    EXPECT_GE(mx[i].second + 1e-9, 3.0 * ew[i].second);
    // Before the spike there is no backoff: exactly beta * ewrtt.
    if (ew[i].first < 9.9) {
      EXPECT_NEAR(mx[i].second, 3.0 * ew[i].second, 1e-9);
    }
    if (ew[i].first > 10.0) peak_ew = std::max(peak_ew, ew[i].second);
  }
  EXPECT_GT(peak_ew, base + 0.1);            // the spike was absorbed...
  EXPECT_NEAR(ew.back().second, base, 0.02);  // ...and decayed back

  // The queue probe sampled the bottleneck throughout: one sample per
  // 100 ms for occupancy, and a monotone dequeued-bytes counter that ends
  // positive (the flow moved data through this queue).
  const auto pkts = sink.series("queue.pkts[1->2]");
  EXPECT_GT(pkts.size(), 100u);
  const auto bytes_out = sink.series("queue.bytes_dequeued[1->2]");
  ASSERT_GT(bytes_out.size(), 100u);
  for (std::size_t i = 1; i < bytes_out.size(); ++i) {
    EXPECT_GE(bytes_out[i].second, bytes_out[i - 1].second);
  }
  EXPECT_GT(bytes_out.back().second, 1e6);

  // The receiver side reported its in-order point as a gauge.
  const auto rcv = sink.series("rcv_next", 1);
  ASSERT_FALSE(rcv.empty());
  EXPECT_GT(rcv.back().second, 1000.0);
}

TEST(ObsExport, FlapperTransitionsDownTimeAndLossDrops) {
  // LinkFlapper outage accounting and the link's loss-model drops are
  // exported as metrics: drive traffic over a flapping, lossy link and
  // read both back through a series sink.
  sim::Scheduler sched;
  net::Network network(sched);
  const auto a = network.add_node();
  const auto b = network.add_node();
  network.add_duplex_link(a, b, {});
  network.compute_static_routes();
  net::Link* ab = network.find_link(a, b);
  ab->set_loss_model(0.5, sim::Rng(7));

  MetricRegistry reg;
  MemorySeriesSink sink;
  reg.add_sink(&sink);

  net::LinkFlapper::Config fc;
  fc.mean_up = sim::Duration::millis(50);
  fc.mean_down = sim::Duration::millis(20);
  fc.seed = 3;
  net::LinkFlapper flapper(sched, {ab}, fc);
  flapper.set_metric_registry(&reg, "ab");
  QueueProbe probe(sched, reg, *ab, sim::Duration::millis(10), "ab");
  probe.start();
  flapper.start();

  for (int i = 0; i < 200; ++i) {
    sched.schedule_at(sim::TimePoint::from_seconds(0.005 * i), [&network, a, b] {
      net::Packet p;
      p.dst = b;
      p.size_bytes = 1000;
      p.tcp.flow = 1;
      network.node(a).originate(std::move(p));
    });
  }
  sched.run_until(sim::TimePoint::from_seconds(1.0));
  flapper.stop();
  probe.stop();
  sched.run();

  EXPECT_GT(flapper.transitions(), 0u);
  EXPECT_GT(flapper.down_time(), sim::Duration::zero());

  const auto transitions = sink.series("flap.transitions[ab]");
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions.back().second,
            static_cast<double>(flapper.transitions()));
  const auto down_time = sink.series("flap.down_time_s[ab]");
  ASSERT_FALSE(down_time.empty());
  EXPECT_DOUBLE_EQ(down_time.back().second, flapper.down_time().as_seconds());

  ASSERT_GT(ab->stats().loss_model_lost, 0u);
  const auto loss = sink.series("link.loss_drops[ab]");
  ASSERT_FALSE(loss.empty());
  EXPECT_EQ(loss.back().second,
            static_cast<double>(ab->stats().loss_model_lost));
}

}  // namespace
}  // namespace tcppr::obs
