// Tests for the pending-event set (HeapQueue): sorted-run mode switches,
// randomized order against an independent sorted reference, and a full
// simulation against its golden result.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>

#include "core/tcp_pr.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sack.hpp"

namespace tcppr::sim {
namespace {

QueuedEvent ev(double seconds, std::uint64_t seq) {
  return QueuedEvent{TimePoint::from_seconds(seconds), seq, seq + 1};
}

TEST(HeapQueue, MonotonePushesStayInSortedRun) {
  // Nondecreasing (time, seq) pushes keep the array a flat sorted run —
  // the O(1) append fast path — and pops stream from the front without
  // leaving the mode.
  HeapQueue q;
  EXPECT_TRUE(q.in_sorted_run());
  for (int i = 0; i < 100; ++i) q.push(ev(i * 0.001, static_cast<std::uint64_t>(i)));
  EXPECT_TRUE(q.in_sorted_run());
  q.push(ev(0.099, 200));  // equal time, later seq: still in order
  EXPECT_TRUE(q.in_sorted_run());
  EXPECT_EQ(q.pop_min()->seq, 0u);
  EXPECT_EQ(q.pop_min()->seq, 1u);
  EXPECT_TRUE(q.in_sorted_run());
  EXPECT_EQ(q.size(), 99u);
}

TEST(HeapQueue, OutOfOrderPushLeavesSortedRunAndReentersWhenDrained) {
  HeapQueue q;
  for (int i = 0; i < 10; ++i) {
    q.push(ev(1.0 + i, static_cast<std::uint64_t>(i)));
  }
  EXPECT_TRUE(q.in_sorted_run());
  q.push(ev(0.5, 100));  // earlier than the tail: exits sorted mode
  EXPECT_FALSE(q.in_sorted_run());
  EXPECT_EQ(q.pop_min()->seq, 100u);  // heap mode still pops in time order
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(q.pop_min()->seq, i);
  EXPECT_FALSE(q.pop_min().has_value());
  EXPECT_TRUE(q.in_sorted_run());  // drained: back on the fast path
  q.push(ev(2.0, 200));
  q.push(ev(1.0, 201));  // exercises the exit again after re-entry
  EXPECT_FALSE(q.in_sorted_run());
  EXPECT_EQ(q.pop_min()->seq, 201u);
  EXPECT_EQ(q.pop_min()->seq, 200u);
}

TEST(HeapQueue, ClearEmptiesAndRestoresSortedMode) {
  HeapQueue q;
  for (int i = 10; i > 0; --i) {
    q.push(ev(i, static_cast<std::uint64_t>(10 - i)));  // descending: heap mode
  }
  EXPECT_FALSE(q.in_sorted_run());
  q.clear();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.in_sorted_run());
  EXPECT_FALSE(q.pop_min().has_value());
  q.push(ev(1.0, 1));
  EXPECT_EQ(q.pop_min()->seq, 1u);
}

TEST(HeapQueue, RandomizedMatchesSortedReference) {
  // Interleaved pushes and pops with random times: the heap must pop the
  // same sequence as an ordered set keyed by (time, seq).
  Rng rng(12345);
  for (int round = 0; round < 5; ++round) {
    HeapQueue heap;
    std::set<std::pair<std::int64_t, std::uint64_t>> reference;
    std::uint64_t seq = 0;
    double clock = 0;
    for (int op = 0; op < 4000; ++op) {
      const bool push = heap.empty() || rng.uniform() < 0.55;
      if (push) {
        // Mix of near-future, clustered and far-future times.
        double t = clock;
        const double u = rng.uniform();
        if (u < 0.6) {
          t += rng.uniform(0.0, 0.01);
        } else if (u < 0.9) {
          t += rng.uniform(0.0, 1.0);
        } else {
          t += rng.uniform(0.0, 300.0);
        }
        const QueuedEvent e{TimePoint::from_seconds(t), seq, seq + 1};
        ++seq;
        heap.push(e);
        reference.emplace(e.time.as_nanos(), e.seq);
      } else {
        const auto a = heap.pop_min();
        ASSERT_TRUE(a.has_value());
        ASSERT_FALSE(reference.empty());
        const auto expected = *reference.begin();
        reference.erase(reference.begin());
        ASSERT_EQ(a->seq, expected.second) << "round " << round << " op " << op;
        ASSERT_EQ(a->time.as_nanos(), expected.first);
        ASSERT_EQ(a->id, a->seq + 1);
        clock = a->time.as_seconds();  // times only move forward
      }
      ASSERT_EQ(heap.size(), reference.size());
    }
    // Drain both.
    for (const auto& expected : reference) {
      const auto a = heap.pop_min();
      ASSERT_TRUE(a.has_value());
      ASSERT_EQ(a->seq, expected.second);
      ASSERT_EQ(a->time.as_nanos(), expected.first);
    }
    EXPECT_FALSE(heap.pop_min().has_value());
  }
}

TEST(Scheduler, FullSimulationMatchesGolden) {
  // A complete two-flow TCP simulation against the result it produced
  // when three scheduler backends still existed and all agreed on it.
  Scheduler sched;
  net::Network network(sched);
  const auto a = network.add_node();
  const auto r = network.add_node();
  const auto b = network.add_node();
  net::LinkConfig access;
  access.bandwidth_bps = 1e8;
  network.add_duplex_link(a, r, access);
  net::LinkConfig bottleneck;
  bottleneck.bandwidth_bps = 5e6;
  bottleneck.delay = sim::Duration::millis(15);
  bottleneck.queue_limit_packets = 40;
  network.add_duplex_link(r, b, bottleneck);
  network.compute_static_routes();
  tcp::Receiver recv(network, b, a, 1);
  core::TcpPrSender pr(network, a, b, 1);
  tcp::Receiver recv2(network, b, a, 2);
  tcp::SackSender sack(network, a, b, 2);
  pr.start();
  sack.start();
  sched.run_until(TimePoint::from_seconds(30));
  EXPECT_EQ(sched.processed_count(), 309u);
  EXPECT_EQ(pr.stats().segments_acked, 7864u);
  EXPECT_EQ(sack.stats().segments_acked, 9587u);
  EXPECT_EQ(pr.stats().retransmissions, 225u);
  EXPECT_EQ(sack.stats().retransmissions, 47u);
}

}  // namespace
}  // namespace tcppr::sim
