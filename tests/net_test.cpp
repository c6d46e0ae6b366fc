// Unit tests for the network substrate: queues, links (serialization and
// propagation timing), node forwarding, and Network route computation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/sources.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::net {
namespace {

Packet make_packet(NodeId dst, std::uint32_t bytes, FlowId flow = 1) {
  Packet pkt;
  pkt.dst = dst;
  pkt.size_bytes = bytes;
  pkt.tcp.flow = flow;
  return pkt;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10);
  for (int i = 0; i < 5; ++i) {
    Packet pkt = make_packet(0, 100);
    pkt.tcp.seq = i;
    EXPECT_TRUE(q.enqueue(std::move(pkt)));
  }
  for (int i = 0; i < 5; ++i) {
    auto pkt = q.dequeue();
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->tcp.seq, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(0, 100)));
  }
  EXPECT_FALSE(q.enqueue(make_packet(0, 100)));
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().enqueued, 3u);
  EXPECT_EQ(q.length_packets(), 3u);
  // Draining one opens a slot again.
  q.dequeue();
  EXPECT_TRUE(q.enqueue(make_packet(0, 100)));
}

TEST(DropTailQueue, ByteAccounting) {
  DropTailQueue q(10);
  ASSERT_TRUE(q.enqueue(make_packet(0, 100)));
  ASSERT_TRUE(q.enqueue(make_packet(0, 250)));
  EXPECT_EQ(q.length_bytes(), 350u);
  q.dequeue();
  EXPECT_EQ(q.length_bytes(), 250u);
}

TEST(RedQueue, AcceptsBelowMinThreshold) {
  RedQueue::Params params;
  params.limit_packets = 50;
  params.min_thresh = 10;
  params.max_thresh = 30;
  RedQueue q(params, sim::Rng(1));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(0, 100)));
  }
  EXPECT_EQ(q.stats().dropped, 0u);
}

TEST(RedQueue, DropsProbabilisticallyWhenCongested) {
  RedQueue::Params params;
  params.limit_packets = 100;
  params.min_thresh = 5;
  params.max_thresh = 15;
  params.weight = 0.5;  // fast-moving average for the test
  RedQueue q(params, sim::Rng(1));
  int dropped = 0;
  for (int i = 0; i < 200; ++i) {
    if (!q.enqueue(make_packet(0, 100))) ++dropped;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(q.length_packets(), 101u);
}

TEST(RedQueue, HardLimitEnforced) {
  RedQueue::Params params;
  params.limit_packets = 10;
  params.min_thresh = 100;  // early drops effectively off
  params.max_thresh = 200;
  RedQueue q(params, sim::Rng(1));
  int accepted = 0;
  for (int i = 0; i < 50; ++i) {
    if (q.enqueue(make_packet(0, 100))) ++accepted;
  }
  EXPECT_LE(accepted, 10);
}

class TwoNodeFixture : public ::testing::Test {
 protected:
  TwoNodeFixture() : network(sched) {
    a = network.add_node();
    b = network.add_node();
    LinkConfig cfg;
    cfg.bandwidth_bps = 8e6;  // 1 byte/us
    cfg.delay = sim::Duration::millis(10);
    cfg.queue_limit_packets = 100;
    auto [ab_link, ba_link] = network.add_duplex_link(a, b, cfg);
    ab = ab_link;
    ba = ba_link;
    network.compute_static_routes();
    sink = std::make_unique<app::PacketSink>(network, b, 1);
  }

  sim::Scheduler sched;
  Network network;
  NodeId a{}, b{};
  Link* ab = nullptr;
  Link* ba = nullptr;
  std::unique_ptr<app::PacketSink> sink;
};

TEST_F(TwoNodeFixture, DeliversWithSerializationPlusPropagation) {
  // 1000 bytes at 8 Mbps = 1 ms serialization; +10 ms propagation.
  network.node(a).originate(make_packet(b, 1000));
  sched.run();
  EXPECT_EQ(sink->packets(), 1u);
  EXPECT_NEAR(sched.now().as_seconds(), 0.011, 1e-9);
}

TEST_F(TwoNodeFixture, BackToBackPacketsSerialize) {
  for (int i = 0; i < 3; ++i) network.node(a).originate(make_packet(b, 1000));
  sched.run();
  EXPECT_EQ(sink->packets(), 3u);
  // Last packet: 3 ms serialization (pipelined) + 10 ms propagation.
  EXPECT_NEAR(sched.now().as_seconds(), 0.013, 1e-9);
}

TEST_F(TwoNodeFixture, QueueOverflowDrops) {
  // 100-packet queue + 1 in transmission: flooding 200 drops the excess.
  for (int i = 0; i < 200; ++i) {
    network.node(a).originate(make_packet(b, 1000));
  }
  sched.run();
  EXPECT_EQ(sink->packets(), 101u);
  EXPECT_EQ(ab->queue().stats().dropped, 99u);
}

TEST_F(TwoNodeFixture, LossModelDropsFraction) {
  ab->set_loss_model(0.5, sim::Rng(9));
  // Spaced out so the queue never overflows (only loss-model drops).
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(sim::TimePoint::from_seconds(0.001 * i),
                      [&] { network.node(a).originate(make_packet(b, 100)); });
  }
  sched.run();
  EXPECT_GT(sink->packets(), 400u);
  EXPECT_LT(sink->packets(), 600u);
  EXPECT_EQ(sink->packets() + ab->stats().lost, 1000u);
}

TEST_F(TwoNodeFixture, DropFilterIsDeterministic) {
  ab->set_drop_filter([](const Packet& pkt) { return pkt.tcp.seq == 2; });
  for (int i = 0; i < 5; ++i) {
    Packet pkt = make_packet(b, 100);
    pkt.tcp.seq = i;
    network.node(a).originate(std::move(pkt));
  }
  sched.run();
  EXPECT_EQ(sink->packets(), 4u);
  EXPECT_EQ(ab->stats().lost, 1u);
}

TEST_F(TwoNodeFixture, NoAgentCountsUnroutable) {
  network.node(a).originate(make_packet(b, 100, /*flow=*/99));
  sched.run();
  EXPECT_EQ(network.node(b).stats().unroutable, 1u);
}

TEST_F(TwoNodeFixture, NoRouteOrNoLinkCountsUnroutable) {
  const NodeId c = network.add_node();  // after routing: unreachable
  network.node(a).originate(make_packet(c, 100));
  Packet pkt = make_packet(b, 100);
  pkt.source_route = {c};  // c is no neighbor of a
  network.node(a).originate(std::move(pkt));
  sched.run();
  EXPECT_EQ(network.node(a).stats().unroutable, 2u);
  EXPECT_EQ(network.node(a).stats().forwarded, 0u);
  EXPECT_EQ(ab->stats().delivered, 0u);
  EXPECT_EQ(sink->packets(), 0u);
}

TEST(Network, ForwardsAcrossChain) {
  sim::Scheduler sched;
  Network network(sched);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(network.add_node());
  LinkConfig cfg;
  for (int i = 0; i + 1 < 5; ++i) {
    network.add_duplex_link(nodes[i], nodes[i + 1], cfg);
  }
  network.compute_static_routes();
  app::PacketSink sink(network, nodes[4], 1);
  network.node(nodes[0]).originate(make_packet(nodes[4], 500));
  sched.run();
  EXPECT_EQ(sink.packets(), 1u);
  // Three intermediate routers forwarded it.
  EXPECT_EQ(network.node(nodes[1]).stats().forwarded, 1u);
  EXPECT_EQ(network.node(nodes[3]).stats().forwarded, 1u);
}

TEST(Network, SourceRouteOverridesTables) {
  sim::Scheduler sched;
  Network network(sched);
  // Diamond: 0 -> {1 short, 2 long} -> 3.
  const NodeId n0 = network.add_node();
  const NodeId n1 = network.add_node();
  const NodeId n2 = network.add_node();
  const NodeId n3 = network.add_node();
  LinkConfig fast;
  fast.delay = sim::Duration::millis(1);
  LinkConfig slow;
  slow.delay = sim::Duration::millis(50);
  network.add_duplex_link(n0, n1, fast);
  network.add_duplex_link(n1, n3, fast);
  network.add_duplex_link(n0, n2, slow);
  network.add_duplex_link(n2, n3, slow);
  network.compute_static_routes();
  app::PacketSink sink(network, n3, 1);

  // Shortest-path routing would go through n1; force the n2 path.
  Packet pkt = make_packet(n3, 100);
  pkt.source_route = {n2, n3};
  network.node(n0).originate(std::move(pkt));
  sched.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(network.node(n2).stats().forwarded, 1u);
  EXPECT_EQ(network.node(n1).stats().forwarded, 0u);
}

TEST(Network, HopCountIncrements) {
  sim::Scheduler sched;
  Network network(sched);
  const NodeId n0 = network.add_node();
  const NodeId n1 = network.add_node();
  const NodeId n2 = network.add_node();
  LinkConfig cfg;
  network.add_duplex_link(n0, n1, cfg);
  network.add_duplex_link(n1, n2, cfg);
  network.compute_static_routes();

  class HopRecorder final : public Agent {
   public:
    void deliver(Packet&& pkt) override { hops = pkt.hops; }
    int hops = -1;
  } recorder;
  network.node(n2).attach_agent(1, &recorder);
  network.node(n0).originate(make_packet(n2, 100));
  sched.run();
  EXPECT_EQ(recorder.hops, 2);
  network.node(n2).detach_agent(1);
}

TEST(Network, TotalDropsAggregates) {
  sim::Scheduler sched;
  Network network(sched);
  const NodeId n0 = network.add_node();
  const NodeId n1 = network.add_node();
  LinkConfig cfg;
  cfg.queue_limit_packets = 1;
  cfg.bandwidth_bps = 1e3;  // slow: immediate queue build-up
  network.add_duplex_link(n0, n1, cfg);
  network.compute_static_routes();
  app::PacketSink sink(network, n1, 1);
  for (int i = 0; i < 10; ++i) {
    network.node(n0).originate(make_packet(n1, 100));
  }
  sched.run();
  EXPECT_EQ(network.total_drops(), 10u - sink.packets());
}

}  // namespace
}  // namespace tcppr::net
