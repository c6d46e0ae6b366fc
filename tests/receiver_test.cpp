// Unit tests for the TCP receiver: cumulative ACKs, duplicate ACKs, SACK
// block construction/merging, DSACK on duplicates, delayed ACKs, and
// reordering statistics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/sources.hpp"
#include "net/network.hpp"
#include "tcp/receiver.hpp"
#include "util/hash.hpp"

namespace tcppr::tcp {
namespace {

class ReceiverFixture : public ::testing::Test {
 protected:
  explicit ReceiverFixture() { build({}); }

  void build(ReceiverConfig config) {
    receiver.reset();
    sink.reset();
    network = std::make_unique<net::Network>(sched);
    a = network->add_node();
    b = network->add_node();
    net::LinkConfig cfg;
    network->add_duplex_link(a, b, cfg);
    network->compute_static_routes();
    sink = std::make_unique<app::PacketSink>(*network, a, kFlow);
    receiver =
        std::make_unique<Receiver>(*network, b, a, kFlow, config);
    receiver->set_ack_tap([this](const net::Packet& ack) {
      acks.push_back(ack);
    });
  }

  void data(net::SeqNo seq) {
    net::Packet pkt;
    pkt.uid = network->allocate_uid();
    pkt.src = a;
    pkt.dst = b;
    pkt.size_bytes = 1040;
    pkt.type = net::PacketType::kTcpData;
    pkt.tcp.flow = kFlow;
    pkt.tcp.seq = seq;
    pkt.tcp.ts_value = sched.now().as_seconds();
    receiver->deliver(std::move(pkt));
  }

  static constexpr net::FlowId kFlow = 1;
  sim::Scheduler sched;
  std::unique_ptr<net::Network> network;
  net::NodeId a{}, b{};
  std::unique_ptr<app::PacketSink> sink;
  std::unique_ptr<Receiver> receiver;
  std::vector<net::Packet> acks;
};

TEST_F(ReceiverFixture, InOrderCumulativeAcks) {
  for (int i = 0; i < 5; ++i) data(i);
  ASSERT_EQ(acks.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(acks[i].tcp.ack, i + 1);
  EXPECT_EQ(receiver->rcv_next(), 5);
  EXPECT_TRUE(acks.back().tcp.sack.empty());
}

TEST_F(ReceiverFixture, HoleProducesDuplicateAcks) {
  data(0);
  data(2);
  data(3);
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[1].tcp.ack, 1);  // duplicate cumulative ACK
  EXPECT_EQ(acks[2].tcp.ack, 1);
  EXPECT_EQ(receiver->ooo_buffered(), 2u);
}

TEST_F(ReceiverFixture, FillingHoleAdvancesPastBuffered) {
  data(0);
  data(2);
  data(3);
  data(1);  // fills the hole
  EXPECT_EQ(acks.back().tcp.ack, 4);
  EXPECT_EQ(receiver->ooo_buffered(), 0u);
}

TEST_F(ReceiverFixture, SackBlocksDescribeAboveWindow) {
  data(0);
  data(2);
  data(3);
  data(5);
  const auto& sack = acks.back().tcp.sack;
  ASSERT_EQ(sack.size(), 2u);
  // Most recent block first (RFC 2018): [5,6) then [2,4).
  EXPECT_EQ(sack[0].begin, 5);
  EXPECT_EQ(sack[0].end, 6);
  EXPECT_EQ(sack[1].begin, 2);
  EXPECT_EQ(sack[1].end, 4);
}

TEST_F(ReceiverFixture, SackBlocksMerge) {
  data(0);
  data(2);
  data(4);
  data(3);  // joins [2,3) and [4,5) into [2,5)
  const auto& sack = acks.back().tcp.sack;
  ASSERT_EQ(sack.size(), 1u);
  EXPECT_EQ(sack[0].begin, 2);
  EXPECT_EQ(sack[0].end, 5);
}

TEST_F(ReceiverFixture, AtMostThreeSackBlocks) {
  data(0);
  data(2);
  data(4);
  data(6);
  data(8);
  data(10);
  EXPECT_LE(acks.back().tcp.sack.size(), 3u);
}

TEST_F(ReceiverFixture, SackRetiredByCumulativeAdvance) {
  data(0);
  data(2);
  data(1);
  EXPECT_TRUE(acks.back().tcp.sack.empty());
  EXPECT_EQ(acks.back().tcp.ack, 3);
}

TEST_F(ReceiverFixture, DuplicateSegmentTriggersDsack) {
  data(0);
  data(1);
  data(1);  // duplicate
  ASSERT_TRUE(acks.back().tcp.dsack.has_value());
  EXPECT_EQ(acks.back().tcp.dsack->begin, 1);
  EXPECT_EQ(acks.back().tcp.dsack->end, 2);
  EXPECT_EQ(receiver->stats().duplicates, 1u);
}

TEST_F(ReceiverFixture, DuplicateAboveWindowAlsoDsacked) {
  data(0);
  data(5);
  data(5);
  ASSERT_TRUE(acks.back().tcp.dsack.has_value());
  EXPECT_EQ(acks.back().tcp.dsack->begin, 5);
}

TEST_F(ReceiverFixture, NoDsackWhenDisabled) {
  ReceiverConfig config;
  config.generate_dsack = false;
  build(config);
  data(0);
  data(0);
  EXPECT_FALSE(acks.back().tcp.dsack.has_value());
}

TEST_F(ReceiverFixture, NoSackWhenDisabled) {
  ReceiverConfig config;
  config.generate_sack = false;
  build(config);
  data(0);
  data(2);
  EXPECT_TRUE(acks.back().tcp.sack.empty());
}

TEST_F(ReceiverFixture, TimestampEcho) {
  sched.run_until(sim::TimePoint::from_seconds(1.25));
  data(0);
  EXPECT_DOUBLE_EQ(acks.back().tcp.ts_echo, 1.25);
}

TEST_F(ReceiverFixture, ReorderStatsTrackExtent) {
  data(0);
  data(4);  // extent 3 (expected 1, got 4)
  data(2);
  EXPECT_EQ(receiver->stats().out_of_order, 2u);
  EXPECT_EQ(receiver->stats().max_reorder_extent, 3);
}

TEST_F(ReceiverFixture, GoodputCountsInOrderBytesOnly) {
  data(0);
  data(5);
  EXPECT_EQ(receiver->stats().goodput_bytes, 1000u);
  data(1);
  EXPECT_EQ(receiver->stats().goodput_bytes, 2000u);
}

TEST_F(ReceiverFixture, DelayedAckEverySecondSegment) {
  ReceiverConfig config;
  config.delayed_ack = true;
  build(config);
  data(0);
  EXPECT_EQ(acks.size(), 0u);  // withheld
  data(1);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].tcp.ack, 2);
}

TEST_F(ReceiverFixture, DelayedAckTimesOut) {
  ReceiverConfig config;
  config.delayed_ack = true;
  build(config);
  data(0);
  EXPECT_EQ(acks.size(), 0u);
  sched.run_until(sched.now() + sim::Duration::millis(150));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].tcp.ack, 1);
}

TEST_F(ReceiverFixture, DelayedAckBypassedByOutOfOrder) {
  ReceiverConfig config;
  config.delayed_ack = true;
  build(config);
  data(0);
  data(2);  // out of order: must ACK immediately
  ASSERT_GE(acks.size(), 1u);
  EXPECT_EQ(acks.back().tcp.ack, 1);
}

// FNV-1a fold of the payload words of segments [begin, end), in order.
std::uint64_t payload_hash(net::SeqNo begin, net::SeqNo end) {
  std::uint64_t hash = util::kFnvOffsetBasis;
  for (net::SeqNo s = begin; s < end; ++s) {
    hash = util::fnv1a_u64(hash, util::payload_word(1, s));
  }
  return hash;
}

TEST_F(ReceiverFixture, FarAheadSegmentThenGapFilledInReverse) {
  // A segment 1000 past rcv_next stretches the out-of-order buffer over
  // the whole gap; filling it top-down grows one SACK block downward
  // until the last hole releases everything in order.
  receiver->enable_delivery_validation();
  for (int i = 0; i < 5; ++i) data(i);
  data(1005);
  EXPECT_EQ(receiver->ooo_buffered(), 1u);
  EXPECT_EQ(receiver->stats().max_reorder_extent, 1000);
  for (net::SeqNo s = 1004; s >= 6; --s) {
    data(s);
    ASSERT_EQ(acks.back().tcp.ack, 5);
    ASSERT_EQ(acks.back().tcp.sack.size(), 1u);
    EXPECT_EQ(acks.back().tcp.sack[0].begin, s);
    EXPECT_EQ(acks.back().tcp.sack[0].end, 1006);
  }
  EXPECT_EQ(receiver->ooo_buffered(), 1000u);
  data(1005);  // a buffered segment again: duplicate, DSACKed, not re-added
  EXPECT_EQ(receiver->stats().duplicates, 1u);
  ASSERT_TRUE(acks.back().tcp.dsack.has_value());
  EXPECT_EQ(acks.back().tcp.dsack->begin, 1005);
  EXPECT_EQ(receiver->ooo_buffered(), 1000u);
  data(5);
  EXPECT_EQ(acks.back().tcp.ack, 1006);
  EXPECT_TRUE(acks.back().tcp.sack.empty());
  EXPECT_TRUE(receiver->sack_blocks().empty());
  EXPECT_EQ(receiver->ooo_buffered(), 0u);
  EXPECT_EQ(receiver->delivered_hash(), payload_hash(0, 1006));
  data(700);  // inside the delivered range
  EXPECT_EQ(receiver->stats().duplicates, 2u);
  EXPECT_EQ(receiver->rcv_next(), 1006);
}

TEST_F(ReceiverFixture, ResumeAtThenOutOfOrderArrivals) {
  receiver->enable_delivery_validation();
  receiver->resume_at(100);
  data(102);
  EXPECT_EQ(acks.back().tcp.ack, 100);
  EXPECT_EQ(receiver->ooo_buffered(), 1u);
  EXPECT_EQ(receiver->stats().max_reorder_extent, 2);
  data(101);
  ASSERT_EQ(acks.back().tcp.sack.size(), 1u);
  EXPECT_EQ(acks.back().tcp.sack[0].begin, 101);
  EXPECT_EQ(acks.back().tcp.sack[0].end, 103);
  EXPECT_EQ(receiver->ooo_buffered(), 2u);
  data(99);  // below the resume point: a duplicate
  EXPECT_EQ(receiver->stats().duplicates, 1u);
  EXPECT_EQ(acks.back().tcp.ack, 100);
  EXPECT_EQ(receiver->ooo_buffered(), 2u);
  data(100);
  EXPECT_EQ(acks.back().tcp.ack, 103);
  EXPECT_TRUE(acks.back().tcp.sack.empty());
  EXPECT_EQ(receiver->ooo_buffered(), 0u);
  // The hash covers only what this incarnation delivered.
  EXPECT_EQ(receiver->delivered_hash(), payload_hash(100, 103));
}

TEST_F(ReceiverFixture, AcksAreRoutedToSender) {
  data(0);
  sched.run();
  EXPECT_EQ(sink->packets(), 1u);  // the ACK arrived at node a
}

TEST_F(ReceiverFixture, IgnoresStrayAcks) {
  net::Packet stray;
  stray.type = net::PacketType::kTcpAck;
  stray.tcp.flow = kFlow;
  receiver->deliver(std::move(stray));
  EXPECT_EQ(receiver->stats().data_packets_received, 0u);
}

}  // namespace
}  // namespace tcppr::tcp
