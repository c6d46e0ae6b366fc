// Unit tests for the batched hot-path building blocks: the PacketBatch
// burst carrier, single-slot PacketPool recycling and lifetime, the queue
// burst admission and FIFO service, and the link-level op-order invariant
// on jittered lossy links (the loss lottery runs at transmission
// completion, strictly after that hop's next-transmission mint —
// regression for the stamped schedule-op ordering), including
// back-to-back deliveries that land on one instant.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/link_pump.hpp"
#include "net/network.hpp"
#include "net/packet_batch.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
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

TEST(PacketBatch, PushAndIndex) {
  PacketBatch batch;
  EXPECT_TRUE(batch.empty());
  for (int i = 0; i < 3; ++i) {
    Packet pkt = make_packet(0, 100);
    pkt.tcp.seq = i;
    batch.push(std::move(pkt));
  }
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch[i].tcp.seq, static_cast<SeqNo>(i));
  }
}

TEST(PacketBatch, GrowsPastInlineCapacityAndMoves) {
  PacketBatch batch;
  const std::size_t n = PacketBatch::kInline * 3 + 1;
  for (std::size_t i = 0; i < n; ++i) {
    Packet pkt = make_packet(0, 100);
    pkt.tcp.seq = static_cast<SeqNo>(i);
    batch.push(std::move(pkt));
  }
  ASSERT_EQ(batch.size(), n);
  // Move (heap case) and verify contents survive.
  PacketBatch moved = std::move(batch);
  EXPECT_EQ(batch.size(), 0u);
  ASSERT_EQ(moved.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(moved[i].tcp.seq, static_cast<SeqNo>(i));
  }
  // Move the inline case too.
  PacketBatch small;
  small.push(make_packet(2, 40));
  PacketBatch small_moved = std::move(small);
  EXPECT_EQ(small.size(), 0u);
  ASSERT_EQ(small_moved.size(), 1u);
  EXPECT_EQ(small_moved[0].dst, 2);
  // And pushing into the moved-from batch works again.
  small.push(make_packet(3, 50));
  EXPECT_EQ(small.size(), 1u);
}

TEST(PacketPool, SingleSlotReleaseRecyclesSlots) {
  auto pool = PacketPool::create();
  Packet* first = nullptr;
  {
    PooledPacket a = pool->make(make_packet(1, 100));
    PooledPacket b = pool->checkout();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->dst, 1);
    first = a.get();
    EXPECT_EQ(pool->allocated(), 2u);
    EXPECT_EQ(pool->idle(), 0u);
  }
  // Both slots came back; the next checkouts reuse them, no new storage.
  EXPECT_EQ(pool->idle(), 2u);
  PooledPacket c = pool->make(make_packet(2, 50));
  PooledPacket d = pool->checkout();
  EXPECT_EQ(pool->allocated(), 2u);
  EXPECT_TRUE(c.get() == first || d.get() == first);
  EXPECT_EQ(c->dst, 2);
}

TEST(PacketPool, PooledPacketOutlivesItsPoolHandle) {
  // A PooledPacket's deleter shares ownership of the pool, so a packet
  // still held after the last outside handle drops (a pending callback
  // outliving its network) stays readable and releases into live memory.
  std::weak_ptr<PacketPool> weak;
  {
    PooledPacket held;
    {
      auto pool = PacketPool::create();
      weak = pool;
      held = pool->make(make_packet(4, 60));
    }
    EXPECT_FALSE(weak.expired());
    EXPECT_EQ(held->dst, 4);
    EXPECT_EQ(held->size_bytes, 60u);
  }
  EXPECT_TRUE(weak.expired());
}

TEST(DropTailQueue, BatchEnqueueAcceptsPrefixDropsOverflow) {
  DropTailQueue q(5);
  PacketBatch batch;
  for (int i = 0; i < 8; ++i) {
    Packet pkt = make_packet(0, 100);
    pkt.tcp.seq = i;
    batch.push(std::move(pkt));
  }
  EXPECT_EQ(q.enqueue_batch(batch, 0, batch.size()), 5u);
  EXPECT_EQ(q.stats().enqueued, 5u);
  EXPECT_EQ(q.stats().dropped, 3u);
  EXPECT_EQ(q.length_packets(), 5u);
  EXPECT_EQ(q.length_bytes(), 500u);
  // FIFO order is preserved.
  for (int i = 0; i < 5; ++i) {
    auto pkt = q.dequeue();
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->tcp.seq, i);
  }
}

TEST(DropTailQueue, DequeueIntoDrainsInOrder) {
  // The link's service path: each head is moved into a freshly checked-out
  // pool slot whose stale contents dequeue_into must overwrite wholesale.
  DropTailQueue q(10);
  for (int i = 0; i < 6; ++i) {
    Packet pkt = make_packet(0, 100 + i);
    pkt.tcp.seq = i;
    ASSERT_TRUE(q.enqueue(std::move(pkt)));
  }
  auto pool = PacketPool::create();
  {
    PooledPacket stale = pool->make(make_packet(9, 1500, /*flow=*/7));
  }
  for (int i = 0; i < 4; ++i) {
    PooledPacket slot = pool->checkout();
    ASSERT_TRUE(q.dequeue_into(*slot));
    EXPECT_EQ(slot->tcp.seq, i);
    EXPECT_EQ(slot->size_bytes, static_cast<std::uint32_t>(100 + i));
    EXPECT_EQ(slot->dst, 0);
    EXPECT_EQ(slot->tcp.flow, 1);
  }
  EXPECT_EQ(pool->allocated(), 1u);
  EXPECT_EQ(q.length_packets(), 2u);
  EXPECT_EQ(q.length_bytes(), 104u + 105u);
  Packet out;
  ASSERT_TRUE(q.dequeue_into(out));
  EXPECT_EQ(out.tcp.seq, 4);
  ASSERT_TRUE(q.dequeue_into(out));
  EXPECT_EQ(out.tcp.seq, 5);
  // An empty queue reports false and leaves the target as it was.
  EXPECT_FALSE(q.dequeue_into(out));
  EXPECT_EQ(out.tcp.seq, 5);
  EXPECT_EQ(q.stats().dequeued, 6u);
  EXPECT_EQ(q.stats().bytes_dequeued, 100u + 101u + 102u + 103u + 104u + 105u);
  EXPECT_EQ(q.length_bytes(), 0u);
}

TEST(DropTailQueue, ByteCappedBatchEnqueueMatchesPerPacket) {
  // With a byte cap the bulk fast path is ineligible; the base-class
  // fallback must behave exactly like per-packet enqueue.
  DropTailQueue bulk(10, /*limit_bytes=*/350);
  DropTailQueue ref(10, /*limit_bytes=*/350);
  PacketBatch batch;
  for (int i = 0; i < 5; ++i) {
    batch.push(make_packet(0, 100));
    ref.enqueue(make_packet(0, 100));
  }
  bulk.enqueue_batch(batch, 0, batch.size());
  EXPECT_EQ(bulk.stats().enqueued, ref.stats().enqueued);
  EXPECT_EQ(bulk.stats().dropped, ref.stats().dropped);
  EXPECT_EQ(bulk.length_bytes(), ref.length_bytes());
}

TEST(RedQueue, BatchEnqueueKeepsPerPacketLottery) {
  // RED inherits the per-packet default (the drop lottery consumes RNG
  // per packet): batch enqueue must leave the same queue state as the
  // same arrivals fed one at a time.
  RedQueue::Params params;
  params.limit_packets = 100;
  params.min_thresh = 5;
  params.max_thresh = 15;
  params.weight = 0.5;
  RedQueue batched_q(params, sim::Rng(7));
  RedQueue ref_q(params, sim::Rng(7));
  PacketBatch batch;
  for (int i = 0; i < 50; ++i) {
    batch.push(make_packet(0, 100));
    ref_q.enqueue(make_packet(0, 100));
  }
  batched_q.enqueue_batch(batch, 0, batch.size());
  EXPECT_EQ(batched_q.stats().enqueued, ref_q.stats().enqueued);
  EXPECT_EQ(batched_q.stats().dropped, ref_q.stats().dropped);
  EXPECT_EQ(batched_q.length_packets(), ref_q.length_packets());
}

// --- Link op-order regression (jitter + loss lottery) -----------------

// One arrival at the far node: (seq, hops, delivery time in ns).
struct Arrival {
  SeqNo seq;
  int hops;
  std::int64_t at_ns;
  bool operator==(const Arrival&) const = default;
};

// Collects the exact arrival sequence at the far node.
class RecordingAgent final : public Agent {
 public:
  explicit RecordingAgent(const sim::Scheduler& sched) : sched_(sched) {}
  void deliver(Packet&& pkt) override {
    arrivals.push_back({pkt.tcp.seq, pkt.hops, sched_.now().as_nanos()});
  }
  std::vector<Arrival> arrivals;

 private:
  const sim::Scheduler& sched_;
};

// One jittered, lossy link driven to saturation. The invariant under
// test: per (node, instant), the scheduler op minted for the *next*
// transmission precedes the op minted for the completed packet's
// delivery — the loss lottery (and jitter draw) sit between the two, so
// any swap reorders the RNG stream and the delivery schedule. The
// batched pump replays exactly that mint order; with TCPPR_DCHECK on,
// Link::complete_packet asserts the delivery mint lands after the
// stamped next-tx op. Equal arrival sequences batched vs unbatched are
// the observable witness.
//
// With zero_tx_time the link is fast enough that a 40-byte packet's
// transmission time truncates to 0 ns and the jitter spans only 3 ns, so
// the whole burst leaves at t = 0 and lands on a few shared instants:
// back-to-back deliveries that the pump executes one op at a time.
std::vector<Arrival> run_jittered_lossy(bool batching,
                                        bool zero_tx_time = false) {
  sim::Scheduler sched;
  sched.enable_seq_stamping();
  Network network(sched);
  if (!batching) network.disable_batching();
  const NodeId a = network.add_node();
  const NodeId b = network.add_node();
  LinkConfig cfg;
  cfg.bandwidth_bps = zero_tx_time ? 1e12 : 8e6;
  cfg.delay = sim::Duration::millis(5);
  cfg.queue_limit_packets = 1000;
  Link& ab = network.add_link(a, b, cfg);
  network.compute_static_routes();
  ab.set_loss_model(0.2, sim::Rng(42));
  ab.set_jitter(zero_tx_time ? sim::Duration::nanos(3)
                             : sim::Duration::millis(8),
                sim::Rng(43));

  RecordingAgent agent(sched);
  network.node(b).attach_agent(/*flow=*/1, &agent);
  for (int i = 0; i < 400; ++i) {
    Packet pkt = make_packet(b, zero_tx_time ? 40 : 500);
    pkt.tcp.seq = i;
    network.node(a).originate(std::move(pkt));
  }
  sched.run();
  network.node(b).detach_agent(1);
  return agent.arrivals;
}

bool has_reordering(const std::vector<Arrival>& arrivals) {
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i].seq < arrivals[i - 1].seq) return true;
  }
  return false;
}

TEST(LinkOpOrder, JitteredLossyDeliverySequenceMatchesUnbatched) {
  const auto unbatched = run_jittered_lossy(false);
  const auto batched = run_jittered_lossy(true);
  // Losses happened (the lottery ran) and jitter reordered arrivals
  // (the merge-sorted ring actually exercised), yet the sequences agree
  // exactly.
  ASSERT_FALSE(unbatched.empty());
  EXPECT_LT(unbatched.size(), 400u);
  EXPECT_TRUE(has_reordering(unbatched));
  EXPECT_EQ(batched, unbatched);
}

TEST(LinkOpOrder, SameInstantDeliverySequenceMatchesUnbatched) {
  const auto unbatched = run_jittered_lossy(false, /*zero_tx_time=*/true);
  const auto batched = run_jittered_lossy(true, /*zero_tx_time=*/true);
  ASSERT_FALSE(unbatched.empty());
  EXPECT_LT(unbatched.size(), 400u);
  EXPECT_TRUE(has_reordering(unbatched));
  // Hundreds of arrivals on at most three instants (5 ms + 0..2 ns).
  EXPECT_EQ(unbatched.front().at_ns, sim::Duration::millis(5).as_nanos());
  EXPECT_LE(unbatched.back().at_ns - unbatched.front().at_ns, 2);
  EXPECT_EQ(batched, unbatched);
}

}  // namespace
}  // namespace tcppr::net
