// Unit tests for the batched hot-path building blocks: the PacketBatch
// carrier, the PacketPool bulk alloc/free API (generation-tag safety
// across bulk cycles), the queue batch operations, and the link-level
// op-order invariant on jittered lossy links (the loss lottery runs at
// transmission completion, strictly after that hop's next-transmission
// mint — regression for the stamped schedule-op ordering).
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

TEST(PacketBatch, PushIndexAndSeq) {
  PacketBatch batch;
  EXPECT_TRUE(batch.empty());
  for (int i = 0; i < 3; ++i) {
    Packet pkt = make_packet(0, 100);
    pkt.tcp.seq = i;
    batch.push(std::move(pkt), static_cast<std::uint64_t>(1000 + i));
  }
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch[i].tcp.seq, static_cast<SeqNo>(i));
    EXPECT_EQ(batch.seq(i), 1000 + i);
  }
}

TEST(PacketBatch, GrowsPastInlineCapacityAndMoves) {
  PacketBatch batch;
  const std::size_t n = PacketBatch::kInline * 3 + 1;
  for (std::size_t i = 0; i < n; ++i) {
    Packet pkt = make_packet(0, 100);
    pkt.tcp.seq = static_cast<SeqNo>(i);
    batch.push(std::move(pkt), i);
  }
  ASSERT_EQ(batch.size(), n);
  // Move (heap case) and verify contents survive.
  PacketBatch moved = std::move(batch);
  EXPECT_EQ(batch.size(), 0u);
  ASSERT_EQ(moved.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(moved[i].tcp.seq, static_cast<SeqNo>(i));
    EXPECT_EQ(moved.seq(i), i);
  }
  // Move the inline case too.
  PacketBatch small;
  small.push(make_packet(2, 40), 7);
  PacketBatch small_moved = std::move(small);
  EXPECT_EQ(small.size(), 0u);
  ASSERT_EQ(small_moved.size(), 1u);
  EXPECT_EQ(small_moved[0].dst, 2);
  EXPECT_EQ(small_moved.seq(0), 7u);
  // And pushing into the moved-from batch works again.
  small.push(make_packet(3, 50));
  EXPECT_EQ(small.size(), 1u);
}

TEST(PacketPool, BulkAllocFreeRecyclesSlots) {
  auto pool = PacketPool::create();
  PacketPool::Ref refs[16];
  pool->alloc_n(16, refs);
  EXPECT_EQ(pool->allocated(), 16u);
  EXPECT_EQ(pool->idle(), 0u);
  for (const auto& r : refs) EXPECT_TRUE(pool->current(r));
  pool->free_n(refs, 16);
  EXPECT_EQ(pool->idle(), 16u);
  // A second cycle reuses the same slots, no new storage.
  PacketPool::Ref again[16];
  pool->alloc_n(16, again);
  EXPECT_EQ(pool->allocated(), 16u);
  pool->free_n(again, 16);
}

TEST(PacketPool, GenerationTagsInvalidateStaleRefsAcrossBulkCycles) {
  auto pool = PacketPool::create();
  PacketPool::Ref first[4];
  pool->alloc_n(4, first);
  pool->free_n(first, 4);
  // The slots were recycled: the old refs must now read as stale, and the
  // fresh refs for the same physical slots as current.
  PacketPool::Ref second[4];
  pool->alloc_n(4, second);
  for (const auto& r : first) EXPECT_FALSE(pool->current(r));
  for (const auto& r : second) EXPECT_TRUE(pool->current(r));
  // adopt() binds a bulk slot to a PooledPacket whose destruction releases
  // it — bumping the generation exactly like free_n.
  const PacketPool::Ref kept = second[0];
  {
    PooledPacket p = pool->adopt(second[0], make_packet(1, 100));
    EXPECT_EQ(p->dst, 1);
  }
  EXPECT_FALSE(pool->current(kept));
  pool->free_n(second + 1, 3);
}

TEST(PacketPool, MixedSingleAndBulkCyclesStaySafe) {
  auto pool = PacketPool::create();
  PooledPacket single = pool->make(make_packet(1, 100));
  PacketPool::Ref refs[8];
  pool->alloc_n(8, refs);
  // The single allocation's slot must not be handed out by the bulk API.
  std::vector<PooledPacket> adopted;
  for (auto& r : refs) adopted.push_back(pool->adopt(r, make_packet(2, 50)));
  for (auto& p : adopted) EXPECT_NE(p.get(), single.get());
  adopted.clear();
  for (const auto& r : refs) EXPECT_FALSE(pool->current(r));
  EXPECT_EQ(*&single->dst, 1);
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

TEST(DropTailQueue, BatchDequeueDrainsInOrder) {
  DropTailQueue q(10);
  for (int i = 0; i < 6; ++i) {
    Packet pkt = make_packet(0, 100 + i);
    pkt.tcp.seq = i;
    ASSERT_TRUE(q.enqueue(std::move(pkt)));
  }
  PacketBatch out;
  EXPECT_EQ(q.dequeue_batch(4, out), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].tcp.seq, static_cast<SeqNo>(i));
  }
  EXPECT_EQ(q.length_packets(), 2u);
  // Asking for more than remains returns what's there.
  PacketBatch rest;
  EXPECT_EQ(q.dequeue_batch(10, rest), 2u);
  EXPECT_EQ(q.stats().dequeued, 6u);
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

// Collects the exact arrival sequence at the far node.
class RecordingAgent final : public Agent {
 public:
  void deliver(Packet&& pkt) override {
    arrivals.push_back({pkt.tcp.seq, pkt.hops});
  }
  std::vector<std::pair<SeqNo, int>> arrivals;
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
std::vector<std::pair<SeqNo, int>> run_jittered_lossy(bool batching) {
  sim::Scheduler sched;
  sched.enable_seq_stamping();
  Network network(sched);
  if (!batching) network.disable_batching();
  const NodeId a = network.add_node();
  const NodeId b = network.add_node();
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = sim::Duration::millis(5);
  cfg.queue_limit_packets = 1000;
  Link& ab = network.add_link(a, b, cfg);
  network.compute_static_routes();
  ab.set_loss_model(0.2, sim::Rng(42));
  ab.set_jitter(sim::Duration::millis(8), sim::Rng(43));

  RecordingAgent agent;
  network.node(b).attach_agent(/*flow=*/1, &agent);
  for (int i = 0; i < 400; ++i) {
    Packet pkt = make_packet(b, 500);
    pkt.tcp.seq = i;
    network.node(a).originate(std::move(pkt));
  }
  sched.run();
  network.node(b).detach_agent(1);
  return agent.arrivals;
}

TEST(LinkOpOrder, JitteredLossyDeliverySequenceMatchesUnbatched) {
  const auto unbatched = run_jittered_lossy(false);
  const auto batched = run_jittered_lossy(true);
  // Losses happened (the lottery ran) and jitter reordered arrivals
  // (the merge-sorted ring actually exercised), yet the sequences agree
  // exactly.
  ASSERT_FALSE(unbatched.empty());
  EXPECT_LT(unbatched.size(), 400u);
  bool reordered = false;
  for (std::size_t i = 1; i < unbatched.size(); ++i) {
    if (unbatched[i].first < unbatched[i - 1].first) reordered = true;
  }
  EXPECT_TRUE(reordered);
  EXPECT_EQ(batched, unbatched);
}

}  // namespace
}  // namespace tcppr::net
