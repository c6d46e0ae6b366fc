// Unidirectional point-to-point link: output queue + transmitter.
//
// Store-and-forward: a packet occupies the transmitter for
// size * 8 / bandwidth seconds, then arrives at the far node one
// propagation delay later. An optional Bernoulli loss model drops packets
// at the receiving end (models corruption, used by robustness tests).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/link_pump.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "util/ring_deque.hpp"

namespace tcppr::trace {
class Tracer;
}

namespace tcppr::telemetry {
class ReorderTap;
}

namespace tcppr::net {

class Node;

struct LinkStats {
  std::uint64_t delivered = 0;
  std::uint64_t bytes_delivered = 0;
  // All link-level drops: entry drops (down link / drop filter) plus
  // loss-model drops. Queue drops live in QueueStats.
  std::uint64_t lost = 0;
  std::uint64_t loss_model_lost = 0;  // subset of `lost`: Bernoulli model only
};

// Mailbox of one cut link in parallel mode: packets that finished their
// loss lottery on the source shard and are travelling toward a node owned
// by another shard. The source shard's thread appends during safe windows;
// the coordinator drains at the barrier (the window/barrier phase
// alternation is the synchronization — no locking). `stamp` is the
// tie-break sequence minted on the source shard at push time, i.e. the
// position the delivery-schedule op holds in the sequential run.
struct CrossLinkMsg {
  sim::TimePoint at;
  std::uint64_t stamp = 0;
  Packet pkt;
};
struct CrossLinkChannel {
  std::vector<CrossLinkMsg> buf;   // written by the source shard's thread
  std::uint64_t pushed = 0;        // source-thread counter
  std::uint64_t executed = 0;      // destination-thread counter
};

class Link {
 public:
  Link(sim::Scheduler& sched, NodeId from, NodeId to, double bandwidth_bps,
       sim::Duration prop_delay, std::unique_ptr<Queue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Wired once by Network after nodes exist.
  void set_destination(Node* node) { dst_node_ = node; }
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  // Telemetry tap observing this link's delivery stream (one-branch-when-
  // off, same discipline as the tracer). The tap is invoked from every
  // delivery call site — unbatched, batched, and cross-shard injected — so
  // it sees the full stream in delivery order regardless of engine mode.
  void set_telemetry_tap(telemetry::ReorderTap* tap) { tap_ = tap; }
  // Shares the network-wide recycling pool for in-flight packets. A link
  // constructed standalone (tests) lazily creates its own.
  void set_packet_pool(std::shared_ptr<PacketPool> pool) {
    pool_ = std::move(pool);
  }
  // Changes the propagation delay for future transmissions (mobility /
  // route-change models). Once the lookahead is frozen (parallel mode cut
  // link) the delay may only grow: the safe-horizon computation baked the
  // old delay in as this link's lookahead, and lowering it could let a
  // packet arrive inside an already-executed window.
  void set_prop_delay(sim::Duration delay) {
    TCPPR_CHECK(!lookahead_frozen_ || delay >= frozen_lookahead_);
    prop_delay_ = delay;
  }
  // --- Parallel-execution hooks (LP shard adoption) ----------------------
  // Re-points the link at the scheduler shard that owns its source node.
  // Only legal while idle (nothing transmitting or propagating).
  void set_scheduler(sim::Scheduler& sched);
  // Marks this link as a cut link: completed transmissions are pushed into
  // `channel` instead of being scheduled locally, and the current
  // propagation delay becomes the immutable lookahead floor.
  void set_remote_channel(CrossLinkChannel* channel);
  sim::Scheduler& scheduler() { return *sched_; }
  // Changes the drain rate for future transmissions (mid-run capacity
  // change; the fuzzer uses this to model route/handover bandwidth shifts).
  void set_bandwidth(double bandwidth_bps);
  // Random corruption loss applied on delivery.
  void set_loss_model(double loss_rate, sim::Rng rng);
  // Per-packet uniform extra delivery delay in [0, max_jitter] (wireless
  // MAC / scheduling variation). Jittered deliveries may arrive out of
  // order — an in-path reordering source independent of routing.
  void set_jitter(sim::Duration max_jitter, sim::Rng rng);
  // Deterministic drop hook (tests, failure injection): return true to
  // drop the packet at link entry.
  void set_drop_filter(std::function<bool(const Packet&)> filter) {
    drop_filter_ = std::move(filter);
  }
  // Administrative state: a down link drops everything offered to it
  // (mobility / outage models).
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  // --- Injected-arrivals ring (parallel mode cut links) ------------------
  // Cross-shard packets drained from the mailbox at a barrier park here
  // until their delivery time. Each entry gets one scheduler event on the
  // *destination* shard at the entry's exact (time, stamp) key, capturing
  // only `this`. Source-side stats and in-transit accounting already happened
  // at push time in complete_packet; delivery observation (telemetry tap,
  // node hand-off) happens on pop, at the same layer as local deliveries.
  // The pool is the destination LP's: pops run on the destination shard's
  // thread, and pools are not thread-safe.
  void set_injection_scheduler(sim::Scheduler* sched,
                               std::shared_ptr<PacketPool> pool) {
    injection_sched_ = sched;
    injection_pool_ = std::move(pool);
  }
  void queue_injected(sim::TimePoint at, std::uint64_t seq, Packet&& pkt);
  // Entries parked in the ring (counted into the conservation sweep's
  // external in-flight term alongside the mailbox residency).
  std::uint64_t injected_pending() const { return injected_.size(); }

  // Hands a packet to this link; may drop it immediately if the queue is
  // full.
  void send(Packet&& pkt);
  // Hands batch entries [begin, end) to this link in order. Packets are
  // fed one at a time while the transmitter is idle (each may start a
  // transmission, which the next admission must observe); once the
  // transmitter is busy the rest takes the bulk-enqueue path, whose
  // per-packet admission decisions are identical.
  void send_batch(PacketBatch& batch, std::size_t begin, std::size_t end);

  // --- Batched hot path (LinkPump) ---------------------------------------
  // Routes this link's packet ops (tx completions, deliveries) through the
  // pump instead of dedicated scheduler events. The pump must be bound to
  // this link's scheduler; only legal while idle. nullptr restores the
  // unbatched per-event path.
  void set_pump(LinkPump* pump);
  // Teardown variant: drops the pump wiring and any batched in-flight
  // state even when the link is mid-transmission (parallel-run
  // destruction; pending packets return to the pool).
  void detach_pump();
  // Current head key of the given op stream, or nullopt when the stream is
  // empty. The pump validates its index entries against this on every heap
  // inspection — inline, it's a pair of loads on the hot path.
  std::optional<PumpKey> pump_op_key(PumpOp op) const {
    if (op == PumpOp::kTxComplete) {
      if (!tx_pending_) return std::nullopt;
      return tx_key_;
    }
    if (ring_.empty()) return std::nullopt;
    return PumpKey{ring_.front().at, ring_.front().seq};
  }
  // Executes the pending transmission-completion op (clock already at its
  // key): frees the transmitter, starts the next transmission, then runs
  // the completed packet's loss lottery / propagation setup.
  void pump_run_tx();
  // Executes the delivery at the ring head (clock already at its key) and
  // offers the next entry, if any, to the pump as the new head.
  void pump_run_delivery();

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  sim::Duration prop_delay() const { return prop_delay_; }
  const Queue& queue() const { return *queue_; }
  const LinkStats& stats() const { return stats_; }
  // Queue drops + loss-model drops.
  std::uint64_t total_drops() const {
    return queue_->stats().dropped + stats_.lost;
  }
  // Packets dequeued into the transmitter/propagation pipeline and not yet
  // delivered or loss-dropped. Together with queue lengths this lets the
  // validation layer account for every packet in flight.
  std::uint64_t in_transit() const { return in_transit_; }
  // Test-only mutation knob: stop decrementing the in-transit counter on
  // delivery, so the conservation invariant is violated on purpose. Used
  // by the checker's mutation self-test to prove it detects corruption.
  void corrupt_transit_accounting_for_test() {
    skip_transit_decrement_ = true;
  }

 private:
  void start_transmission();
  void on_tx_complete(PooledPacket pkt);
  // Post-transmission half of a packet's journey: loss lottery, hop count,
  // jitter, then delivery scheduling (mailbox, pump ring, or dedicated
  // event). Mint order matches the unbatched engine exactly: the next
  // transmission's sequence first (start_transmission), then the loss
  // lottery draw, then this packet's delivery sequence.
  void complete_packet(PooledPacket pkt);
  // Delivery epilogue for one packet: stats, in-transit accounting, node
  // hand-off.
  void deliver_one(PooledPacket p);
  // Pops the injected-ring head (the entry whose event just fired) and
  // hands it to the destination node.
  void pop_injected();
  // Sorted insert into the delivery ring (merge position by (at, seq);
  // append is O(1) for in-order deliveries, jittered ones swap backward).
  void insert_delivery(sim::TimePoint at, std::uint64_t seq,
                       PooledPacket pkt);
  PacketPool& pool();

  sim::Scheduler* sched_;
  NodeId from_;
  NodeId to_;
  double bandwidth_bps_;
  sim::Duration prop_delay_;
  CrossLinkChannel* remote_ = nullptr;
  bool lookahead_frozen_ = false;
  sim::Duration frozen_lookahead_ = sim::Duration::zero();
  std::unique_ptr<Queue> queue_;
  std::shared_ptr<PacketPool> pool_;
  Node* dst_node_ = nullptr;
  bool busy_ = false;
  bool down_ = false;
  bool skip_transit_decrement_ = false;  // mutation self-test only
  std::uint64_t in_transit_ = 0;
  double loss_rate_ = 0.0;
  sim::Rng loss_rng_;
  sim::Duration max_jitter_ = sim::Duration::zero();
  sim::Rng jitter_rng_;
  std::function<bool(const Packet&)> drop_filter_;
  trace::Tracer* tracer_ = nullptr;
  telemetry::ReorderTap* tap_ = nullptr;
  LinkStats stats_;

  // --- Batched hot path state --------------------------------------------
  LinkPump* pump_ = nullptr;
  std::uint32_t pump_id_ = 0;
  // Pending transmission-completion op (at most one; the transmitter is
  // serial).
  bool tx_pending_ = false;
  PumpKey tx_key_{};
  PooledPacket tx_pkt_{};
  // Pending deliveries in (at, seq) order.
  struct DeliveryEntry {
    sim::TimePoint at;
    std::uint64_t seq;
    PooledPacket pkt;
  };
  util::RingDeque<DeliveryEntry> ring_;
  // Cross-shard arrivals parked until their delivery time, in (at, seq)
  // order. Popped by per-entry events on injection_sched_ (the destination
  // node's shard).
  struct InjectedEntry {
    sim::TimePoint at;
    std::uint64_t seq = 0;
    Packet pkt;
  };
  util::RingDeque<InjectedEntry> injected_;
  sim::Scheduler* injection_sched_ = nullptr;
  std::shared_ptr<PacketPool> injection_pool_;
  // Mint-order bookkeeping: the last transmission-schedule op minted, used
  // to assert that a delivery op minted in the same instant (i.e. after
  // the loss lottery that follows the mint) sorts after it — the op-order
  // invariant batching relies on.
  bool last_tx_mint_valid_ = false;
  PumpKey last_tx_mint_{};
};

}  // namespace tcppr::net
