#include "net/link.hpp"

#include <utility>

#include "net/node.hpp"
#include "telemetry/reorder_tap.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace tcppr::net {

Link::Link(sim::Scheduler& sched, NodeId from, NodeId to, double bandwidth_bps,
           sim::Duration prop_delay, std::unique_ptr<Queue> queue)
    : sched_(&sched),
      from_(from),
      to_(to),
      bandwidth_bps_(bandwidth_bps),
      prop_delay_(prop_delay),
      queue_(std::move(queue)),
      loss_rng_(0),
      jitter_rng_(0),
      delivery_{&sched} {
  TCPPR_CHECK(bandwidth_bps_ > 0);
  TCPPR_CHECK(prop_delay_ >= sim::Duration::zero());
  TCPPR_CHECK(queue_ != nullptr);
  queue_->set_time_source(sched_, bandwidth_bps_);
}

void Link::set_scheduler(sim::Scheduler& sched) {
  TCPPR_CHECK(!busy_ && in_transit_ == 0);
  sched_ = &sched;
  delivery_.sched = &sched;
  queue_->set_time_source(sched_, bandwidth_bps_);
}

void Link::set_delivery_side(sim::Scheduler& sched, LinkPump* pump) {
  TCPPR_CHECK(ring_.empty());
  TCPPR_CHECK(pump == nullptr || &pump->scheduler() == &sched);
  delivery_ = DeliverySide{&sched, pump, pump ? pump->add_link(this) : 0};
}

void Link::set_remote_channel(CrossLinkChannel* channel) {
  remote_ = channel;
  if (channel != nullptr) {
    TCPPR_CHECK(prop_delay_ > sim::Duration::zero());
    lookahead_frozen_ = true;
    frozen_lookahead_ = prop_delay_;
  } else {
    lookahead_frozen_ = false;
  }
}

void Link::set_loss_model(double loss_rate, sim::Rng rng) {
  TCPPR_CHECK(loss_rate >= 0 && loss_rate < 1);
  loss_rate_ = loss_rate;
  loss_rng_ = rng;
}

void Link::set_bandwidth(double bandwidth_bps) {
  TCPPR_CHECK(bandwidth_bps > 0);
  bandwidth_bps_ = bandwidth_bps;
  // In-progress transmissions keep their already-scheduled completion
  // time; only future dequeues see the new rate.
  queue_->set_time_source(sched_, bandwidth_bps_);
}

void Link::set_jitter(sim::Duration max_jitter, sim::Rng rng) {
  TCPPR_CHECK(max_jitter >= sim::Duration::zero());
  max_jitter_ = max_jitter;
  jitter_rng_ = rng;
}

void Link::set_pump(LinkPump* pump) {
  TCPPR_CHECK(!busy_ && in_transit_ == 0);
  TCPPR_CHECK(pump == nullptr || &pump->scheduler() == sched_);
  pump_ = pump;
  if (pump_ != nullptr) pump_id_ = pump_->add_link(this);
  delivery_ = DeliverySide{sched_, pump_, pump_id_};
}

void Link::detach_pump() {
  pump_ = nullptr;
  delivery_.pump = nullptr;
  tx_pending_ = false;
  tx_pkt_.reset();
  ring_.clear();
}

void Link::send(Packet&& pkt) {
  if (down_ || (drop_filter_ && drop_filter_(pkt))) {
    ++stats_.lost;
    if (tracer_) {
      tracer_->emit(sched_->now(), trace::EventType::kLossDrop, pkt, from_,
                    to_);
    }
    return;
  }
  pkt.enqueued_at = sched_->now();
  if (tracer_ != nullptr && tracer_->active()) {
    // The queue consumes the packet either way; keep a copy so a rejection
    // can still be traced.
    Packet copy = pkt;
    const bool accepted = queue_->enqueue(std::move(pkt));
    tracer_->emit(sched_->now(),
                  accepted ? trace::EventType::kEnqueue
                           : trace::EventType::kQueueDrop,
                  copy, from_, to_);
    if (!accepted) return;
  } else if (!queue_->enqueue(std::move(pkt))) {
    return;
  }
  if (!busy_) start_transmission();
}

PacketPool& Link::pool() {
  if (pool_ == nullptr) pool_ = PacketPool::create();
  return *pool_;
}

void Link::start_transmission() {
  if (queue_->length_packets() == 0) {
    busy_ = false;
    return;
  }
  // Dequeue straight into a recycled pool slot: dequeue_into overwrites
  // the slot wholesale, so the ~300-byte Packet moves once instead of
  // bouncing through an optional and a second pool move.
  PooledPacket pkt = pool().checkout();
  const bool dequeued = queue_->dequeue_into(*pkt);
  TCPPR_DCHECK(dequeued);
  (void)dequeued;
  busy_ = true;
  ++in_transit_;
  if (tracer_ != nullptr && tracer_->active()) {
    tracer_->emit(sched_->now(), trace::EventType::kDequeue, *pkt, from_, to_);
  }
  const double tx_seconds =
      static_cast<double>(pkt->size_bytes) * 8.0 / bandwidth_bps_;
  const sim::TimePoint at =
      sched_->now() + sim::Duration::seconds(tx_seconds);
  const std::uint64_t seq =
      sched_->mint_seq(static_cast<std::uint32_t>(from_));
  last_tx_mint_valid_ = true;
  last_tx_mint_ = PumpKey{sched_->now(), seq};
  if (pump_ != nullptr) {
    tx_pending_ = true;
    tx_key_ = PumpKey{at, seq};
    tx_pkt_ = std::move(pkt);
    pump_->push_op(tx_key_, pump_id_, PumpOp::kTxComplete);
    return;
  }
  // The packet rides the scheduler in its pool slot: the {this, pooled
  // pointer} capture fits the event slot's inline callback buffer, so the
  // completion event allocates nothing.
  sched_->schedule_at_stamped(at, seq, [this, p = std::move(pkt)]() mutable {
    on_tx_complete(std::move(p));
  });
}

void Link::on_tx_complete(PooledPacket pkt) {
  // Transmitter is free: begin the next packet (if any) before modelling
  // this packet's propagation.
  start_transmission();
  complete_packet(std::move(pkt));
}

void Link::pump_run_tx() {
  TCPPR_DCHECK(tx_pending_);
  tx_pending_ = false;
  PooledPacket p = std::move(tx_pkt_);
  start_transmission();
  complete_packet(std::move(p));
}

void Link::complete_packet(PooledPacket pkt) {
  if (loss_rate_ > 0 && loss_rng_.bernoulli(loss_rate_)) {
    ++stats_.lost;
    ++stats_.loss_model_lost;
    --in_transit_;
    if (tracer_ != nullptr) {
      tracer_->emit(sched_->now(), trace::EventType::kLossDrop, *pkt, from_,
                    to_);
    }
    return;  // pkt returns to the pool
  }
  ++pkt->hops;
  sim::Duration delivery_delay = prop_delay_;
  if (max_jitter_ > sim::Duration::zero()) {
    delivery_delay +=
        max_jitter_ * jitter_rng_.uniform();  // may reorder deliveries
  }
  if (remote_ != nullptr) {
    // Cut link: the destination node lives on another shard. Source-side
    // bookkeeping happens now (delivery is certain once the loss lottery
    // above passed), the packet rides the mailbox, and the stamp minted
    // here occupies exactly the op position the delivery-schedule call
    // below holds in the sequential run — so the delivery, scheduled on
    // the destination side at the barrier, ties against local ops the
    // same way the sequential scheduler would have broken them.
    ++stats_.delivered;
    stats_.bytes_delivered += pkt->size_bytes;
    if (!skip_transit_decrement_) --in_transit_;
    ++remote_->pushed;
    remote_->buf.push_back(
        CrossLinkMsg{sched_->now() + delivery_delay,
                     sched_->make_stamp(static_cast<std::uint32_t>(from_)),
                     std::move(*pkt)});
    return;  // the pooled shell returns to this shard's pool
  }
  const sim::TimePoint at = sched_->now() + delivery_delay;
  const std::uint64_t seq =
      sched_->mint_seq(static_cast<std::uint32_t>(from_));
  // Op-order invariant (the schedule batching preserves): the delivery op
  // minted after this packet's loss lottery sorts after the next-packet
  // transmission op minted before it. Stamps embed the mint instant and a
  // per-(node, instant) counter, the legacy counter is globally monotone —
  // either way later mints sort later; assert it rather than assume it.
  TCPPR_DCHECK(!last_tx_mint_valid_ || last_tx_mint_.at != sched_->now() ||
               seq > last_tx_mint_.seq);
  schedule_delivery(at, seq, std::move(pkt));
}

void Link::deliver_one(PooledPacket p) {
  if (remote_ != nullptr) {
    // Runs on the destination LP: the source LP owns stats_ and
    // in_transit_, which it settled at push time.
    ++remote_->executed;
  } else {
    ++stats_.delivered;
    stats_.bytes_delivered += p->size_bytes;
    if (!skip_transit_decrement_) --in_transit_;
  }
  if (tap_ != nullptr) tap_->on_deliver(*p);
  TCPPR_DCHECK(dst_node_ != nullptr);
  dst_node_->receive(std::move(*p));
  // p's release into the pool recycles the packet for the next hop.
}

void Link::schedule_delivery(sim::TimePoint at, std::uint64_t seq,
                             PooledPacket pkt) {
  if (delivery_.pump == nullptr) {
    delivery_.sched->schedule_at_stamped(
        at, seq,
        [this, p = std::move(pkt)]() mutable { deliver_one(std::move(p)); });
    return;
  }
  ring_.push_back(DeliveryEntry{at, seq, std::move(pkt)});
  // Merge position: in-order deliveries (the common case — jitter-free
  // links mint nondecreasing keys) append in O(1); a jittered early
  // arrival swaps backward to its slot, keeping the ring the sorted merge
  // of the link's delivery stream.
  std::size_t i = ring_.size() - 1;
  while (i > 0 && (at < ring_[i - 1].at ||
                   (at == ring_[i - 1].at && seq < ring_[i - 1].seq))) {
    std::swap(ring_[i], ring_[i - 1]);
    --i;
  }
  if (i == 0) {
    // New head (first entry, or an early arrival that overtook the old
    // head — whose index entry in the pump goes stale).
    delivery_.pump->push_op(PumpKey{at, seq}, delivery_.pump_id,
                            PumpOp::kDeliver);
  }
}

void Link::pump_run_delivery() {
  TCPPR_DCHECK(!ring_.empty());
  DeliveryEntry head = ring_.pop_front();
  deliver_one(std::move(head.pkt));
  if (!ring_.empty()) {
    delivery_.pump->push_op(PumpKey{ring_.front().at, ring_.front().seq},
                            delivery_.pump_id, PumpOp::kDeliver);
  }
}

void Link::send_batch(PacketBatch& batch, std::size_t begin, std::size_t end) {
  std::size_t i = begin;
  for (; i < end && !busy_; ++i) send(std::move(batch[i]));
  if (i >= end) return;
  if (down_ || drop_filter_ || (tracer_ != nullptr && tracer_->active())) {
    // Entry drops and per-packet trace records need the full per-packet
    // path; these are cold configurations (fault injection, tracing runs).
    for (; i < end; ++i) send(std::move(batch[i]));
    return;
  }
  // Transmitter busy and nothing can drop at entry: no dequeue can
  // interleave with these admissions, so the queue takes the whole
  // remainder in one batched call (identical per-packet decisions).
  for (std::size_t k = i; k < end; ++k) batch[k].enqueued_at = sched_->now();
  queue_->enqueue_batch(batch, i, end);
}

}  // namespace tcppr::net
