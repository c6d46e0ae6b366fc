// TCP receiver (sink): cumulative ACKs, SACK (RFC 2018) and DSACK
// (RFC 2883) generation, optional delayed ACKs, timestamp echo.
//
// TCP-PR needs nothing beyond cumulative ACKs — one of its selling points —
// but the baseline senders and the [Blanton-Allman] mitigations consume the
// SACK/DSACK options, so one receiver serves every variant.
#pragma once

#include <cstdint>
#include <functional>
#include <list>

#include "net/network.hpp"
#include "net/node.hpp"
#include "obs/probe.hpp"
#include "sim/scheduler.hpp"
#include "tcp/types.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/ring_deque.hpp"

namespace tcppr::tcp {

struct ReceiverConfig {
  bool generate_sack = true;
  bool generate_dsack = true;
  bool echo_timestamps = true;
  bool delayed_ack = false;  // ACK every 2nd segment or after 100 ms
  sim::Duration delack_timeout = sim::Duration::millis(100);
  std::uint32_t ack_bytes = 40;
  std::uint32_t segment_bytes = 1000;  // for goodput accounting
  int max_sack_blocks = 3;
};

class Receiver final : public net::Agent {
 public:
  Receiver(net::Network& network, net::NodeId local, net::NodeId remote,
           FlowId flow, ReceiverConfig config = {});
  ~Receiver() override;

  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  void deliver(net::Packet&& pkt) override;

  const ReceiverStats& stats() const { return stats_; }
  FlowId flow() const { return flow_; }
  net::NodeId local_node() const { return local_; }
  SeqNo rcv_next() const { return rcv_next_; }
  // Starts the cumulative-ACK point mid-stream. The workload layer uses
  // this when it re-creates a receiver for a flow whose previous receiver
  // was idle-reaped while the sender was still retrying: resuming at the
  // reaped incarnation's high-water mark lets the retransmission be ACKed
  // forward instead of stale-ACKed at zero forever. Only valid on a fresh
  // receiver, before any segment has been delivered.
  void resume_at(SeqNo next) {
    TCPPR_DCHECK(rcv_next_ == 0 && above_.empty());
    rcv_next_ = next;
  }

  // Re-points the receiver (and its delayed-ACK timer) at the scheduler
  // shard owning its node. Parallel-mode adoption only; call before the
  // simulation runs.
  void rebind_scheduler(sim::Scheduler& shard) {
    sched_override_ = &shard;
    delack_timer_.rebind(shard);
    delack_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_));
  }
  // Count of segments buffered above the in-order point.
  std::size_t ooo_buffered() const { return buffered_; }

  // Current SACK blocks, recency-ordered (validation layer inspects their
  // structure: disjoint, above the cumulative ACK point).
  const std::list<net::SackBlock>& sack_blocks() const { return sack_blocks_; }

  // End-to-end payload checksum (src/validate): from now on, fold the
  // deterministic payload word of every segment entering the in-order
  // stream into an FNV-1a running hash. One predictable branch per
  // delivered segment when off (the src/obs discipline).
  void enable_delivery_validation() { delivery_hash_enabled_ = true; }
  std::uint64_t delivered_hash() const { return delivered_hash_; }
  // Test-only mutation knob: perturb the running hash so the checker's
  // payload-checksum invariant trips (mutation self-test).
  void corrupt_delivered_hash_for_test() { delivered_hash_ ^= 1; }

  // Invoked when a kTcpClose packet for this flow arrives (the workload
  // layer's FIN analogue: the sender announces the transfer is complete and
  // departed). The callback runs inside packet delivery, so it must not
  // destroy the receiver synchronously — schedule a zero-delay teardown.
  void set_close_callback(std::function<void()> cb) {
    close_cb_ = std::move(cb);
  }

  // Test hook: observe every ACK as it is emitted.
  void set_ack_tap(std::function<void(const net::Packet&)> tap) {
    ack_tap_ = std::move(tap);
  }
  // Observe every arriving data segment (reorder metrics, traces).
  void set_data_tap(std::function<void(const net::Packet&)> tap) {
    data_tap_ = std::move(tap);
  }

  // Attaches the flow-state observability layer (src/obs): out-of-order
  // arrivals and receive-point/buffer gauges sample into `registry`.
  void set_metric_registry(obs::MetricRegistry& registry);

 private:
  void on_data(const net::Packet& pkt);
  void send_ack(const net::Packet& cause, bool force_dup_info);
  void emit_ack(net::Packet&& ack);
  void record_sack_block(SeqNo begin, SeqNo end);
  sim::Scheduler& sched() const {
    return sched_override_ != nullptr ? *sched_override_
                                      : network_.scheduler();
  }

  net::Network& network_;
  sim::Scheduler* sched_override_ = nullptr;  // parallel mode: LP shard
  net::NodeId local_;
  net::NodeId remote_;
  FlowId flow_;
  ReceiverConfig config_;

  SeqNo rcv_next_ = 0;
  bool delivery_hash_enabled_ = false;
  std::uint64_t delivered_hash_ = util::kFnvOffsetBasis;
  // above_[i] != 0 iff seq rcv_next_ + i is buffered. The ring ends at the
  // highest buffered seq: empty iff nothing is, never longer than the
  // reordering extent.
  util::RingDeque<std::uint8_t> above_;
  std::size_t buffered_ = 0;
  // Recency-ordered SACK blocks (most recently updated first, RFC 2018).
  std::list<net::SackBlock> sack_blocks_;

  // Delayed-ACK state.
  sim::Timer delack_timer_;
  int unacked_segments_ = 0;
  net::Packet pending_cause_;
  bool has_pending_cause_ = false;

  ReceiverStats stats_;
  // Disabled until set_metric_registry; emissions cost one predictable
  // branch when observability is off (same discipline as SenderBase).
  obs::FlowProbe probe_;
  std::function<void()> close_cb_;
  std::function<void(const net::Packet&)> ack_tap_;
  std::function<void(const net::Packet&)> data_tap_;
};

}  // namespace tcppr::tcp
