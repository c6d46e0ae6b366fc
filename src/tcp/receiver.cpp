#include "tcp/receiver.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::tcp {

Receiver::Receiver(net::Network& network, net::NodeId local,
                   net::NodeId remote, FlowId flow, ReceiverConfig config)
    : network_(network),
      local_(local),
      remote_(remote),
      flow_(flow),
      config_(config),
      delack_timer_(network.scheduler()) {
  network_.node(local_).attach_agent(flow_, this);
}

Receiver::~Receiver() { network_.node(local_).detach_agent(flow_); }

void Receiver::set_metric_registry(obs::MetricRegistry& registry) {
  probe_ = obs::FlowProbe(registry, flow_);
  if (probe_) {
    const sim::TimePoint t = sched().now();
    probe_.rcv_next(t, static_cast<double>(rcv_next_));
    probe_.ooo_buffered(t, static_cast<double>(buffered_));
  }
}

void Receiver::deliver(net::Packet&& pkt) {
  if (pkt.type == net::PacketType::kTcpClose) {
    if (close_cb_) close_cb_();
    return;
  }
  if (pkt.type != net::PacketType::kTcpData) return;  // stray ACK etc.
  on_data(pkt);
}

void Receiver::deliver_batch(net::PacketBatch& batch, std::size_t begin,
                             std::size_t end) {
  // Delayed ACKs interleave timer arms with the originations, so the
  // train would reorder scheduler mints; keep the per-packet path.
  if (config_.delayed_ack) {
    for (std::size_t i = begin; i < end; ++i) deliver(std::move(batch[i]));
    return;
  }
  TCPPR_DCHECK(!train_active_);
  train_active_ = true;
  for (std::size_t i = begin; i < end; ++i) deliver(std::move(batch[i]));
  train_active_ = false;
  if (train_.empty()) return;
  if (train_.size() == 1) {
    net::Packet ack = std::move(train_[0]);
    train_.clear();
    network_.node(local_).originate(std::move(ack));
    return;
  }
  net::PacketBatch train = std::move(train_);
  network_.node(local_).originate_burst(std::move(train));
}

void Receiver::record_sack_block(SeqNo begin, SeqNo end) {
  // Extend/merge with existing blocks, then move to the front (RFC 2018
  // wants the block containing the most recently received segment first).
  for (auto it = sack_blocks_.begin(); it != sack_blocks_.end();) {
    if (begin <= it->end && it->begin <= end) {  // overlap/adjacent
      begin = std::min(begin, it->begin);
      end = std::max(end, it->end);
      it = sack_blocks_.erase(it);
    } else {
      ++it;
    }
  }
  sack_blocks_.push_front(net::SackBlock{begin, end});
}

void Receiver::on_data(const net::Packet& pkt) {
  ++stats_.data_packets_received;
  if (data_tap_) data_tap_(pkt);
  const SeqNo seq = pkt.tcp.seq;

  const SeqNo offset = seq - rcv_next_;
  bool duplicate = false;
  if (offset < 0 || (offset < std::ssize(above_) &&
                     above_[static_cast<std::size_t>(offset)] != 0)) {
    duplicate = true;
    ++stats_.duplicates;
  } else if (seq == rcv_next_) {
    if (delivery_hash_enabled_) {
      delivered_hash_ =
          util::fnv1a_u64(delivered_hash_, util::payload_word(flow_, seq));
    }
    ++rcv_next_;
    // Pull buffered segments into the in-order stream.
    if (!above_.empty()) above_.drop_front();
    while (!above_.empty() && above_.front() != 0) {
      above_.drop_front();
      --buffered_;
      if (delivery_hash_enabled_) {
        delivered_hash_ = util::fnv1a_u64(delivered_hash_,
                                          util::payload_word(flow_, rcv_next_));
      }
      ++rcv_next_;
    }
    // Retire SACK blocks now covered by the cumulative ACK.
    for (auto it = sack_blocks_.begin(); it != sack_blocks_.end();) {
      if (it->end <= rcv_next_) {
        it = sack_blocks_.erase(it);
      } else {
        it->begin = std::max(it->begin, rcv_next_);
        ++it;
      }
    }
  } else {  // above rcv_next_: out of order
    ++stats_.out_of_order;
    stats_.max_reorder_extent =
        std::max(stats_.max_reorder_extent, seq - rcv_next_);
    while (std::ssize(above_) <= offset) above_.push_back(0);
    above_[static_cast<std::size_t>(offset)] = 1;
    ++buffered_;
    record_sack_block(seq, seq + 1);
    if (probe_) probe_.out_of_order(sched().now());
  }
  if (probe_) {
    const sim::TimePoint t = sched().now();
    probe_.rcv_next(t, static_cast<double>(rcv_next_));
    probe_.ooo_buffered(t, static_cast<double>(buffered_));
  }
  stats_.in_order_point = rcv_next_;
  stats_.goodput_bytes =
      static_cast<std::uint64_t>(rcv_next_) * config_.segment_bytes;

  // Duplicate or out-of-order arrivals must be acknowledged immediately
  // (RFC 5681); delayed ACKs only apply to in-order arrivals.
  const bool immediate = duplicate || !above_.empty() || !config_.delayed_ack;
  if (immediate) {
    if (has_pending_cause_) {  // flush any pending delayed ACK state
      has_pending_cause_ = false;
      unacked_segments_ = 0;
      delack_timer_.cancel();
    }
    send_ack(pkt, duplicate);
    return;
  }

  // Delayed ACK: every second in-order segment, or after the timeout.
  pending_cause_ = pkt;
  has_pending_cause_ = true;
  if (++unacked_segments_ >= 2) {
    has_pending_cause_ = false;
    unacked_segments_ = 0;
    delack_timer_.cancel();
    send_ack(pkt, false);
    return;
  }
  delack_timer_.schedule_in(config_.delack_timeout, [this] {
    if (!has_pending_cause_) return;
    has_pending_cause_ = false;
    unacked_segments_ = 0;
    send_ack(pending_cause_, false);
  });
}

void Receiver::send_ack(const net::Packet& cause, bool is_duplicate_arrival) {
  net::Packet ack;
  ack.uid = network_.allocate_uid();
  ack.src = local_;
  ack.dst = remote_;
  ack.size_bytes = config_.ack_bytes;
  ack.type = net::PacketType::kTcpAck;
  ack.tcp.flow = flow_;
  ack.tcp.ack = rcv_next_;
  if (config_.echo_timestamps) {
    ack.tcp.echo_serial = cause.tcp.tx_serial;
    ack.tcp.ts_echo = cause.tcp.ts_value;
  }
  if (config_.generate_dsack && is_duplicate_arrival) {
    // RFC 2883: first block reports the duplicate segment.
    ack.tcp.dsack = net::SackBlock{cause.tcp.seq, cause.tcp.seq + 1};
  }
  if (config_.generate_sack) {
    int n = 0;
    for (const auto& block : sack_blocks_) {
      if (n >= config_.max_sack_blocks) break;
      ack.tcp.sack.push_back(block);
      ++n;
    }
  }
  emit_ack(std::move(ack));
}

void Receiver::emit_ack(net::Packet&& ack) {
  ++stats_.acks_sent;
  ack.sent_at = sched().now();
  if (ack_tap_) ack_tap_(ack);
  if (train_active_) {  // deliver_batch flushes the train as one burst
    train_.push(std::move(ack));
    return;
  }
  network_.node(local_).originate(std::move(ack));
}

}  // namespace tcppr::tcp
