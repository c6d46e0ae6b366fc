#include "tcp/sender_base.hpp"

#include <utility>

#include "util/check.hpp"

namespace tcppr::tcp {

SenderBase::SenderBase(net::Network& network, net::NodeId local,
                       net::NodeId remote, FlowId flow, TcpConfig config)
    : config_(config),
      network_(network),
      local_(local),
      remote_(remote),
      flow_(flow),
      source_(std::make_unique<BulkDataSource>()) {
  TCPPR_CHECK(config_.segment_bytes > 0);
  TCPPR_CHECK(config_.initial_cwnd >= 1);
  network_.node(local_).attach_agent(flow_, this);
}

SenderBase::~SenderBase() { network_.node(local_).detach_agent(flow_); }

void SenderBase::set_metric_registry(obs::MetricRegistry& registry) {
  probe_ = obs::FlowProbe(registry, flow_);
  if (probe_) probe_.cwnd(now(), cwnd());
}

void SenderBase::set_data_source(std::unique_ptr<DataSource> source) {
  TCPPR_CHECK(!started_);
  TCPPR_CHECK(source != nullptr);
  source_ = std::move(source);
}

void SenderBase::start() {
  TCPPR_CHECK(!started_);
  started_ = true;
  on_start();
  // A zero-length transfer is complete the moment it starts.
  if (!complete_ && source_->total_segments() == 0) {
    complete_ = true;
    if (completion_cb_) completion_cb_();
  }
}

void SenderBase::deliver(net::Packet&& pkt) {
  if (pkt.type != net::PacketType::kTcpAck) return;
  ++stats_.acks_received;
  on_ack_packet(pkt);
}

void SenderBase::transmit_segment(SeqNo seq, bool is_retransmission,
                                  std::uint32_t tx_serial) {
  net::Packet pkt;
  pkt.uid = network_.allocate_uid();
  pkt.src = local_;
  pkt.dst = remote_;
  pkt.size_bytes = config_.segment_bytes + config_.header_bytes;
  pkt.type = net::PacketType::kTcpData;
  pkt.tcp.flow = flow_;
  pkt.tcp.seq = seq;
  pkt.tcp.is_retransmission = is_retransmission;
  pkt.tcp.tx_serial = tx_serial;
  pkt.tcp.ts_value = now().as_seconds();
  pkt.sent_at = now();

  ++stats_.data_packets_sent;
  if (is_retransmission) {
    ++stats_.retransmissions;
    if (probe_) probe_.retransmission(now());
  }
  if (burst_depth_ > 0) {
    burst_.push(std::move(pkt));
    return;
  }
  network_.node(local_).originate(std::move(pkt));
}

void SenderBase::flush_burst() {
  if (burst_.empty()) return;
  if (burst_.size() == 1) {
    net::Packet pkt = std::move(burst_[0]);
    burst_.clear();
    network_.node(local_).originate(std::move(pkt));
    return;
  }
  net::PacketBatch burst = std::move(burst_);
  network_.node(local_).originate_burst(std::move(burst));
}

void SenderBase::note_progress(SeqNo cum_ack) {
  if (cum_ack <= stats_.segments_acked) return;
  stats_.bytes_newly_acked += static_cast<std::uint64_t>(
                                  cum_ack - stats_.segments_acked) *
                              config_.segment_bytes;
  stats_.segments_acked = cum_ack;
  const SeqNo total = source_->total_segments();
  if (!complete_ && total >= 0 && cum_ack >= total) {
    complete_ = true;
    if (completion_cb_) completion_cb_();
  }
}

void SenderBase::notify_cwnd(double cwnd) {
  if (cwnd_listener_) cwnd_listener_(now(), cwnd);
  if (probe_) probe_.cwnd(now(), cwnd);
}

}  // namespace tcppr::tcp
