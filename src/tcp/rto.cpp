#include "tcp/rto.hpp"

#include <algorithm>
#include <iterator>

#include "util/check.hpp"

namespace tcppr::tcp {

void RtoEstimator::add_sample(sim::Duration rtt) {
  TCPPR_CHECK(rtt >= sim::Duration::zero());
  if (!has_sample_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2.0;
    has_sample_ = true;
    return;
  }
  const sim::Duration err =
      rtt > srtt_ ? (rtt - srtt_) : (srtt_ - rtt);  // |srtt - sample|
  rttvar_ = rttvar_ * (3.0 / 4.0) + err * (1.0 / 4.0);
  srtt_ = srtt_ * (7.0 / 8.0) + rtt * (1.0 / 8.0);
}

void RtoEstimator::back_off() { backoff_ = std::min(backoff_ * 2, 1 << 16); }

sim::Duration RtoEstimator::rto() const {
  // RFC 6298 ordering: the minimum applies to every computed RTO — the
  // pre-sample `initial` included, which may be configured (or rounded)
  // below it — and backoff scales the floored value, so the result can
  // never sit below `min` no matter the configuration.
  sim::Duration base = has_sample_ ? srtt_ + 4.0 * rttvar_ : params_.initial;
  base = std::max(base, params_.min);
  base = base * static_cast<double>(backoff_);
  return std::min(base, params_.max);
}

RtoSender::RtoSender(net::Network& network, net::NodeId local,
                     net::NodeId remote, FlowId flow, TcpConfig config)
    : SenderBase(network, local, remote, flow, config),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.max_cwnd),
      rto_(RtoEstimator::Params{config.initial_rto, config.min_rto,
                                config.max_rto}),
      rto_timer_(network.scheduler(), [this] { on_timeout(); }) {}

SenderInvariantView RtoSender::invariant_view() const {
  SenderInvariantView v;
  v.valid = true;
  v.cwnd = cwnd_;
  v.ssthresh = ssthresh_;
  v.ssthresh_floor = 2.0;
  v.snd_una = snd_una_;
  v.snd_nxt = snd_nxt_;
  v.window_bookkeeping = true;
  v.tracked_in_window = std::clamp(snd_nxt_ - snd_una_, SeqNo{0},
                                   std::ssize(segs_));
  v.has_rto = true;
  v.rto = rto_.rto();
  v.min_rto = rto_.params().min;
  v.max_rto = rto_.params().max;
  v.rtx_timer_armed = rto_timer_.armed();
  v.rtx_timer_needed = started() && snd_nxt_ > snd_una_;
  v.rtx_timer_strict = true;
  return v;
}

void RtoSender::restart_rto_timer() {
  if (snd_nxt_ <= snd_una_) {
    rto_timer_.cancel();
    return;
  }
  rto_timer_.arm(now() + rto_.rto());
}

void RtoSender::sample_rtt(SeqNo ack) {
  if (ack - snd_una_ > std::ssize(segs_)) return;
  const Segment& s = seg(ack - 1);
  if (s.tx_count == 1) rto_.add_sample(now() - s.last_tx);
}

bool RtoSender::send_next() {
  // A resend below snd_una_ (an ACK jumped past the rewound snd_nxt_) has
  // no record and counts as new.
  const SeqNo i = snd_nxt_ - snd_una_;
  if (i == std::ssize(segs_)) segs_.push_back({});
  Segment fresh;
  Segment& s = i >= 0 ? seg(snd_nxt_) : fresh;
  const bool is_rtx = s.tx_count > 0;
  s.last_tx = now();
  ++s.tx_count;
  transmit_segment(snd_nxt_, is_rtx, next_tx_serial_++);
  ++snd_nxt_;
  return is_rtx;
}

void RtoSender::retransmit(SeqNo seq) {
  Segment& s = seg(seq);
  s.last_tx = now();
  ++s.tx_count;
  transmit_segment(seq, /*is_retransmission=*/true, next_tx_serial_++);
}

}  // namespace tcppr::tcp
