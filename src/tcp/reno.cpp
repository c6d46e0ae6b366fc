#include "tcp/reno.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace tcppr::tcp {

void RenoSender::on_start() {
  send_new_data();
  restart_rto_timer();
}

double RenoSender::usable_window() const {
  return std::min(cwnd_ + inflation_, config_.max_cwnd);
}

void RenoSender::send_new_data() {
  // The timer cannot disarm while we only transmit, so the per-iteration
  // "arm if unarmed" collapses to one check hoisted past the burst scope —
  // the re-arm's scheduler op then follows the burst's, as one event.
  const bool was_armed = rto_timer_.armed();
  bool sent = false;
  {
    SenderBase::BurstScope burst(*this);
    while (static_cast<double>(flight_size()) + 1.0 <= usable_window() &&
           source_has(snd_nxt_)) {
      // After a go-back-N timeout, "new" sends below the old snd_nxt are
      // really retransmissions; send_next's records distinguish them.
      send_next();
      sent = true;
    }
  }
  if (sent && !was_armed) restart_rto_timer();
}

void RenoSender::on_ack_packet(const net::Packet& ack) {
  const SeqNo a = ack.tcp.ack;
  if (a > snd_una_) {
    handle_new_ack(a);
  } else if (flight_size() > 0) {
    ++stats_.dupacks_received;
    handle_dupack(ack);
  }
  send_new_data();
}

void RenoSender::handle_new_ack(SeqNo ack) {
  sample_rtt(ack);
  rto_.reset_backoff();
  on_new_ack_hook();
  // Slide the window before the recovery handlers retransmit at it.
  for (; snd_una_ < ack && !segs_.empty(); ++snd_una_) segs_.drop_front();
  snd_una_ = ack;
  if (in_recovery_) {
    handle_new_ack_in_recovery(ack);
  } else {
    dupacks_ = 0;
    open_window_on_ack();
  }
  note_progress(snd_una_);
  // RFC 3782 "Impatient": during recovery only the first partial ACK may
  // reset the retransmission timer, so a window with many holes escapes to
  // an RTO instead of crawling for one hole per RTT. (Classic Reno exits
  // recovery on any new ACK, so this only affects NewReno and derivates,
  // which restart the timer themselves in the partial-ACK path.)
  if (!in_recovery_) restart_rto_timer();
}

void RenoSender::handle_new_ack_in_recovery(SeqNo) {
  // Classic Reno leaves recovery on the first new ACK, whether or not it
  // covers every segment outstanding at the loss (its known weakness with
  // multiple drops per window).
  dupacks_ = 0;
  exit_recovery();
}

void RenoSender::exit_recovery() {
  in_recovery_ = false;
  inflation_ = 0;
  cwnd_ = ssthresh_;  // deflate
  notify_cwnd(cwnd_);
}

void RenoSender::open_window_on_ack() {
  if (cwnd_ < ssthresh_) {
    cwnd_ += 1;  // slow start
  } else {
    cwnd_ += 1.0 / cwnd_;  // congestion avoidance
  }
  cwnd_ = std::min(cwnd_, config_.max_cwnd);
  notify_cwnd(cwnd_);
}

void RenoSender::handle_dupack(const net::Packet&) {
  ++dupacks_;
  if (in_recovery_) {
    inflation_ += 1;  // window inflation per extra dupack
    return;
  }
  if (dupacks_ >= config_.dupthresh) {
    enter_fast_recovery();
  } else if (config_.limited_transmit) {
    // RFC 3042: the first two dupacks each release one new segment.
    inflation_ = std::min(dupacks_, 2);
  }
}

void RenoSender::enter_fast_recovery() {
  ++stats_.fast_retransmits;
  ++stats_.cwnd_halvings;
  in_recovery_ = true;
  partial_acks_ = 0;
  recover_ = snd_nxt_;
  ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0, 2.0);
  cwnd_ = ssthresh_;
  inflation_ = static_cast<double>(dupacks_);
  retransmit(snd_una_);
  restart_rto_timer();
  notify_cwnd(cwnd_);
}

void RenoSender::on_timeout() {
  if (flight_size() <= 0) return;
  ++stats_.timeouts;
  ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0, 2.0);
  cwnd_ = 1;
  inflation_ = 0;
  dupacks_ = 0;
  in_recovery_ = false;
  rto_.back_off();
  // Go back N (ns-2 style): resend from the cumulative ACK point. The
  // window re-send happens through send_new_data(), whose tx_count check
  // marks these as retransmissions.
  snd_nxt_ = snd_una_;
  send_new_data();
  restart_rto_timer();
  notify_cwnd(cwnd_);
}

}  // namespace tcppr::tcp
