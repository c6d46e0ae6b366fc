#include "tcp/sack.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::tcp {

SackSender::SackSender(net::Network& network, net::NodeId local,
                       net::NodeId remote, FlowId flow, TcpConfig config)
    : RtoSender(network, local, remote, flow, config),
      dupthresh_(config.dupthresh) {}

void SackSender::on_start() {
  send_more();
  restart_rto_timer();
}

SenderInvariantView SackSender::invariant_view() const {
  SenderInvariantView v = RtoSender::invariant_view();
  // Scoreboard structure (RFC 3517): every mark lives inside the window,
  // a segment is never both SACKed and lost, only lost segments can have
  // retransmissions in flight, no lost unretransmitted one sits below the
  // NextSeg cursor, and the counters match a recount.
  std::size_t sacked = 0;
  std::size_t lost = 0;
  std::size_t rtx = 0;
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const std::uint8_t f = segs_[i].flags;
    const SeqNo seq = snd_una_ + static_cast<SeqNo>(i);
    sacked += (f & kSacked) != 0;
    lost += (f & kLost) != 0;
    rtx += (f & kRtxInFlight) != 0;
    if ((f != 0 && seq >= snd_nxt_) || ((f & kSacked) && (f & kLost)) ||
        ((f & kRtxInFlight) && !(f & kLost)) ||
        (f == kLost && seq < next_seg_)) {
      v.scoreboard_ok = false;
    }
  }
  v.scoreboard_ok = v.scoreboard_ok && sacked == sacked_count_ &&
                    lost == lost_count_ && rtx == rtx_count_;
  return v;
}

int SackSender::effective_dupthresh() const {
  // Never below 3 (RFC 5681); never so high that the window cannot
  // generate enough dupacks, which would force an RTO ([3]'s cap).
  const double cap = std::max(3.0, cwnd_ - 1.0);
  return static_cast<int>(std::lround(
      std::clamp(dupthresh_, 3.0, cap)));
}

double SackSender::pipe() const {
  // RFC 3517 SetPipe via flag counts: segments in flight that are
  // neither SACKed nor marked lost, plus retransmissions in flight.
  // Against a receiver that never sends SACK blocks, each duplicate ACK
  // stands in for one delivered-but-unidentified segment (Linux's "reno
  // sack" emulation) — without it the pipe never drains during recovery
  // and the retransmission cannot be clocked out.
  const double range = static_cast<double>(snd_nxt_ - snd_una_);
  double pipe = range - static_cast<double>(sacked_count_) -
                static_cast<double>(lost_count_) +
                static_cast<double>(rtx_count_);
  if (!peer_sends_sack_) {
    pipe -= static_cast<double>(dupacks_);
  }
  return std::max(pipe, 0.0);
}

void SackSender::update_scoreboard(const net::Packet& ack) {
  if (!ack.tcp.sack.empty()) peer_sends_sack_ = true;
  for (const auto& block : ack.tcp.sack) {
    const SeqNo lo = std::max(block.begin, snd_una_);
    const SeqNo hi = std::min(block.end, snd_nxt_);
    for (SeqNo s = lo; s < hi; ++s) {
      Segment& r = seg(s);
      if ((r.flags & kSacked) != 0) continue;
      lost_count_ -= (r.flags & kLost) != 0;
      rtx_count_ -= (r.flags & kRtxInFlight) != 0;
      r.flags = kSacked;
      ++sacked_count_;
      highest_sacked_ = std::max(highest_sacked_, s);
    }
  }
}

void SackSender::set_lost(Segment& s, SeqNo seq) {
  if ((s.flags & (kSacked | kLost)) != 0) return;
  s.flags |= kLost;
  ++lost_count_;
  next_seg_ = std::min(next_seg_, seq);
}

void SackSender::mark_lost_by_sack() {
  if (highest_sacked_ < snd_una_) return;
  if (!in_recovery_ && !mark_losses_outside_recovery()) return;
  // Marks only grow until an undo or timeout resets lost_marked_.
  const SeqNo gap = effective_dupthresh();
  SeqNo s = std::max(lost_marked_, snd_una_);
  for (; s + gap <= highest_sacked_; ++s) set_lost(seg(s), s);
  lost_marked_ = s;
}

bool SackSender::loss_detected() const {
  return dupacks_ >= effective_dupthresh() || lost_count_ > 0;
}

void SackSender::on_ack_packet(const net::Packet& ack) {
  // Spurious-retransmit detection from the DSACK option (RFC 2883/3708).
  if (process_dsack_ && ack.tcp.dsack.has_value()) {
    const SeqNo s = ack.tcp.dsack->begin;
    const auto it = recent_rtx_.find(s);
    if (it != recent_rtx_.end()) {
      // The receiver saw the segment twice and we retransmitted it: the
      // retransmission was unnecessary. The reordering extent estimate is
      // the largest dupack run observed around the episode (the DSACK
      // usually lands after the episode has closed).
      const int extent = std::max({episode_dupacks_, last_episode_dupacks_,
                                   it->second.episode_dupacks});
      recent_rtx_.erase(it);
      ++stats_.spurious_retransmits_detected;
      on_spurious_retransmit(s, extent);
    }
  }

  update_scoreboard(ack);

  const SeqNo a = ack.tcp.ack;
  if (a > snd_una_) {
    sample_rtt(a);  // before the tx records are dropped
    rto_.reset_backoff();
    if (probe_) probe_.rto(now(), rto_.rto().as_seconds());
    advance_una(a);
    on_new_ack_hook(ack);
    if (in_recovery_) {
      if (a >= recover_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
        dupacks_ = 0;
        last_episode_dupacks_ = episode_dupacks_;
        episode_dupacks_ = 0;
        notify_cwnd(cwnd_);
      }
      // Partial ACK: scoreboard-driven retransmission continues below.
    } else {
      dupacks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1;
      } else {
        cwnd_ += 1.0 / cwnd_;
      }
      cwnd_ = std::min(cwnd_, config_.max_cwnd);
      notify_cwnd(cwnd_);
    }
    restart_rto_timer();
  } else if (snd_nxt_ > snd_una_) {
    ++stats_.dupacks_received;
    ++dupacks_;
    ++episode_dupacks_;
    on_dupack_hook(ack);
  }

  mark_lost_by_sack();
  if (!in_recovery_ && snd_nxt_ > snd_una_ && loss_detected()) {
    enter_recovery();
  }
  send_more();
  if (probe_) probe_.outstanding(now(), pipe());
}

void SackSender::advance_una(SeqNo ack) {
  for (; snd_una_ < ack && !segs_.empty(); ++snd_una_) {
    const std::uint8_t f = segs_.front().flags;
    sacked_count_ -= (f & kSacked) != 0;
    lost_count_ -= (f & kLost) != 0;
    rtx_count_ -= (f & kRtxInFlight) != 0;
    segs_.drop_front();
  }
  snd_una_ = ack;
  // DSACKs for a retransmission typically arrive after the cumulative ACK
  // has passed it, so spurious-detection records outlive the window by a
  // margin before being pruned.
  constexpr SeqNo kRtxHistory = 4096;
  if (snd_una_ > kRtxHistory) {
    recent_rtx_.erase(recent_rtx_.begin(),
                      recent_rtx_.lower_bound(snd_una_ - kRtxHistory));
  }
  note_progress(snd_una_);
}

void SackSender::enter_recovery() {
  ++stats_.fast_retransmits;
  ++stats_.cwnd_halvings;
  saved_cwnd_ = cwnd_;
  saved_ssthresh_ = ssthresh_;
  in_recovery_ = true;
  recover_ = snd_nxt_;
  const double flight = std::max(pipe(), 1.0);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = ssthresh_;
  // The segment at the ACK point is the presumed loss.
  set_lost(seg(snd_una_), snd_una_);
  if (probe_) {
    probe_.ssthresh(now(), ssthresh_);
    probe_.drop_declared(now());
  }
  notify_cwnd(cwnd_);
}

void SackSender::undo_last_reduction(bool full_restore) {
  // [3] (footnote 3): rather than jumping straight back, restore ssthresh
  // to the pre-reduction window so the sender slow-starts up to it. Eifel
  // restores both (full_restore).
  ssthresh_ = std::max(ssthresh_, saved_cwnd_);
  if (full_restore) cwnd_ = std::max(cwnd_, saved_cwnd_);
  if (in_recovery_) {
    in_recovery_ = false;
    dupacks_ = 0;
    last_episode_dupacks_ = episode_dupacks_;
    episode_dupacks_ = 0;
  }
  // The loss marks of this episode were wrong; forget them.
  for (std::size_t i = 0; lost_count_ > 0 && i < segs_.size(); ++i) {
    Segment& r = segs_[i];
    lost_count_ -= (r.flags & kLost) != 0;
    r.flags &= kSacked;
  }
  rtx_count_ = 0;
  lost_marked_ = snd_una_;
  if (probe_) probe_.ssthresh(now(), ssthresh_);
  notify_cwnd(cwnd_);
}

void SackSender::send_more() {
  // As in RenoSender::send_new_data: transmitting never disarms the
  // timer, so the per-iteration "arm if unarmed" hoists past the burst.
  const bool was_armed = rto_timer_.armed();
  bool sent = false;
  {
    SenderBase::BurstScope burst(*this);
    const double window = std::min(cwnd_, config_.max_cwnd);
    while (pipe() + 1.0 <= window) {
      // NextSeg (RFC 3517): lost-and-not-yet-retransmitted first, then new.
      if (lost_count_ > rtx_count_) {  // kRtxInFlight flags only kLost ones
        SeqNo rtx = std::max(next_seg_, snd_una_);
        while (seg(rtx).flags != kLost) ++rtx;
        next_seg_ = rtx;
        seg(rtx).flags |= kRtxInFlight;
        ++rtx_count_;
        recent_rtx_[rtx] = RtxRecord{now(), episode_dupacks_};
        retransmit(rtx);
      } else if (source_has(snd_nxt_)) {
        if (send_next()) {  // a go-back-N resend
          recent_rtx_[snd_nxt_ - 1] = RtxRecord{now(), episode_dupacks_};
        }
      } else {
        break;
      }
      sent = true;
    }
  }
  if (sent && !was_armed) restart_rto_timer();
}

void SackSender::on_timeout() {
  if (snd_nxt_ <= snd_una_) return;
  ++stats_.timeouts;
  TCPPR_LOG_DEBUG("sack", "flow %d timeout at una=%lld", flow(),
                  static_cast<long long>(snd_una_));
  ssthresh_ = std::max(pipe() / 2.0, 2.0);
  cwnd_ = 1;
  dupacks_ = 0;
  episode_dupacks_ = 0;
  in_recovery_ = false;
  // ns-2 sack1 clears the scoreboard on timeout; go-back-N from snd_una_.
  for (std::size_t i = 0; i < segs_.size(); ++i) segs_[i].flags = 0;
  sacked_count_ = 0;
  lost_count_ = 0;
  rtx_count_ = 0;
  lost_marked_ = snd_una_;
  highest_sacked_ = -1;
  snd_nxt_ = snd_una_;
  rto_.back_off();
  if (probe_) {
    probe_.ssthresh(now(), ssthresh_);
    probe_.rto(now(), rto_.rto().as_seconds());
    probe_.drop_declared(now());
  }
  send_more();
  restart_rto_timer();
  notify_cwnd(cwnd_);
}

}  // namespace tcppr::tcp
