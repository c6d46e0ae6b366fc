#include "core/tcp_pr.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace tcppr::core {

TcpPrSender::TcpPrSender(net::Network& network, net::NodeId local,
                         net::NodeId remote, FlowId flow,
                         tcp::TcpConfig config, TcpPrConfig pr_config)
    : SenderBase(network, local, remote, flow, config),
      pr_(pr_config),
      cwnd_(config.initial_cwnd),
      ssthr_(config.max_cwnd),
      drop_timer_(network.scheduler(), [this] { on_drop_timer(); }),
      unblock_timer_(network.scheduler(), [this] { flush_cwnd(); }) {
  TCPPR_CHECK(pr_.alpha > 0 && pr_.alpha < 1);
  TCPPR_CHECK(pr_.beta >= 1);
  TCPPR_CHECK(pr_.newton_iterations >= 1);
}

double TcpPrSender::newton_alpha_root(double alpha, double cwnd,
                                      int iterations) {
  // Footnote 5: solve x^cwnd = alpha starting from x = 1.
  if (cwnd <= 1.0) return alpha;
  double x = 1.0;
  for (int i = 0; i < iterations; ++i) {
    x = (cwnd - 1.0) / cwnd * x +
        alpha / (cwnd * std::pow(x, cwnd - 1.0));
  }
  return x;
}

sim::Duration TcpPrSender::mxrtt() const {
  if (in_backoff_) return sim::Duration::seconds(backoff_mxrtt_s_);
  if (ewrtt_s_ <= 0) return pr_.initial_timeout;
  return sim::Duration::seconds(pr_.beta * ewrtt_s_);
}

void TcpPrSender::update_ewrtt(sim::Duration sample) {
  const double s = sample.as_seconds();
  const double decay = newton_alpha_root(pr_.alpha, std::max(cwnd_, 1.0),
                                         pr_.newton_iterations);
  if (pr_.ablate_mean_ewrtt) {
    // Ablation: EWMA of the mean with the same per-RTT memory. Vulnerable
    // to RTT spikes (the reason the paper tracks a decaying max instead).
    ewrtt_s_ = ewrtt_s_ <= 0 ? s : decay * ewrtt_s_ + (1.0 - decay) * s;
    return;
  }
  ewrtt_s_ = std::max(decay * ewrtt_s_, s);  // eq. (1)
}

void TcpPrSender::on_start() { flush_cwnd(); }

tcp::SenderInvariantView TcpPrSender::invariant_view() const {
  tcp::SenderInvariantView v;
  v.valid = true;
  v.cwnd = cwnd_;
  v.ssthresh = ssthr_;
  v.ssthresh_floor = 1.0;  // §3.1 halving floors at one segment
  v.snd_una = stats_.segments_acked;
  v.snd_nxt = next_new_;
  // The records must cover [snd_una, snd_nxt): count those inside it.
  const SeqNo base = snd_una();
  v.window_bookkeeping = true;
  v.tracked_in_window =
      std::max<SeqNo>(0, next_new_ - std::max(base, stats_.segments_acked));
  v.has_rto = false;  // loss detection is mxrtt-based, no RFC 2988 state
  v.rtx_timer_armed = drop_timer_.armed() || unblock_timer_.armed();
  v.rtx_timer_needed = !segs_.empty();
  v.rtx_timer_strict = false;  // the unblock timer may outlive its backoff
  // Every record lies inside [snd_una, snd_nxt) and is exactly one of
  // outstanding and rtx-pending, memorize flags only outstanding ones, no
  // pending one sits below the cursor, and the counters match a recount.
  v.scoreboard_ok = base >= stats_.segments_acked;
  std::size_t outstanding = 0;
  std::size_t memorized = 0;
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const bool out = (segs_[i].flags & kOutstanding) != 0;
    const bool rtx = (segs_[i].flags & kRtxPending) != 0;
    const bool mem = (segs_[i].flags & kMemorized) != 0;
    outstanding += out;
    memorized += mem;
    const bool below_cursor = base + static_cast<SeqNo>(i) < rtx_cursor_;
    if (out == rtx || (mem && !out) || (rtx && below_cursor)) {
      v.scoreboard_ok = false;
    }
  }
  v.scoreboard_ok = v.scoreboard_ok && outstanding == outstanding_ &&
                    memorized == memorized_;
  return v;
}

void TcpPrSender::drop_stale_stamps() {
  // Skip the stamps of acked, declared-dropped and re-stamped segments.
  for (; !send_order_.empty(); send_order_.drop_front()) {
    const auto& [t, seq] = send_order_.front();
    if (seq >= snd_una() && (seg(seq).flags & kOutstanding) &&
        seg(seq).sent_at == t) {
      return;
    }
  }
}

void TcpPrSender::send_one(SeqNo seq) {
  if (seq == next_new_) {
    segs_.push_back(Segment{});
    ++next_new_;
  }
  Segment& s = seg(seq);
  TCPPR_DCHECK((s.flags & kOutstanding) == 0);
  const bool is_rtx = (s.flags & kRtxPending) != 0;
  ++outstanding_;
  s.flags = is_rtx ? kOutstanding | kRetransmission : kOutstanding;
  s.sent_at = now();
  s.transmitted_at = now();
  s.cwnd_at_send = cwnd_;
  send_order_.push_back({now(), seq});
  transmit_segment(seq, is_rtx, next_tx_serial_++);
}

void TcpPrSender::flush_cwnd() {
  if (now() < send_blocked_until_) {
    // Extreme-loss pause (§3.2): resume exactly when the block lifts.
    unblock_timer_.arm(send_blocked_until_);
    return;
  }
  {
    // One burst per window flush: head repair and the window loop stage
    // their segments, the scope exit originates them as one burst, and the
    // single drop-timer re-arm below already follows the whole loop.
    SenderBase::BurstScope burst(*this);
    // Head repair runs outside the window check (like fast retransmit): the
    // lowest pending retransmission is the cumulative-ACK blocker, and the
    // stalled flight behind it must never be able to lock it out.
    // Every record is outstanding or pending, so the lowest pending seq
    // lies below every outstanding one exactly when it is snd_una.
    if (!segs_.empty() && (segs_.front().flags & kRtxPending) != 0) {
      send_one(snd_una());
    }

    // Table 1: while cwnd > |to-be-ack|, send the smallest pending seq.
    // Dupack credits subtract segments known to have left the network (see
    // TcpPrConfig::dupack_window_credit).
    for (;;) {
      std::size_t outstanding = outstanding_;
      if (pr_.dupack_window_credit) {
        outstanding -= std::min<std::size_t>(
            outstanding, static_cast<std::size_t>(dup_credits_));
      }
      if (!(cwnd_ > static_cast<double>(outstanding))) break;
      if (segs_.size() > outstanding_) {  // send the lowest pending rtx
        rtx_cursor_ = std::max(rtx_cursor_, snd_una());
        while ((seg(rtx_cursor_).flags & kRtxPending) == 0) ++rtx_cursor_;
        send_one(rtx_cursor_);
      } else if (source_has(next_new_)) {
        send_one(next_new_);
      } else {
        break;
      }
    }
  }
  rearm_drop_timer();
}

void TcpPrSender::rearm_drop_timer() {
  drop_stale_stamps();
  if (send_order_.empty()) {
    drop_timer_.cancel();
    return;
  }
  const sim::TimePoint deadline = send_order_.front().first + mxrtt();
  // Re-armed on every ack; the deadline normally only moves later (the
  // head-of-line send time advances), so this is DeadlineTimer's no-cancel
  // fast path. Only an mxrtt decay that outpaces the head's progress — or
  // leaving backoff — moves it earlier and pays a cancel.
  drop_timer_.arm(std::max(deadline, now()));
}

bool TcpPrSender::declaration_deferred(const Segment& s) const {
  // While a congestion episode is being repaired (cumulative ACK below the
  // recovery point, NewReno-style), only the memorize snapshot and already
  // repaired-and-lost segments may be declared. Segments first sent after
  // the halving share the cumulative-ACK stall but carry no information
  // about it; declaring them would masquerade as a fresh congestion event.
  if (pr_.ablate_no_memorize) return false;  // ablation: react per drop
  return !in_backoff_ && stats_.segments_acked < recover_point_ &&
         (s.flags & kMemorized) == 0 && s.drops == 0;
}

void TcpPrSender::on_drop_timer() {
  // Declare drops for every packet whose deadline has passed.
  for (;;) {
    drop_stale_stamps();
    if (send_order_.empty()) break;
    const auto [t, seq] = send_order_.front();
    if (t + mxrtt() > now()) break;
    if (declaration_deferred(seg(seq))) {
      // Push the deadline one round out; the episode normally resolves
      // (and acknowledges this packet) well before it expires again.
      seg(seq).sent_at = now();
      send_order_.push_back({now(), seq});
      continue;  // the stale front entry is cleaned on the next pass
    }
    handle_drop(seq);
  }
  flush_cwnd();  // also re-arms the timer
}

void TcpPrSender::handle_drop(SeqNo seq) {
  Segment& s = seg(seq);
  TCPPR_CHECK((s.flags & kOutstanding) != 0);
  // Deadline oracle: a drop may only be declared once the packet has been
  // outstanding for the full mxrtt envelope (Table 1 drop-detected gate).
  if (validate_ && now() < s.sent_at + mxrtt()) {
    ++early_drop_declarations_;
  }
  const bool was_memorized = (s.flags & kMemorized) != 0;
  s.flags = (s.flags & kRetransmission) | kRtxPending;
  --outstanding_;
  memorized_ -= was_memorized;
  rtx_cursor_ = std::min(rtx_cursor_, seq);
  if (probe_) probe_.drop_declared(now());

  if (in_backoff_) {
    // §3.2: while cwnd == 1 after an extreme-loss reset, further drops
    // double mxrtt instead of halving — the usual exponential backoff.
    backoff_mxrtt_s_ =
        std::min(2.0 * backoff_mxrtt_s_, pr_.max_backoff.as_seconds());
    send_blocked_until_ = now() + mxrtt();
    if (memorized_ == 0) cburst_ = 0;
    return;
  }

  const int drops_of_seq = ++s.drops;
  if (pr_.enable_extreme_loss_handling &&
      pr_.extreme_loss_on_lost_retransmission &&
      drops_of_seq >= pr_.extreme_loss_rtx_drops) {
    // Repeated repairs of the same segment were lost — the situation in
    // which NewReno/SACK fast recovery stalls into a coarse timeout (see
    // TcpPrConfig).
    enter_extreme_loss();
    return;
  }

  if (!was_memorized || pr_.ablate_no_memorize) {
    // First drop of a new congestion event: snapshot the outstanding
    // packets and halve from the cwnd in force when `seq` was sent.
    if (!pr_.ablate_no_memorize) {
      const SeqNo base = snd_una();
      for (std::size_t i = 0; i < segs_.size(); ++i) {
        Segment& out = segs_[i];
        if ((out.flags & kOutstanding) == 0) continue;
        out.flags |= kMemorized;
        if (pr_.restamp_on_congestion_event) {
          // See TcpPrConfig::restamp_on_congestion_event.
          out.sent_at = now();
          send_order_.push_back({now(), base + static_cast<SeqNo>(i)});
        }
      }
      memorized_ = outstanding_;
      burst_snapshot_size_ = memorized_;
    }
    recover_point_ = next_new_;
    episode_started_ = now();
    const double basis =
        pr_.ablate_halve_current_cwnd ? cwnd_ : s.cwnd_at_send;
    // The snapshot rule reduces to cwnd(n)/2 — but a window that grew past
    // the snapshot during the detection delay must never be *raised* by a
    // "halving".
    cwnd_ = std::min(cwnd_, std::max(1.0, basis / 2.0));
    ssthr_ = cwnd_;
    mode_ = Mode::kCongestionAvoidance;
    ++stats_.cwnd_halvings;
    if (probe_) probe_.ssthresh(now(), ssthr_);
    notify_cwnd(cwnd_);
  } else {
    // Part of an already-handled burst: no further halving, but count it
    // toward the extreme-loss condition.
    ++cburst_;
    // §3.2 counter rule ("half or more packets lost within a window"),
    // measured against the burst snapshot; see
    // TcpPrConfig::extreme_loss_on_burst_count.
    // The episode-age gate mirrors the 1 s floor of the coarse timeout the
    // rule emulates: NewReno/SACK cannot reach an RTO faster than min_rto,
    // so neither may this counter (multi-hole repairs shorter than that
    // are routine fast-recovery business).
    if (pr_.enable_extreme_loss_handling && pr_.extreme_loss_on_burst_count &&
        now() - episode_started_ >= pr_.extreme_loss_floor &&
        static_cast<double>(cburst_) >
            static_cast<double>(burst_snapshot_size_) / 2.0 + 1.0) {
      enter_extreme_loss();
      return;
    }
  }
  if (memorized_ == 0) cburst_ = 0;
}

void TcpPrSender::enter_extreme_loss() {
  ++stats_.extreme_loss_events;
  ++stats_.timeouts;  // comparable to a NewReno/SACK coarse timeout
  cwnd_ = 1.0;
  mode_ = Mode::kSlowStart;
  // ssthr_ keeps the value set at the start of the burst (half the
  // pre-burst window), mirroring NewReno's post-timeout ssthresh.
  //
  // Emulating the coarse timeout fully means forgetting the in-flight
  // window (go-back-N): everything outstanding returns to the to-be-sent
  // side; whatever the receiver already has is cleaned out by the
  // cumulative ACKs that follow the first repair.
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    segs_[i].flags = kRtxPending;
    segs_[i].drops = 0;
  }
  outstanding_ = 0;
  memorized_ = 0;
  rtx_cursor_ = snd_una();
  send_order_.clear();
  // The reset forgets the loss episode wholesale, and the per-segment drop
  // counts with it: every outstanding segment goes back to the to-be-sent
  // side, so a drop of its *next* transmission is a fresh event, not
  // attempt N of this episode. Keeping the counts would let two separate
  // episodes accumulate toward extreme_loss_rtx_drops and spuriously
  // re-trigger the backoff right after recovery. Closing the recovery
  // window (recover_point_) matches: NewReno leaves fast recovery on a
  // coarse timeout, and a stale open episode would otherwise defer drop
  // declarations for segments whose counts were just erased.
  recover_point_ = stats_.segments_acked;
  cburst_ = 0;
  dup_credits_ = 0;
  in_backoff_ = true;
  backoff_mxrtt_s_ = std::max(pr_.extreme_loss_floor.as_seconds(),
                              pr_.beta * ewrtt_s_);
  send_blocked_until_ = now() + mxrtt();
  if (probe_) {
    probe_.extreme_loss(now());
    probe_.backoff(now(), true);
    probe_.mxrtt(now(), mxrtt().as_seconds());
  }
  notify_cwnd(cwnd_);
}

void TcpPrSender::on_ack_packet(const net::Packet& ack) {
  const SeqNo a = ack.tcp.ack;

  // Remove every newly acknowledged packet (cumulative ACK semantics),
  // queued retransmissions below the ACK point included.
  bool any = false;
  sim::TimePoint newest_send;
  Segment last_acked;  // the record of a - 1, if this ACK covers it
  while (!segs_.empty() && snd_una() < a) {
    const Segment& s = segs_.front();
    if ((s.flags & kOutstanding) != 0) {
      newest_send = any ? std::max(newest_send, s.transmitted_at)
                        : s.transmitted_at;
      any = true;
      --outstanding_;
    }
    memorized_ -= (s.flags & kMemorized) != 0;
    if (snd_una() == a - 1) last_acked = s;
    segs_.drop_front();
  }

  // The ACK can advance the window even when every covered segment was
  // already declared dropped (their to-be-ack entries are gone) — e.g.
  // originals arriving after a spurious declaration. That progress still
  // counts, and its RTT sample is the only way the estimator can learn an
  // RTT above the current mxrtt.
  const bool progress = a > stats_.segments_acked;
  if (!any && !progress) {
    // Duplicate ACK: never a loss signal, but proof that one segment
    // reached the receiver — worth one window credit.
    if (pr_.dupack_window_credit && outstanding_ > 0) {
      ++dup_credits_;
      if (probe_) probe_.dup_credits(now(), dup_credits_);
      flush_cwnd();
    }
    return;
  }
  dup_credits_ = 0;
  if (memorized_ == 0) cburst_ = 0;

  // Table 1 lines 13-14: sample from the packet whose ACK just arrived,
  // or from the last transmission of a declared-dropped a - 1.
  if (any) {
    update_ewrtt(now() - newest_send);
  } else if (last_acked.drops > 0) {
    update_ewrtt(now() - last_acked.transmitted_at);
  }

  if (in_backoff_) {
    in_backoff_ = false;
    backoff_mxrtt_s_ = 0;
    send_blocked_until_ = now();
    if (probe_) probe_.backoff(now(), false);
  }

  note_progress(a);

  // Table 1 lines 17-20: window growth.
  if (mode_ == Mode::kSlowStart) {
    if (cwnd_ + 1.0 <= ssthr_) {
      cwnd_ += 1.0;
    } else {
      mode_ = Mode::kCongestionAvoidance;
      cwnd_ += 1.0 / cwnd_;
    }
  } else {
    cwnd_ += 1.0 / cwnd_;
  }
  cwnd_ = std::min(cwnd_, config_.max_cwnd);
  notify_cwnd(cwnd_);

  if (probe_) {
    // One estimator snapshot per ACK: the cwnd/ewrtt/mxrtt time series the
    // paper's figures are drawn from.
    probe_.ewrtt(now(), ewrtt_s_);
    probe_.mxrtt(now(), mxrtt().as_seconds());
    probe_.outstanding(now(), outstanding_);
    probe_.dup_credits(now(), dup_credits_);
  }

  flush_cwnd();
}

}  // namespace tcppr::core
