// Retransmission timeout estimation per RFC 2988 (Jacobson/Karels SRTT and
// RTTVAR, exponential backoff on timeout), and RtoSender, the window, timer
// and transmit records the Reno and SACK families share on top of it.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "tcp/sender_base.hpp"
#include "util/ring_deque.hpp"

namespace tcppr::tcp {

class RtoEstimator {
 public:
  struct Params {
    sim::Duration initial = sim::Duration::seconds(3.0);
    sim::Duration min = sim::Duration::seconds(1.0);
    sim::Duration max = sim::Duration::seconds(64.0);
  };

  explicit RtoEstimator(Params params) : params_(params) {}
  RtoEstimator() : RtoEstimator(Params{}) {}

  void add_sample(sim::Duration rtt);
  // Doubles the backoff multiplier (called on timeout).
  void back_off();
  // Collapses the backoff (called when new data is acknowledged).
  void reset_backoff() { backoff_ = 1; }

  sim::Duration rto() const;
  const Params& params() const { return params_; }
  bool has_sample() const { return has_sample_; }
  sim::Duration srtt() const { return srtt_; }
  sim::Duration rttvar() const { return rttvar_; }
  int backoff_multiplier() const { return backoff_; }

 private:
  Params params_;
  bool has_sample_ = false;
  sim::Duration srtt_ = sim::Duration::zero();
  sim::Duration rttvar_ = sim::Duration::zero();
  int backoff_ = 1;
};

// A sender whose loss recovery falls back on the RFC 2988 timer with
// go-back-N (ns-2 style): the Reno and SACK families. It keeps one
// transmit record per segment in [snd_una_, snd_max), snd_max being the
// highest seq ever sent plus one. A timeout rewinds snd_nxt_ but keeps the
// records above it, whose tx_count marks the resends as retransmissions.
class RtoSender : public SenderBase {
 public:
  RtoSender(net::Network& network, net::NodeId local, net::NodeId remote,
            FlowId flow, TcpConfig config);

  double cwnd() const override { return cwnd_; }
  SenderInvariantView invariant_view() const override;

  double ssthresh() const { return ssthresh_; }
  bool in_fast_recovery() const { return in_recovery_; }
  SeqNo snd_una() const { return snd_una_; }
  SeqNo snd_nxt() const { return snd_nxt_; }
  const RtoEstimator& rto_estimator() const { return rto_; }

  void rebind_scheduler(sim::Scheduler& shard) override {
    SenderBase::rebind_scheduler(shard);
    rto_timer_.rebind(shard);
    rto_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_node()));
  }

 protected:
  struct Segment {
    sim::TimePoint last_tx;
    int tx_count = 0;
    std::uint8_t flags = 0;  // SackSender's scoreboard marks
  };
  Segment& seg(SeqNo seq) {
    return segs_[static_cast<std::size_t>(seq - snd_una_)];
  }

  virtual void on_timeout() = 0;
  void restart_rto_timer();
  // Karn's rule: samples the newest segment below `ack` only if it was
  // transmitted exactly once.
  void sample_rtt(SeqNo ack);
  // Transmits snd_nxt_ and advances it; returns whether that was a
  // go-back-N resend.
  bool send_next();
  void retransmit(SeqNo seq);

  double cwnd_;
  double ssthresh_;
  SeqNo snd_una_ = 0;
  SeqNo snd_nxt_ = 0;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  SeqNo recover_ = 0;  // highest seq sent when recovery began
  std::uint32_t next_tx_serial_ = 1;
  util::RingDeque<Segment> segs_;  // segs_[i] is seq snd_una_ + i
  RtoEstimator rto_;
  sim::DeadlineTimer rto_timer_;
};

}  // namespace tcppr::tcp
