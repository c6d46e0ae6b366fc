#include "tcp/tdfr.hpp"

#include <algorithm>


namespace tcppr::tcp {

TdFrSender::TdFrSender(net::Network& network, net::NodeId local,
                       net::NodeId remote, FlowId flow, TcpConfig config)
    : NewRenoSender(network, local, remote, flow,
                    [](TcpConfig c) {
                      // The paper pairs TD-FR with the limited transmit
                      // algorithm to soften (not cure) its burstiness.
                      c.limited_transmit = true;
                      return c;
                    }(config)),
      fr_timer_(network.scheduler(), [this] { on_timer(); }) {}

sim::Duration TdFrSender::wait_threshold() const {
  // max(RTT/2, DT). Before an RTT sample exists, fall back to the initial
  // RTO's scale so the very first episode is not hair-triggered.
  const sim::Duration half_rtt = rto_.has_sample()
                                     ? rto_.srtt() / 2.0
                                     : config_.initial_rto / 2.0;
  return std::max({half_rtt, dt_, dt_ewma_});
}

void TdFrSender::handle_dupack(const net::Packet&) {
  ++dupacks_;
  if (in_recovery_) {
    inflation_ += 1;  // standard recovery inflation
    return;
  }
  if (config_.limited_transmit) {
    inflation_ = std::min(dupacks_, 2);
  }
  if (dupacks_ == 1) {
    first_dupack_at_ = now();
    dt_ = sim::Duration::zero();
    episode_open_ = true;
    arm_timer();
  } else if (dupacks_ == 3) {
    dt_ = now() - first_dupack_at_;
    arm_timer();  // threshold may have grown; re-arm from the first dupack
  }
}

void TdFrSender::arm_timer() {
  const sim::TimePoint deadline = first_dupack_at_ + wait_threshold();
  if (deadline <= now()) {
    on_timer();
    return;
  }
  fr_timer_.arm(deadline);
}

void TdFrSender::on_timer() {
  // The wait only *delays* the standard trigger; fewer than dupthresh
  // duplicate ACKs never justified a fast retransmit in the first place.
  if (in_recovery_ || dupacks_ < config_.dupthresh || flight_size() <= 0) {
    return;
  }
  episode_open_ = false;
  enter_fast_recovery();
  send_new_data();
}

void TdFrSender::on_new_ack_hook() {
  // Progress: the dupack run ended; cancel any pending wait and learn how
  // long this (reordering) episode took to resolve on its own.
  if (episode_open_) {
    episode_open_ = false;
    const sim::Duration observed = now() - first_dupack_at_;
    const sim::Duration capped =
        std::min(observed, sim::Duration::seconds(2.0));
    dt_ewma_ = dt_ewma_ * (1.0 - kEwmaGain) + capped * kEwmaGain;
  }
  fr_timer_.cancel();
}

}  // namespace tcppr::tcp
