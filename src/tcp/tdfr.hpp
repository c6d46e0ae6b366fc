// Time-delayed fast recovery (TD-FR), first proposed by Paxson (SIGCOMM 97)
// and analyzed in [3]: fast retransmit is deferred until duplicate ACKs
// have persisted for max(RTT/2, DT), where DT measures how long reordering
// episodes take.
//
// Built on NewReno with limited transmit (RFC 3042), matching the paper's
// description. DT interpretation: the original defines DT as the spacing
// between the first and third dupack — meaningful for modem-era traces
// where dupacks trickle, but degenerate (~one serialization time) under
// per-packet multi-path reordering. We therefore let DT track an EWMA of
// observed episode resolution times (first dupack -> cancelling new ACK),
// with the literal t3-t1 as a lower bound. The adaptive wait is what gives
// TD-FR its paper-reported profile: tolerable at 10 ms link delays,
// collapsing at 60 ms, where each genuine loss costs a long stall followed
// by a burst.
#pragma once

#include "tcp/reno.hpp"

namespace tcppr::tcp {

class TdFrSender final : public NewRenoSender {
 public:
  TdFrSender(net::Network& network, net::NodeId local, net::NodeId remote,
             FlowId flow, TcpConfig config = {});

  const char* algorithm() const override { return "td-fr"; }

  void rebind_scheduler(sim::Scheduler& shard) override {
    NewRenoSender::rebind_scheduler(shard);
    fr_timer_.rebind(shard);
    fr_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_node()));
  }

 protected:
  void handle_dupack(const net::Packet& ack) override;
  void on_new_ack_hook() override;

 private:
  void arm_timer();
  void on_timer();
  sim::Duration wait_threshold() const;

  sim::DeadlineTimer fr_timer_;
  sim::TimePoint first_dupack_at_;
  sim::Duration dt_ = sim::Duration::zero();  // t(3rd dupack) - t(1st)
  sim::Duration dt_ewma_ = sim::Duration::zero();  // learned episode time
  bool episode_open_ = false;
  static constexpr double kEwmaGain = 0.25;
};

}  // namespace tcppr::tcp
