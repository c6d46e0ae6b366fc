// TCP Reno sender: slow start, congestion avoidance, fast retransmit and
// fast recovery with window inflation (RFC 5681), go-back-N on timeout as
// in ns-2 (the substrate under which the paper's results were produced).
// NewRenoSender refines recovery behaviour on partial ACKs.
#pragma once

#include "tcp/rto.hpp"

namespace tcppr::tcp {

class RenoSender : public RtoSender {
 public:
  RenoSender(net::Network& network, net::NodeId local, net::NodeId remote,
             FlowId flow, TcpConfig config = {})
      : RtoSender(network, local, remote, flow, config) {}

  const char* algorithm() const override { return "reno"; }

 protected:
  void on_start() override;
  void on_ack_packet(const net::Packet& ack) override;

  // Hook points for NewReno and TD-FR.
  virtual void handle_new_ack_in_recovery(SeqNo ack);
  virtual void enter_fast_recovery();
  virtual void on_new_ack_hook() {}

  void handle_new_ack(SeqNo ack);
  virtual void handle_dupack(const net::Packet& ack);
  void exit_recovery();
  void open_window_on_ack();   // slow start / congestion avoidance growth
  void send_new_data();        // fill the usable window
  void on_timeout() override;
  double usable_window() const;
  SeqNo flight_size() const { return snd_nxt_ - snd_una_; }

  int partial_acks_ = 0;  // partial ACKs in the current recovery episode
  double inflation_ = 0;  // dupack window inflation during recovery
};

class NewRenoSender : public RenoSender {
 public:
  using RenoSender::RenoSender;
  const char* algorithm() const override { return "newreno"; }

 protected:
  // Partial ACKs retransmit the next hole and stay in recovery (RFC 6582).
  void handle_new_ack_in_recovery(SeqNo ack) override;
};

}  // namespace tcppr::tcp
