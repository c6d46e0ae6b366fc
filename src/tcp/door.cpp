#include "tcp/door.hpp"

#include <algorithm>

namespace tcppr::tcp {

DoorSender::DoorSender(net::Network& network, net::NodeId local,
                       net::NodeId remote, FlowId flow, TcpConfig config,
                       DoorParams params)
    : NewRenoSender(network, local, remote, flow, config), params_(params) {}

bool DoorSender::response_disabled() const {
  return now() - last_ooo_at_ <= params_.t1;
}

void DoorSender::on_ack_packet(const net::Packet& ack) {
  // Out-of-order detection: the receiver echoes the transmission serial of
  // the segment that triggered each ACK; a serial below the highest one
  // already echoed means ACKs (or the data that produced them) crossed.
  if (ack.tcp.echo_serial != 0) {
    if (ack.tcp.echo_serial < highest_echo_serial_) {
      ++ooo_events_;
      last_ooo_at_ = now();
      // Instant recovery: a congestion response in the recent past was
      // likely triggered by this reordering, not by loss.
      if (now() - last_reduction_at_ <= params_.t2 &&
          pre_reduction_cwnd_ > 0) {
        cwnd_ = std::max(cwnd_, pre_reduction_cwnd_);
        ssthresh_ = std::max(ssthresh_, pre_reduction_ssthresh_);
        in_recovery_ = false;
        inflation_ = 0;
        dupacks_ = 0;
        pre_reduction_cwnd_ = 0;
        notify_cwnd(cwnd_);
      }
    } else {
      highest_echo_serial_ = ack.tcp.echo_serial;
    }
  }
  NewRenoSender::on_ack_packet(ack);
}

void DoorSender::handle_dupack(const net::Packet& ack) {
  if (response_disabled() && !in_recovery_) {
    // Congestion control frozen for T1 after an out-of-order observation:
    // dupacks accumulate but trigger nothing.
    ++dupacks_;
    return;
  }
  NewRenoSender::handle_dupack(ack);
}

void DoorSender::enter_fast_recovery() {
  pre_reduction_cwnd_ = cwnd_;
  pre_reduction_ssthresh_ = ssthresh_;
  last_reduction_at_ = now();
  NewRenoSender::enter_fast_recovery();
}

}  // namespace tcppr::tcp
