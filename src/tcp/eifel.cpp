#include "tcp/eifel.hpp"

#include "util/logging.hpp"

namespace tcppr::tcp {

EifelSender::EifelSender(net::Network& network, net::NodeId local,
                         net::NodeId remote, FlowId flow, TcpConfig config)
    : SackSender(network, local, remote, flow, config) {}

void EifelSender::on_new_ack_hook(const net::Packet& ack) {
  // advance_una() ran just before this hook, so recent_rtx_ still holds
  // records for the newly covered region (they are pruned with slack).
  // If the ACK covers a retransmitted segment but echoes a timestamp taken
  // before that retransmission, the original transmission produced it.
  SeqNo seq = -1;  // the newest spurious retransmission, if any
  for (const auto& [s, rtx] : recent_rtx_) {
    if (s >= ack.tcp.ack) break;
    if (ack.tcp.ts_echo > 0 && ack.tcp.ts_echo < rtx.rtx_time.as_seconds()) {
      seq = s;
    }
  }
  if (seq < 0) return;
  recent_rtx_.erase(recent_rtx_.begin(),
                    recent_rtx_.lower_bound(ack.tcp.ack));
  ++stats_.spurious_retransmits_detected;
  TCPPR_LOG_DEBUG("eifel", "flow %d spurious rtx of %lld (ts echo)", flow(),
                  static_cast<long long>(seq));
  // Eifel restores the full pre-retransmission state.
  undo_last_reduction(/*full_restore=*/true);
}

}  // namespace tcppr::tcp
