#include "tcp/mitigation.hpp"

#include <algorithm>


namespace tcppr::tcp {

const char* to_string(DupthreshPolicy policy) {
  switch (policy) {
    case DupthreshPolicy::kDsackNoMitigation:
      return "dsack-nm";
    case DupthreshPolicy::kIncByOne:
      return "inc-by-1";
    case DupthreshPolicy::kIncByN:
      return "inc-by-n";
    case DupthreshPolicy::kEwma:
      return "ewma";
  }
  return "?";
}

MitigationSender::MitigationSender(net::Network& network, net::NodeId local,
                                   net::NodeId remote, FlowId flow,
                                   DupthreshPolicy policy, TcpConfig config)
    : SackSender(network, local, remote, flow, config),
      policy_(policy),
      ewma_(config.dupthresh) {
  process_dsack_ = true;
}

void MitigationSender::on_spurious_retransmit(SeqNo /*seq*/,
                                              int reorder_extent) {
  // Undo the congestion response that the spurious retransmission caused
  // (all four variants do this; DSACK-NM does only this).
  undo_last_reduction(/*full_restore=*/false);

  switch (policy_) {
    case DupthreshPolicy::kDsackNoMitigation:
      break;
    case DupthreshPolicy::kIncByOne:
      dupthresh_ += 1;
      break;
    case DupthreshPolicy::kIncByN:
      dupthresh_ = (dupthresh_ + static_cast<double>(reorder_extent)) / 2.0;
      break;
    case DupthreshPolicy::kEwma:
      ewma_ = (1.0 - kEwmaGain) * ewma_ +
              kEwmaGain * static_cast<double>(reorder_extent);
      dupthresh_ = std::max(3.0, ewma_);
      break;
  }
}

}  // namespace tcppr::tcp
