#include "app/sources.hpp"

namespace tcppr::app {

PacketSink::PacketSink(net::Network& network, net::NodeId local,
                       net::FlowId flow)
    : network_(network), local_(local), flow_(flow) {
  network_.node(local_).attach_agent(flow_, this);
}

PacketSink::~PacketSink() { network_.node(local_).detach_agent(flow_); }

void PacketSink::deliver(net::Packet&& pkt) {
  ++packets_;
  bytes_ += pkt.size_bytes;
  last_arrival_ = network_.scheduler().now();
}

}  // namespace tcppr::app
