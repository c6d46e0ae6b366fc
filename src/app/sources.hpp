// Non-TCP endpoint: a counting sink, used by the substrate tests.
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::app {

class PacketSink final : public net::Agent {
 public:
  PacketSink(net::Network& network, net::NodeId local, net::FlowId flow);
  ~PacketSink() override;

  void deliver(net::Packet&& pkt) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }
  sim::TimePoint last_arrival() const { return last_arrival_; }

 private:
  net::Network& network_;
  net::NodeId local_;
  net::FlowId flow_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  sim::TimePoint last_arrival_;
};

}  // namespace tcppr::app
