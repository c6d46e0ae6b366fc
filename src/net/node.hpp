// Network node: forwards packets and hosts transport agents.
//
// Forwarding uses the packet's source route when present (multi-path
// experiments) and the node's static next-hop table otherwise. Agents
// (TCP senders/receivers, packet sinks) register per flow id.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"

namespace tcppr::trace {
class Tracer;
}

namespace tcppr::net {

// A transport endpoint attached to a node.
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void deliver(Packet&& pkt) = 0;
  // Hands entries [begin, end) of a batch over one at a time. Links
  // deliver packet by packet, so nothing in the simulator calls this; it
  // remains because perfbench's timing wrapper overrides it.
  virtual void deliver_batch(PacketBatch& batch, std::size_t begin,
                             std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) deliver(std::move(batch[i]));
  }
};

// Decides a full route for packets originated at a node; used to implement
// per-packet multi-path routing. Returning nullopt falls back to the
// node's next-hop table.
class SourceRoutingPolicy {
 public:
  struct Choice {
    RouteVec route;  // nodes after this one, ending at dst
    int path_id = -1;
  };
  virtual ~SourceRoutingPolicy() = default;
  virtual std::optional<Choice> choose_route(NodeId dst) = 0;
};

struct NodeStats {
  std::uint64_t originated = 0;  // packets injected by local agents
  std::uint64_t forwarded = 0;
  std::uint64_t delivered_to_agent = 0;
  std::uint64_t unroutable = 0;  // no next hop / no agent: dropped
};

class Node {
 public:
  explicit Node(NodeId id) : id_(id) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  void add_out_link(Link* link);
  void set_next_hop(NodeId dst, NodeId next_hop);
  void attach_agent(FlowId flow, Agent* agent);
  void detach_agent(FlowId flow);
  // Fallback agent for flows with no per-flow registration: packets whose
  // flow id misses the agent table deliver here instead of counting as
  // unroutable. This is how the workload layer demultiplexes dynamically
  // arriving flows — one server agent accepts the first segment of a flow
  // that does not exist yet and creates its receiver on the spot (the
  // creation then registers per-flow, so the fallback is off the hot path
  // after the first packet). nullptr clears it. The fallback is never
  // stored in the one-entry lookup cache: the cache must keep pointing at
  // per-flow agents that register later under the same flow id.
  void set_default_agent(Agent* agent) { default_agent_ = agent; }
  Agent* default_agent() const { return default_agent_; }
  // Registered per-flow agents (does not count the default agent). The
  // lifecycle-leak tests assert this returns to baseline after churn.
  std::size_t agent_count() const { return agents_.size(); }
  // Policy applies to packets originated here (not transit traffic).
  void set_source_routing_policy(SourceRoutingPolicy* policy) {
    routing_policy_ = policy;
  }
  void set_tracer(trace::Tracer* tracer, sim::Scheduler* sched) {
    tracer_ = tracer;
    sched_ = sched;
  }
  // ECMP-style equal-cost spreading for transit/originated traffic toward
  // dst: each packet picks uniformly among the given neighbors. Overrides
  // the single next-hop entry.
  void set_ecmp_next_hops(NodeId dst, std::vector<NodeId> next_hops,
                          sim::Rng rng);

  // Entry point for packets arriving from a link.
  void receive(Packet&& pkt);
  // Entry point for locally generated packets.
  void originate(Packet&& pkt);
  // Burst entry point: a sender's window burst (SenderBase::BurstScope). Runs
  // the per-packet originate prologue (stats, routing policy, trace) in
  // order, then hands consecutive same-link runs to Link::send_batch.
  void originate_burst(PacketBatch&& batch);

  Link* link_to(NodeId neighbor) const;
  const NodeStats& stats() const { return stats_; }

 private:
  void forward(Packet&& pkt);
  // Forwarding decision only (source route / ECMP / next-hop table, with
  // the same stats and route_pos mutations as forward()); nullptr when
  // unroutable.
  Link* pick_link(Packet& pkt);
  // The originate() prologue shared with originate_burst().
  void originate_prologue(Packet& pkt);
  // Agent lookup with a one-entry cache: delivery streams are bursty per
  // flow, so consecutive lookups usually hit the same agent.
  Agent* find_agent(FlowId flow) {
    if (cached_agent_ != nullptr && cached_flow_ == flow) {
      return cached_agent_;
    }
    const auto it = agents_.find(flow);
    if (it == agents_.end()) return default_agent_;
    cached_flow_ = flow;
    cached_agent_ = it->second;
    return cached_agent_;
  }

  NodeId id_;
  std::unordered_map<NodeId, Link*> out_links_;     // by neighbor id
  // dst -> resolved outgoing link, so forwarding pays one table lookup
  // instead of two (dst -> neighbor -> link).
  std::unordered_map<NodeId, Link*> next_hop_table_;
  std::unordered_map<FlowId, Agent*> agents_;
  Agent* default_agent_ = nullptr;
  FlowId cached_flow_ = kInvalidFlow;
  Agent* cached_agent_ = nullptr;
  std::unordered_map<NodeId, std::vector<NodeId>> ecmp_table_;
  SourceRoutingPolicy* routing_policy_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  sim::Scheduler* sched_ = nullptr;
  sim::Rng ecmp_rng_{0};
  NodeStats stats_;
};

}  // namespace tcppr::net
