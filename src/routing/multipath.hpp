// Multi-path routing policies.
//
// MultipathSelector implements the paper's ε-parameterized family
// (Section 5, from the authors' routing-games work): per-packet path
// sampling with probability  p_i ∝ exp(−ε · (c_i − c_min)/c_min)  over a
// set of (node-disjoint) paths. ε = 0 yields uniform use of all paths;
// large ε (the paper uses 500 as "∞") collapses to shortest-path routing.
//
// RouteFlapPolicy (extension) models route oscillation between paths with
// different RTTs — the "route flaps" cause of reordering cited in the
// introduction [Paxson 96].
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::routing {

struct PathSet {
  NodeId src = net::kInvalidNode;
  NodeId dst = net::kInvalidNode;
  std::vector<std::vector<NodeId>> paths;  // each includes src and dst
  std::vector<double> costs;               // same order as paths

  // Enumerates node-disjoint paths of the network graph.
  static PathSet disjoint_paths(const net::Network& network, NodeId src,
                                NodeId dst);
};

class MultipathSelector final : public net::SourceRoutingPolicy {
 public:
  MultipathSelector(PathSet paths, double epsilon, sim::Rng rng);

  std::optional<Choice> choose_route(NodeId dst) override;

  const std::vector<double>& weights() const { return weights_; }
  // Empirical per-path selection counts.
  const std::vector<std::uint64_t>& picks() const { return picks_; }
  int path_count() const { return static_cast<int>(paths_.paths.size()); }

 private:
  PathSet paths_;
  std::vector<double> weights_;
  std::vector<std::uint64_t> picks_;
  sim::Rng rng_;
};

class RouteFlapPolicy final : public net::SourceRoutingPolicy {
 public:
  // Switches round-robin among paths every flap_interval.
  RouteFlapPolicy(sim::Scheduler& sched, PathSet paths,
                  sim::Duration flap_interval);

  std::optional<Choice> choose_route(NodeId dst) override;

 private:
  sim::Scheduler& sched_;
  PathSet paths_;
  sim::Duration interval_;
  sim::TimePoint started_;
  int current_ = 0;
};

}  // namespace tcppr::routing
