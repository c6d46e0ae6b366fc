// Graph partitioner for the parallel execution mode (DESIGN.md §4.5).
//
// Nodes are grouped into k logical processes (LPs). A link whose endpoints
// land in different LPs becomes a *cut link*; its propagation delay is the
// conservative lookahead that bounds how far the two LPs may diverge. The
// partitioner therefore never cuts a link with zero propagation delay:
// such links are contracted first (union-find), forcing both endpoints
// into the same LP. The caller may contract additional links the same way
// (e.g. host access links, so endpoints stay with their first router and
// the mailbox protocol only runs on the high-latency core links).
//
// The merged components are then bin-packed into k LPs by weight using
// longest-processing-time-first — deterministic (stable tie-break on
// component id), no randomness — where a component's weight approximates
// its event rate: the number of incident link endpoints plus a caller-
// supplied per-node extra (flow endpoints are far hotter than relays).
//
// If every link contracts into one component the result is a single LP
// (`lp_count() == 1`) and the caller should fall back to sequential
// execution — there is no positive-lookahead cut to parallelize across.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace tcppr::harness {

struct PartitionConfig {
  int target_lps = 2;
  // Treat links faster than this propagation delay as uncuttable, on top
  // of the always-uncuttable zero-delay links. Raising it steers the cut
  // toward the high-latency core where the safe window is widest.
  sim::Duration min_cut_lookahead = sim::Duration::zero();
  // Extra weight per node (indexed by NodeId) added to the incident-link
  // weight; callers load flow endpoints here. May be empty.
  std::vector<double> node_extra_weight;
};

class Partition {
 public:
  // Never produces more LPs than nodes or than `config.target_lps`;
  // the result may have fewer LPs when contraction merges components.
  Partition(const net::Network& network, const PartitionConfig& config);

  int lp_count() const { return lp_count_; }
  int lp_of(net::NodeId node) const { return lp_of_[node]; }
  // Links with lp_of(from) != lp_of(to). Invariant: every cut link has
  // prop_delay > max(0, min_cut_lookahead). Pointers are non-const so the
  // parallel harness can attach mailbox channels.
  const std::vector<net::Link*>& cut_links() const { return cuts_; }

 private:
  int lp_count_ = 1;
  std::vector<int> lp_of_;
  std::vector<net::Link*> cuts_;
};

}  // namespace tcppr::harness
