#include "harness/partition.hpp"

#include <algorithm>
#include <numeric>

#include "net/link.hpp"
#include "util/check.hpp"

namespace tcppr::harness {

namespace {

int find_root(std::vector<int>& parent, int x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

}  // namespace

Partition::Partition(const net::Network& network,
                     const PartitionConfig& config) {
  const int n = network.node_count();
  TCPPR_CHECK(n >= 1);
  lp_of_.assign(static_cast<std::size_t>(n), 0);

  // 1. Contract uncuttable links: zero (or below-threshold) propagation
  // delay gives no lookahead, so both endpoints must share an LP.
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  for (const auto& link : network.links()) {
    if (link->prop_delay() > config.min_cut_lookahead) continue;
    const int a = find_root(parent, static_cast<int>(link->from()));
    const int b = find_root(parent, static_cast<int>(link->to()));
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }

  // 2. Component weights ~ event rate: one unit per incident link
  // endpoint plus the caller's per-node extra (flow endpoints).
  std::vector<double> comp_weight(static_cast<std::size_t>(n), 0.0);
  for (int v = 0; v < n; ++v) {
    double w = 1.0;  // every node costs something even when isolated
    if (static_cast<std::size_t>(v) < config.node_extra_weight.size()) {
      w += config.node_extra_weight[static_cast<std::size_t>(v)];
    }
    comp_weight[static_cast<std::size_t>(find_root(parent, v))] += w;
  }
  for (const auto& link : network.links()) {
    comp_weight[static_cast<std::size_t>(
        find_root(parent, static_cast<int>(link->from())))] += 1.0;
    comp_weight[static_cast<std::size_t>(
        find_root(parent, static_cast<int>(link->to())))] += 1.0;
  }

  std::vector<int> roots;
  for (int v = 0; v < n; ++v) {
    if (find_root(parent, v) == v) roots.push_back(v);
  }

  // 3. LPT bin-packing into k bins: heaviest component first, always into
  // the lightest bin, ties broken by lowest bin index / lowest root id —
  // fully deterministic for a given topology.
  const int k = std::clamp(config.target_lps, 1,
                           static_cast<int>(roots.size()));
  std::stable_sort(roots.begin(), roots.end(), [&](int a, int b) {
    return comp_weight[static_cast<std::size_t>(a)] >
           comp_weight[static_cast<std::size_t>(b)];
  });
  std::vector<double> bin_weight(static_cast<std::size_t>(k), 0.0);
  std::vector<int> lp_of_root(static_cast<std::size_t>(n), 0);
  for (const int root : roots) {
    const int bin = static_cast<int>(std::min_element(bin_weight.begin(),
                                                      bin_weight.end()) -
                                     bin_weight.begin());
    lp_of_root[static_cast<std::size_t>(root)] = bin;
    bin_weight[static_cast<std::size_t>(bin)] +=
        comp_weight[static_cast<std::size_t>(root)];
  }
  for (int v = 0; v < n; ++v) {
    lp_of_[static_cast<std::size_t>(v)] =
        lp_of_root[static_cast<std::size_t>(find_root(parent, v))];
  }

  // 4. Collect cut links and the realized LP count. Bins can end up empty
  // (more bins than components never happens because of the clamp, but a
  // degenerate weight distribution can starve one); compact the labels so
  // lp ids are dense.
  std::vector<int> remap(static_cast<std::size_t>(k), -1);
  int next = 0;
  for (int v = 0; v < n; ++v) {
    int& label = remap[static_cast<std::size_t>(lp_of_[v])];
    if (label < 0) label = next++;
    lp_of_[static_cast<std::size_t>(v)] = label;
  }
  lp_count_ = next;

  for (const auto& link : network.links()) {
    if (lp_of_[link->from()] != lp_of_[link->to()]) {
      TCPPR_CHECK(link->prop_delay() > sim::Duration::zero());
      cuts_.push_back(link.get());
    }
  }
  TCPPR_CHECK(lp_count_ > 1 || cuts_.empty());
}

}  // namespace tcppr::harness
