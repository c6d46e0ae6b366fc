// Multi-path transfer: the paper's motivating scenario (Section 5).
//
// A single bulk flow crosses the Figure 5 mesh — four node-disjoint paths
// of increasing length — with per-packet multi-path routing controlled by
// epsilon. Run any sender variant and watch how it copes with the
// persistent reordering the unequal path delays create.
//
//   ./multipath_transfer [variant] [epsilon] [seconds]
//   ./multipath_transfer tcp-pr 0 30
//   ./multipath_transfer sack 0 30
//   variants: tcp-pr sack reno newreno tahoe td-fr dsack-nm inc-by-1
//             inc-by-n ewma eifel tcp-door
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"

using namespace tcppr;

int main(int argc, char** argv) {
  const char* variant_name = argc > 1 ? argv[1] : "tcp-pr";
  const double epsilon = argc > 2 ? std::atof(argv[2]) : 0.0;
  const double seconds = argc > 3 ? std::atof(argv[3]) : 30.0;

  const auto variant = harness::parse_variant(variant_name);
  if (!variant) {
    std::fprintf(stderr, "unknown variant '%s'\n", variant_name);
    return 1;
  }

  harness::MultipathConfig config;
  config.variant = *variant;
  config.epsilon = epsilon;
  auto scenario = harness::make_multipath(config);

  std::printf("%s over %d disjoint paths, epsilon=%g, %.0f s\n",
              variant_name, config.path_count, epsilon, seconds);

  double prev_goodput = 0;
  for (double t = 5; t <= seconds; t += 5) {
    scenario->sched.run_until(sim::TimePoint::from_seconds(t));
    const double goodput =
        static_cast<double>(scenario->receivers[0]->stats().goodput_bytes);
    std::printf("  t=%5.1f s  goodput %6.2f Mbps  cwnd %8.1f\n", t,
                (goodput - prev_goodput) * 8.0 / 5.0 / 1e6,
                scenario->senders[0]->cwnd());
    prev_goodput = goodput;
  }

  const auto& s = scenario->senders[0]->stats();
  const auto& r = scenario->receivers[0]->stats();
  std::printf("\npath usage (data direction):");
  auto* policy =
      dynamic_cast<routing::MultipathSelector*>(scenario->policies[0].get());
  for (int i = 0; i < policy->path_count(); ++i) {
    std::printf("  path%d=%llu", i,
                static_cast<unsigned long long>(policy->picks()[i]));
  }
  std::printf("\nreordering at receiver: %llu out-of-order arrivals, max "
              "displacement %lld segments\n",
              static_cast<unsigned long long>(r.out_of_order),
              static_cast<long long>(r.max_reorder_extent));
  std::printf("sender: %llu retransmissions (%llu spurious detected), "
              "%llu timeouts, %llu halvings\n",
              static_cast<unsigned long long>(s.retransmissions),
              static_cast<unsigned long long>(s.spurious_retransmits_detected),
              static_cast<unsigned long long>(s.timeouts),
              static_cast<unsigned long long>(s.cwnd_halvings));
  std::printf("receiver duplicates (wasted deliveries): %llu\n",
              static_cast<unsigned long long>(r.duplicates));
  std::printf("average goodput: %.2f Mbps\n",
              static_cast<double>(r.goodput_bytes) * 8.0 / seconds / 1e6);
  return 0;
}
