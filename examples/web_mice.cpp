// Web mice over multi-path routing: flow completion times.
//
// Short transfers are where loss-detection latency and spurious
// retransmissions hurt the most — a single bogus recovery can double a
// mouse's lifetime. This example runs a Poisson stream of short transfers
// (10-30 segments, log-uniform) across the Figure 5 mesh, next to the
// mesh's bulk flow, with full multi-path spraying, and compares the mean
// completion time of TCP-PR mice against SACK mice.
//
//   ./web_mice [epsilon] [seconds]
//   ./web_mice 0 60
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"

namespace {

using namespace tcppr;
using harness::TcpVariant;

workload::WorkloadStats run(TcpVariant variant, double epsilon,
                            double seconds) {
  // The mesh's bulk flow stays TCP-PR in both rows, so the rows differ
  // only in the mice's variant.
  harness::MultipathConfig mc;
  mc.epsilon = epsilon;
  auto scenario = harness::make_multipath(mc);

  // Web arrivals with no elephants: every flow is a log-uniform mouse, all
  // of one variant.
  workload::WorkloadConfig wc;
  wc.kind = workload::WorkloadKind::kWeb;
  wc.arrival_rate = 2.5;
  wc.elephant_fraction = 0;
  wc.mouse_min_segments = 10;
  wc.mouse_max_segments = 30;
  wc.pr_fraction = variant == TcpVariant::kTcpPr ? 1.0 : 0.0;
  wc.seed = 5;

  harness::RunConfig rc;
  rc.window.total = sim::Duration::seconds(seconds);
  rc.window.measured = rc.window.total;
  rc.workload = wc;
  harness::Run run(*scenario, rc);
  run.run();
  return run.engine()->stats();
}

}  // namespace

int main(int argc, char** argv) {
  const double epsilon = argc > 1 ? std::atof(argv[1]) : 0.0;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 60.0;
  std::printf(
      "short transfers (10-30 segments) over the multi-path mesh, "
      "epsilon=%g, %g s\n\n",
      epsilon, seconds);
  std::printf("%-10s %10s %12s\n", "variant", "completed", "mean FCT");
  for (const TcpVariant v : {TcpVariant::kTcpPr, TcpVariant::kSack}) {
    const workload::WorkloadStats s = run(v, epsilon, seconds);
    std::printf("%-10s %10llu %10.3f s\n", to_string(v),
                static_cast<unsigned long long>(s.completed),
                s.mean_completion_s());
  }
  std::printf(
      "\nwith epsilon=0 (full spraying) TCP-PR mice should finish sooner:"
      "\na single spurious recovery can double a SACK mouse's lifetime;"
      "\nwith epsilon=500 (single path) both should tie.\n");
  return 0;
}
