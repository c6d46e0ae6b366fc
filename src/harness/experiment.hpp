// Experiment runner: executes a Scenario for a warm-up plus measurement
// window and extracts per-flow throughput and summary metrics, exactly the
// quantities the paper plots (throughput over the last 60 s, normalized
// throughput, mean normalized throughput per protocol, CoV). Run wraps
// run_scenario with everything else a run can carry: fault processes,
// telemetry, the invariant checker, the parallel engine, batching and a
// dynamic-churn overlay.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/scenarios.hpp"
#include "net/link_flapper.hpp"
#include "sim/random.hpp"
#include "stats/metrics.hpp"
#include "workload/workload.hpp"

namespace tcppr::telemetry {
class Telemetry;
}

namespace tcppr::validate {
class InvariantChecker;
}

namespace tcppr::harness {

class ParallelSim;

struct MeasurementWindow {
  sim::Duration total = sim::Duration::seconds(160);
  sim::Duration measured = sim::Duration::seconds(60);  // trailing window
};

struct FlowResult {
  TcpVariant variant;
  net::FlowId flow = net::kInvalidFlow;
  double throughput_bps = 0;  // new data acked in the measurement window
  double goodput_bps = 0;     // receiver in-order delivery, same window
  tcp::SenderStats sender;    // cumulative over the whole run
  tcp::ReceiverStats receiver;
};

struct RunResult {
  std::vector<FlowResult> flows;
  double measure_seconds = 0;
  double loss_rate = 0;        // bottleneck queues, whole run
  std::uint64_t events = 0;    // scheduler events processed

  std::vector<double> throughputs() const;
  // Per-flow normalized throughput T_i (Section 4).
  std::vector<double> normalized() const;
  // Mean normalized throughput of flows with the given variant.
  double mean_normalized(TcpVariant variant) const;
  // Coefficient of variation of T_i over flows of the given variant.
  double cov(TcpVariant variant) const;
  int count(TcpVariant variant) const;
};

// Runs the scenario to window.total, measuring the trailing
// window.measured seconds. When `psim` is non-null the simulation runs
// through the parallel harness (which must wrap this very scenario);
// results are byte-identical either way.
RunResult run_scenario(Scenario& scenario, const MeasurementWindow& window,
                       ParallelSim* psim = nullptr);

// Settings of one run beyond the built scenario; the defaults are a plain
// sequential, batched run with nothing attached.
struct RunConfig {
  MeasurementWindow window;
  // Faults over scenario.bottlenecks: loss and jitter on the first two
  // (RNGs forked from fault_rng); outages and a mid-run reconfiguration
  // (bandwidth halved, delay doubled at window.total / 2) on the first.
  double loss_rate = 0;
  double jitter_ms = 0;
  std::optional<net::LinkFlapper::Config> flap;
  bool reconfigure_mid_run = false;
  sim::Rng fault_rng;
  // A reordering tap per link. Under `validate` the taps also carry the
  // exact per-flow baseline — O(flows) per link, so only while the run's
  // flows and workload id slots number at most kExactBaselineMaxFlows.
  bool telemetry = false;
  static constexpr std::size_t kExactBaselineMaxFlows = std::size_t{1} << 16;
  bool validate = false;  // run under the InvariantChecker
  int par_lps = 0;        // >= 1: the parallel engine on that many LPs
  bool batching = true;   // false: Network::disable_batching
  std::optional<workload::WorkloadConfig> workload;  // churn overlay
  // Sequential runs with a workload: its aggregate metrics go here.
  obs::MetricRegistry* registry = nullptr;
};

// One run of a built scenario. Each attached object is a member, declared
// in the one legal construction order and destroyed in reverse:
//   - the constructor applies batching and the faults and creates the
//     telemetry and the checker. Callers may still add build-time actions
//     (Scenario::schedule_action) before run().
//   - run() creates the ParallelSim, which adopts every build-time event
//     (the checker then sweeps at its barriers), the flapper on the shard
//     owning its link, and the workload engine (hooked to the telemetry
//     and the registry in sequential runs only); then it runs
//     run_scenario's window, stops both, and finalizes the checker.
// Accessors return null for objects the config leaves out. The scenario
// must outlive the Run.
class Run {
 public:
  Run(Scenario& scenario, RunConfig config);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  RunResult run();  // once

  telemetry::Telemetry* telemetry() const { return telemetry_.get(); }
  validate::InvariantChecker* checker() const { return checker_.get(); }
  ParallelSim* psim() const { return psim_.get(); }
  workload::WorkloadEngine* engine() const { return engine_.get(); }

 private:
  Scenario& scenario_;
  RunConfig config_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::unique_ptr<validate::InvariantChecker> checker_;
  std::unique_ptr<ParallelSim> psim_;
  std::unique_ptr<net::LinkFlapper> flapper_;
  std::unique_ptr<workload::WorkloadEngine> engine_;
};

// One Figure 6 cell: single flow over the multi-path mesh; returns the
// measured goodput in bps.
struct MultipathCell {
  TcpVariant variant;
  double epsilon = 0;
  double goodput_bps = 0;
  double throughput_bps = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t spurious = 0;
  double loss_rate = 0;
};
// `on_built` (optional) runs after the scenario is constructed and before
// the simulation starts — the hook for attach_observability and trace
// sinks, which must outlive the run.
MultipathCell run_multipath_cell(
    const MultipathConfig& config, const MeasurementWindow& window,
    const std::function<void(Scenario&)>& on_built = nullptr);

}  // namespace tcppr::harness
