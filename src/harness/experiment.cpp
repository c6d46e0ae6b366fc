#include "harness/experiment.hpp"

#include <algorithm>
#include <utility>

#include "harness/parallel_run.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "validate/invariants.hpp"

namespace tcppr::harness {

std::vector<double> RunResult::throughputs() const {
  std::vector<double> out;
  out.reserve(flows.size());
  for (const FlowResult& f : flows) out.push_back(f.throughput_bps);
  return out;
}

std::vector<double> RunResult::normalized() const {
  return stats::normalized_throughput(throughputs());
}

double RunResult::mean_normalized(TcpVariant variant) const {
  const std::vector<double> norm = normalized();
  double sum = 0;
  int n = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].variant == variant) {
      sum += norm[i];
      ++n;
    }
  }
  return n == 0 ? 0 : sum / n;
}

double RunResult::cov(TcpVariant variant) const {
  std::vector<double> vals;
  const std::vector<double> norm = normalized();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].variant == variant) vals.push_back(norm[i]);
  }
  return stats::coefficient_of_variation(vals);
}

int RunResult::count(TcpVariant variant) const {
  int n = 0;
  for (const FlowResult& f : flows) {
    if (f.variant == variant) ++n;
  }
  return n;
}

RunResult run_scenario(Scenario& scenario, const MeasurementWindow& window,
                       ParallelSim* psim) {
  TCPPR_CHECK(window.measured <= window.total);
  const sim::TimePoint t_end =
      sim::TimePoint::origin() + window.total;
  const sim::TimePoint t_mark = t_end - window.measured;

  const auto run_to = [&](sim::TimePoint t) {
    if (psim != nullptr) {
      psim->run_until(t);  // all shards stop at the barrier: reads are safe
    } else {
      scenario.sched.run_until(t);
    }
  };
  run_to(t_mark);
  std::vector<std::uint64_t> acked_at_mark;
  std::vector<std::uint64_t> goodput_at_mark;
  for (std::size_t i = 0; i < scenario.senders.size(); ++i) {
    acked_at_mark.push_back(scenario.senders[i]->stats().bytes_newly_acked);
    goodput_at_mark.push_back(scenario.receivers[i]->stats().goodput_bytes);
  }
  if (t_end > t_mark) run_to(t_end);

  RunResult result;
  result.measure_seconds = window.measured.as_seconds();
  result.loss_rate = scenario.bottleneck_loss_rate();
  result.events = psim != nullptr ? psim->events_processed()
                                  : scenario.sched.processed_count();
  for (std::size_t i = 0; i < scenario.senders.size(); ++i) {
    FlowResult fr;
    fr.variant = scenario.variants[i];
    fr.flow = scenario.senders[i]->flow();
    fr.sender = scenario.senders[i]->stats();
    fr.receiver = scenario.receivers[i]->stats();
    const double dt = result.measure_seconds;
    if (dt > 0) {
      fr.throughput_bps =
          static_cast<double>(fr.sender.bytes_newly_acked - acked_at_mark[i]) *
          8.0 / dt;
      fr.goodput_bps =
          static_cast<double>(fr.receiver.goodput_bytes - goodput_at_mark[i]) *
          8.0 / dt;
    }
    result.flows.push_back(fr);
  }
  return result;
}

Run::Run(Scenario& scenario, RunConfig config)
    : scenario_(scenario), config_(std::move(config)) {
  const RunConfig& c = config_;
  if (!c.batching) scenario_.network.disable_batching();

  const std::vector<net::Link*>& bottlenecks = scenario_.bottlenecks;
  for (std::size_t i = 0; i < bottlenecks.size() && i < 2; ++i) {
    if (c.loss_rate > 0) {
      bottlenecks[i]->set_loss_model(c.loss_rate, c.fault_rng.fork(1000 + i));
    }
    if (c.jitter_ms > 0) {
      bottlenecks[i]->set_jitter(sim::Duration::millis(c.jitter_ms),
                                 c.fault_rng.fork(2000 + i));
    }
  }
  // Scheduled through schedule_action (a plain schedule_at in sequential
  // runs) so parallel adoption moves it onto the shard owning the link.
  if (c.reconfigure_mid_run && !bottlenecks.empty()) {
    net::Link* link = bottlenecks.front();
    scenario_.schedule_action(sim::TimePoint::origin() + c.window.total / 2.0,
                              link->from(), [link] {
                                link->set_bandwidth(link->bandwidth_bps() / 2);
                                link->set_prop_delay(link->prop_delay() * 2.0);
                              });
  }

  // Taps attach before anything runs so every delivery is observed; pure
  // observation, so results are byte-identical with or without them.
  if (c.telemetry) {
    std::size_t flows =
        scenario_.senders.size() + scenario_.cross_senders.size();
    if (c.workload) flows += static_cast<std::size_t>(c.workload->id_slots);
    telemetry::TelemetryConfig tc;
    tc.tap.exact_baseline =
        c.validate && flows <= RunConfig::kExactBaselineMaxFlows;
    telemetry_ = std::make_unique<telemetry::Telemetry>(scenario_.network, tc);
  }
  if (c.validate) {
    checker_ = std::make_unique<validate::InvariantChecker>(scenario_);
    checker_->set_telemetry(telemetry_.get());
  }
}

Run::~Run() = default;

RunResult Run::run() {
  const RunConfig& c = config_;
  if (c.par_lps >= 1) {
    ParallelRunConfig pc;
    pc.lps = c.par_lps;
    psim_ = std::make_unique<ParallelSim>(scenario_, pc);
    if (checker_) psim_->set_checker(checker_.get());
  } else if (checker_) {
    checker_->start();
  }

  // The flapper's toggles and the flapped link's queue events must share
  // an LP, so it is created directly on the shard owning the link.
  if (c.flap && !scenario_.bottlenecks.empty()) {
    net::Link* link = scenario_.bottlenecks.front();
    sim::Scheduler& sched =
        psim_ != nullptr ? psim_->shard_for(link->from()) : scenario_.sched;
    flapper_ = std::make_unique<net::LinkFlapper>(
        sched, std::vector<net::Link*>{link}, *c.flap);
    flapper_->start();
  }

  if (c.workload) {
    engine_ = std::make_unique<workload::WorkloadEngine>(
        scenario_, *c.workload, psim_.get());
    // Taps and the registry belong to shard threads under the parallel
    // engine; there, departed flows are displaced from the taps by tenure
    // pressure instead of folded out.
    if (psim_ == nullptr) {
      if (telemetry_) engine_->set_telemetry(telemetry_.get());
      if (c.registry != nullptr) {
        c.registry->set_aggregate_only(true);  // churn scale: no flow labels
        engine_->set_metric_registry(*c.registry);
      }
    }
    engine_->start();
  }

  RunResult result = run_scenario(scenario_, c.window, psim_.get());
  if (engine_) engine_->stop();
  if (flapper_) flapper_->stop();
  if (checker_) checker_->finalize();
  return result;
}

MultipathCell run_multipath_cell(
    const MultipathConfig& config, const MeasurementWindow& window,
    const std::function<void(Scenario&)>& on_built) {
  auto scenario = make_multipath(config);
  if (on_built) on_built(*scenario);
  const RunResult run = run_scenario(*scenario, window);
  TCPPR_CHECK(run.flows.size() == 1);
  MultipathCell cell;
  cell.variant = config.variant;
  cell.epsilon = config.epsilon;
  cell.goodput_bps = run.flows[0].goodput_bps;
  cell.throughput_bps = run.flows[0].throughput_bps;
  cell.retransmissions = run.flows[0].sender.retransmissions;
  cell.timeouts = run.flows[0].sender.timeouts;
  cell.spurious = run.flows[0].sender.spurious_retransmits_detected;
  cell.loss_rate = run.loss_rate;
  return cell;
}

}  // namespace tcppr::harness
