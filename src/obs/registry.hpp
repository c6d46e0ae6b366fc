// MetricRegistry: the hub of the flow-state observability layer.
//
// Metrics are named counters or gauges; every emission carries a per-flow
// label (net::FlowId, or kInvalidFlow for unlabeled series such as queue
// occupancy, whose identity lives in the metric name instead). Names are
// interned into dense MetricIds once, so the emission path never hashes a
// string. Samples fan out to any number of SeriesSinks; the registry also
// keeps the last value / running total per (metric, flow) for programmatic
// queries.
//
// Overhead discipline (same as trace::Tracer): with no sink attached,
// active() is false and every probe call is one predictable branch — no
// sample is built, nothing is stored, nothing is allocated. Probe call
// sites guard with `if (probe_)` (obs/probe.hpp), so the disabled cost is
// a single well-predicted test per instrumented event.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/series.hpp"

namespace tcppr::obs {

// Pre-interned ids for the standard per-flow probe points (obs/probe.hpp).
struct FlowMetrics {
  // Gauges.
  MetricId cwnd = 0;
  MetricId ssthresh = 0;
  MetricId ewrtt = 0;        // seconds (TCP-PR eq. 1 decaying max)
  MetricId mxrtt = 0;        // seconds (beta * ewrtt / backoff override)
  MetricId rto = 0;          // seconds (RFC 6298 estimators)
  MetricId outstanding = 0;  // unacknowledged segments
  MetricId dup_credits = 0;  // TCP-PR dupack window credits
  MetricId backoff = 0;      // 1 while in extreme-loss backoff, else 0
  MetricId rcv_next = 0;     // receiver in-order point
  MetricId ooo_buffered = 0;  // receiver segments buffered above rcv_next
  // Counters.
  MetricId drops_declared = 0;  // sender loss declarations (timer or dupack)
  MetricId retransmissions = 0;
  MetricId extreme_loss = 0;  // TCP-PR §3.2 resets / coarse timeouts
  MetricId out_of_order = 0;  // receiver out-of-order arrivals
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Returns the id for `name`, interning it on first use. Re-interning an
  // existing name returns the original id (the kind must match).
  MetricId intern(std::string_view name, MetricKind kind);
  const std::string& name(MetricId id) const;
  MetricKind kind(MetricId id) const;
  std::size_t metric_count() const { return names_.size(); }

  // The standard per-flow probe metrics, interned on first request.
  const FlowMetrics& flow_metrics();

  void add_sink(SeriesSink* sink);
  bool active() const { return !sinks_.empty(); }

  // Aggregate-only mode: every emission's flow label collapses to
  // kInvalidFlow before it is stored or fanned out. Counters keep summing
  // correctly (the running total becomes the all-flows total); gauges
  // become last-writer-wins. This is the churn-scale mode: the
  // (metric, flow) value table stays O(metrics) instead of O(metrics x
  // flows-ever-created), which is what makes observability affordable when
  // flows arrive and depart by the thousands per second.
  void set_aggregate_only(bool on) { aggregate_only_ = on; }

  // Drops every stored (metric, flow) value for a departed flow. Without
  // this the value table grows by one entry per metric per flow ever
  // labeled — the per-flow leak a churning workload turns into unbounded
  // memory. Call on flow teardown (the workload engine does); sinks that
  // already wrote the flow's samples are unaffected.
  void retire_flow(net::FlowId flow);

  // Entries in the (metric, flow) value table — the regression surface for
  // the churn leak: bounded by metrics x live flows when teardown retires
  // flows, by metrics alone in aggregate-only mode.
  std::size_t tracked_series() const { return values_.size(); }

  // Gauge: record the instantaneous value. No-op when no sink is attached.
  void set(sim::TimePoint t, MetricId metric, net::FlowId flow, double value);
  // Counter: add `delta` to the running total and record the new total.
  void add(sim::TimePoint t, MetricId metric, net::FlowId flow,
           double delta = 1.0);

  // Last recorded value of a gauge / running total of a counter.
  std::optional<double> last(MetricId metric,
                             net::FlowId flow = net::kInvalidFlow) const;
  double total(MetricId metric, net::FlowId flow = net::kInvalidFlow) const;
  std::uint64_t samples_recorded() const { return samples_; }

 private:
  void emit(sim::TimePoint t, MetricId metric, net::FlowId flow, double value);

  std::vector<std::string> names_;
  std::vector<MetricKind> kinds_;
  // Transparent comparator so interning probes with a string_view key.
  std::map<std::string, MetricId, std::less<>> by_name_;
  std::vector<SeriesSink*> sinks_;
  std::map<std::pair<MetricId, net::FlowId>, double> values_;
  bool aggregate_only_ = false;
  std::uint64_t samples_ = 0;
  std::optional<FlowMetrics> flow_metrics_;
};

}  // namespace tcppr::obs
