// Parallel execution harness: binds a built Scenario to the conservative
// parallel engine (sim/parallel_engine.hpp) so one simulation runs across
// several scheduler shards and produces byte-identical results.
//
// Responsibilities, in construction order:
//
//   1. Partition the topology into LPs (harness/partition.hpp). When no
//      positive-lookahead cut exists (lp_count() == 1) the scenario still
//      runs — on a single stamped shard, sequentially.
//   2. Create one Scheduler shard per LP (seq-stamping enabled: event
//      ties break in the canonical (schedule-time, owner node, op index)
//      order, which is independent of the partition — any LP count, 1
//      included, executes the identical trajectory) and one PacketPool per
//      LP (pools are not thread-safe; packets never share a pool across
//      shards).
//   3. Re-point every node, link, sender and receiver at its LP's shard,
//      pool and buffering tracer. Cut links get a mailbox channel, and
//      their delivery side moves to the destination LP: the delivery
//      ring's kDeliver ops ride that LP's pump (unbatched: one event per
//      delivery on that LP's shard).
//   4. Adopt the scenario's build-time events (flow starts, fault
//      injections — Scenario::deferred): cancel on the build scheduler,
//      re-schedule into the owning shard. Afterwards the build scheduler
//      must be empty — a non-empty remainder means the scenario uses a
//      feature the parallel mode does not support (observability probes)
//      and the CHECK names the misuse instead of silently diverging.
//      Dynamic flows come from workload::WorkloadEngine, created after
//      the ParallelSim on the owning shards.
//
// During the run the exchange hook drains each mailbox — in deterministic
// order — into the link's delivery side, packets re-homed in the
// destination LP's pool, each keyed by the stamp minted on the source
// shard (exactly the op position the sequential delivery-schedule call
// occupies). Buffered trace records merge in (time, stamp, emission) order
// into the scenario's real tracer at every barrier.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "harness/partition.hpp"
#include "harness/scenarios.hpp"
#include "net/link_pump.hpp"
#include "net/packet_pool.hpp"
#include "sim/parallel_engine.hpp"
#include "trace/trace.hpp"

namespace tcppr::validate {
class InvariantChecker;
}

namespace tcppr::obs {
class MetricRegistry;
}

namespace tcppr::harness {

struct ParallelRunConfig {
  int lps = 2;
  // Forwarded to the partitioner: links at or below this propagation
  // delay are never cut (zero-delay links never are, regardless).
  sim::Duration min_cut_lookahead = sim::Duration::zero();
};

class ParallelSim {
 public:
  // `scenario` must be fully built (flows added) and not yet run. The
  // ParallelSim borrows it and must be destroyed before it; destruction
  // restores the tracer/mailbox pointers it re-wired (shards stay, owned
  // by the scenario, so rebound timers remain valid through teardown).
  ParallelSim(Scenario& scenario, const ParallelRunConfig& config);
  ~ParallelSim();

  ParallelSim(const ParallelSim&) = delete;
  ParallelSim& operator=(const ParallelSim&) = delete;

  // Runs the simulation to `end` (inclusive). Threaded when the partition
  // yielded more than one LP; a single LP runs sequentially on its shard.
  void run_until(sim::TimePoint end);

  int lp_count() const { return partition_.lp_count(); }
  bool parallel() const { return lp_count() > 1; }
  const Partition& partition() const { return partition_; }
  int lp_of(net::NodeId node) const { return partition_.lp_of(node); }
  // The shard owning `node`. Use for rebinding auxiliary timers
  // (LinkFlapper) before run_until.
  sim::Scheduler& shard_for(net::NodeId node);

  // Sweeps at every barrier (do not start() the checker's own timer in
  // parallel mode); also wires the external in-flight provider so packet
  // conservation balances while packets ride the mailboxes and rings.
  void set_checker(validate::InvariantChecker* checker);

  // Cross-shard packets pushed but whose delivery has not yet executed
  // (riding a mailbox or pending on the destination side).
  std::uint64_t external_in_flight() const;
  std::uint64_t windows() const { return windows_; }
  std::uint64_t exchanged() const { return exchanged_; }

  // Per-LP barrier report (tcppr_sim --par prints this; the obs gauges
  // mirror it). `events` counts the LP's scheduler events; `utilization`
  // is the LP's executed work over the busiest LP's, whole run, where work
  // is events with each pump carrier event replaced by the packet ops it
  // ran (unbatched runs have no pump: work equals events).
  struct LpReport {
    std::uint64_t events = 0;
    double utilization = 0.0;
    std::uint64_t cross_pushed = 0;
  };
  std::vector<LpReport> lp_reports() const;

  // Publishes the per-LP report as obs gauges (par.lp.* keyed by LP index
  // in the flow label, engine totals under par.*) at time `t`. One-shot:
  // call after run_until, with a sink attached to the registry.
  void publish_metrics(obs::MetricRegistry& registry, sim::TimePoint t) const;

  // Events fired across all shards (the parallel counterpart of the build
  // scheduler's processed_count()).
  std::uint64_t events_processed() const;
  // Aggregate batch-pump counters across the per-LP pumps (all zeros when
  // the scenario's network had batching disabled).
  net::LinkPump::Stats pump_stats() const;

 private:
  // Buffers one LP's trace records with the merge key: the record, the
  // stamp of the event that emitted it, and a per-LP emission counter
  // ordering records within one event. Record times are nondecreasing per
  // sink (the shard clock is), so the barrier flush peels the prefix
  // below the horizon.
  class BufferSink final : public trace::TraceSink {
   public:
    struct Keyed {
      trace::Record rec;
      std::uint64_t stamp = 0;
      std::uint64_t idx = 0;
    };
    explicit BufferSink(sim::Scheduler& shard) : shard_(shard) {}
    void record(const trace::Record& record) override {
      buf_.push_back(Keyed{record, shard_.current_event_seq(), next_idx_++});
    }
    std::vector<Keyed>& buffer() { return buf_; }

   private:
    sim::Scheduler& shard_;
    std::vector<Keyed> buf_;
    std::uint64_t next_idx_ = 0;
  };

  struct Mailbox {
    net::CrossLinkChannel channel;
    net::Link* link = nullptr;
    int src_lp = 0;
    int dst_lp = 0;
  };

  std::uint64_t exchange();
  void at_barrier(sim::TimePoint h);
  // Flushes buffered records strictly below `below` (TimePoint::max() at
  // the end of the run flushes everything).
  void flush_traces(sim::TimePoint below);
  void wire_partition();

  Scenario& scenario_;
  Partition partition_;
  std::vector<sim::Scheduler*> shards_;  // borrowed from scenario_.lp_scheds
  std::vector<std::shared_ptr<net::PacketPool>> pools_;
  // One batch pump per LP when the scenario's network is batched (empty
  // after Network::disable_batching). Links are re-pointed here from the network's own
  // pump and detached again in the destructor, before these die.
  std::vector<std::unique_ptr<net::LinkPump>> pumps_;
  std::vector<std::unique_ptr<trace::Tracer>> lp_tracers_;
  std::vector<std::unique_ptr<BufferSink>> sinks_;  // empty when not tracing
  std::deque<Mailbox> mailboxes_;  // deque: links hold channel pointers
  std::vector<sim::ParallelEngine::CutEdge> cut_edges_;
  std::vector<BufferSink::Keyed> merge_;  // flush scratch
  validate::InvariantChecker* checker_ = nullptr;

  std::uint64_t windows_ = 0;
  std::uint64_t exchanged_ = 0;
  bool tracing_ = false;
};

}  // namespace tcppr::harness
