#include "harness/parallel_run.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "net/node.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"
#include "validate/invariants.hpp"

namespace tcppr::harness {

namespace {

PartitionConfig make_partition_config(const Scenario& scenario,
                                      const ParallelRunConfig& config) {
  PartitionConfig pc;
  pc.target_lps = config.lps;
  pc.min_cut_lookahead = config.min_cut_lookahead;
  // Flow endpoints dominate the event rate (per-packet sender/receiver
  // work plus their access-link hops); weight them well above relays so
  // LPT packs hosts apart before balancing routers.
  pc.node_extra_weight.assign(
      static_cast<std::size_t>(scenario.network.node_count()), 0.0);
  const auto add = [&pc](net::NodeId v) {
    pc.node_extra_weight[static_cast<std::size_t>(v)] += 8.0;
  };
  for (const auto& s : scenario.senders) add(s->local_node());
  for (const auto& s : scenario.cross_senders) add(s->local_node());
  for (const auto& r : scenario.receivers) add(r->local_node());
  for (const auto& r : scenario.cross_receivers) add(r->local_node());
  return pc;
}

}  // namespace

ParallelSim::ParallelSim(Scenario& scenario, const ParallelRunConfig& config)
    : scenario_(scenario),
      partition_(scenario.network, make_partition_config(scenario, config)) {
  // Even when the partition degenerates to one LP the scenario still runs
  // on a stamped shard: stamp order is partition-independent, so digests
  // from any requested LP count (including 1) are directly comparable.
  const int k = lp_count();
  TCPPR_CHECK(scenario_.lp_scheds.empty());
  net::Network& nw = scenario_.network;
  TCPPR_CHECK(nw.node_count() <=
              (1 << sim::Scheduler::kStampEntityBits));
  tracing_ = nw.tracer().active();
  for (int lp = 0; lp < k; ++lp) {
    scenario_.lp_scheds.push_back(
        std::make_unique<sim::Scheduler>());
    sim::Scheduler* shard = scenario_.lp_scheds.back().get();
    shard->enable_seq_stamping();
    shards_.push_back(shard);
    pools_.push_back(net::PacketPool::create());
    if (nw.pump() != nullptr) {
      pumps_.push_back(std::make_unique<net::LinkPump>(*shard));
    }
    lp_tracers_.push_back(std::make_unique<trace::Tracer>());
    if (tracing_) {
      sinks_.push_back(std::make_unique<BufferSink>(*shard));
      lp_tracers_.back()->add_sink(sinks_.back().get());
    }
  }
  wire_partition();

  for (const auto& s : scenario_.senders) {
    s->rebind_scheduler(shard_for(s->local_node()));
  }
  for (const auto& s : scenario_.cross_senders) {
    s->rebind_scheduler(shard_for(s->local_node()));
  }
  for (const auto& r : scenario_.receivers) {
    r->rebind_scheduler(shard_for(r->local_node()));
  }
  for (const auto& r : scenario_.cross_receivers) {
    r->rebind_scheduler(shard_for(r->local_node()));
  }

  // Adopt the build-time events. Their stamps are a plain build-order
  // counter in the reserved pre-run range below every runtime stamp (the
  // scheduler's +1 time shift — see enable_seq_stamping), so same-time
  // ties against runtime events resolve exactly as the sequential
  // scheduler's insertion order did: build-time events first, in build
  // order — identically on every LP count.
  std::uint64_t adopt_seq = 0;
  for (const auto& d : scenario_.deferred) {
    scenario_.sched.cancel(d.id);
    shard_for(d.affinity).schedule_at_stamped(d.at, adopt_seq++, d.fn);
  }
  TCPPR_CHECK(adopt_seq < (std::uint64_t{1}
                           << (sim::Scheduler::kStampOpBits +
                               sim::Scheduler::kStampEntityBits)));
  // Anything left on the build scheduler was scheduled outside
  // Scenario::schedule_action and would silently never run: the scenario
  // uses a feature the parallel mode does not support (observability
  // probes).
  TCPPR_CHECK(scenario_.sched.pending_count() == 0);
}

ParallelSim::~ParallelSim() {
  net::Network& nw = scenario_.network;
  for (Mailbox& mb : mailboxes_) mb.link->set_remote_channel(nullptr);
  for (int v = 0; v < nw.node_count(); ++v) {
    nw.node(static_cast<net::NodeId>(v))
        .set_tracer(&nw.tracer(), &scenario_.sched);
  }
  for (const auto& link : nw.links()) {
    link->set_tracer(&nw.tracer());
    // Drop any batched in-flight state before the per-LP pumps die; the
    // links keep their shard schedulers (like the timers), so re-pointing
    // them at the network's build-scheduler pump would be wrong.
    if (!pumps_.empty()) link->detach_pump();
  }
}

void ParallelSim::wire_partition() {
  // Construction-time wiring: links are idle, so the checked setters
  // apply. Cut links additionally get a mailbox channel.
  net::Network& nw = scenario_.network;
  for (int v = 0; v < nw.node_count(); ++v) {
    const int lp = lp_of(static_cast<net::NodeId>(v));
    nw.node(static_cast<net::NodeId>(v))
        .set_tracer(lp_tracers_[static_cast<std::size_t>(lp)].get(),
                    shards_[static_cast<std::size_t>(lp)]);
  }
  // A link's queue/transmit/propagation events all run on its *source*
  // LP; only the final delivery may cross: a cut link's delivery side
  // (ring, pump, scheduler) moves to the destination LP.
  const auto pump_of = [this](int lp) {
    return pumps_.empty() ? nullptr
                          : pumps_[static_cast<std::size_t>(lp)].get();
  };
  for (const auto& link : nw.links()) {
    const int lp = lp_of(link->from());
    link->set_scheduler(*shards_[static_cast<std::size_t>(lp)]);
    link->set_packet_pool(pools_[static_cast<std::size_t>(lp)]);
    link->set_tracer(lp_tracers_[static_cast<std::size_t>(lp)].get());
    link->set_pump(pump_of(lp));
  }
  for (net::Link* cut : partition_.cut_links()) {
    mailboxes_.emplace_back();
    Mailbox& mb = mailboxes_.back();
    mb.link = cut;
    mb.src_lp = lp_of(cut->from());
    mb.dst_lp = lp_of(cut->to());
    cut->set_remote_channel(&mb.channel);
    cut->set_delivery_side(*shards_[static_cast<std::size_t>(mb.dst_lp)],
                           pump_of(mb.dst_lp));
    cut_edges_.push_back(
        sim::ParallelEngine::CutEdge{mb.src_lp, cut->prop_delay()});
  }
}

sim::Scheduler& ParallelSim::shard_for(net::NodeId node) {
  return *shards_[static_cast<std::size_t>(lp_of(node))];
}

void ParallelSim::set_checker(validate::InvariantChecker* checker) {
  checker_ = checker;
  if (checker_ != nullptr) {
    checker_->set_external_in_flight([this] { return external_in_flight(); });
  }
}

net::LinkPump::Stats ParallelSim::pump_stats() const {
  net::LinkPump::Stats total{};
  for (const auto& pump : pumps_) {
    const net::LinkPump::Stats& s = pump->stats();
    total.events += s.events;
    total.ops += s.ops;
  }
  return total;
}

std::uint64_t ParallelSim::events_processed() const {
  std::uint64_t total = 0;
  for (const sim::Scheduler* s : shards_) total += s->processed_count();
  return total;
}

std::uint64_t ParallelSim::external_in_flight() const {
  std::uint64_t total = 0;
  for (const Mailbox& mb : mailboxes_) {
    total += mb.channel.pushed - mb.channel.executed;
  }
  return total;
}

std::vector<ParallelSim::LpReport> ParallelSim::lp_reports() const {
  std::vector<LpReport> out(shards_.size());
  // Work, not events: a pump carrier event runs a chain of packet ops (cut
  // link deliveries among them), so it counts as the ops it executed.
  std::vector<std::uint64_t> work(out.size());
  std::uint64_t busiest = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].events = shards_[i]->processed_count();
    work[i] = out[i].events;
    if (!pumps_.empty()) {
      const net::LinkPump::Stats& s = pumps_[i]->stats();
      work[i] += s.ops - s.events;  // ops >= carrier events
    }
    busiest = std::max(busiest, work[i]);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].utilization = busiest > 0 ? static_cast<double>(work[i]) /
                                           static_cast<double>(busiest)
                                     : 0.0;
  }
  for (const Mailbox& mb : mailboxes_) {
    out[static_cast<std::size_t>(mb.src_lp)].cross_pushed +=
        mb.channel.pushed;
  }
  return out;
}

void ParallelSim::publish_metrics(obs::MetricRegistry& registry,
                                  sim::TimePoint t) const {
  const auto gauge = [&](const char* name) {
    return registry.intern(name, obs::MetricKind::kGauge);
  };
  const obs::MetricId lp_events = gauge("par.lp.events");
  const obs::MetricId lp_util = gauge("par.lp.utilization");
  const obs::MetricId lp_cross = gauge("par.lp.cross_pushed");
  const auto reports = lp_reports();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    // The flow label carries the LP index: one labeled series per LP, the
    // same trick the per-flow probes use.
    const auto lp = static_cast<net::FlowId>(i);
    registry.set(t, lp_events, lp, static_cast<double>(reports[i].events));
    registry.set(t, lp_util, lp, reports[i].utilization);
    registry.set(t, lp_cross, lp,
                 static_cast<double>(reports[i].cross_pushed));
  }
  registry.set(t, gauge("par.windows"), net::kInvalidFlow,
               static_cast<double>(windows_));
}

void ParallelSim::run_until(sim::TimePoint end) {
  sim::ParallelEngine::Hooks hooks;
  hooks.exchange = [this] { return exchange(); };
  hooks.at_barrier = [this](sim::TimePoint h) { at_barrier(h); };
  sim::ParallelEngine engine(shards_, cut_edges_, std::move(hooks));
  engine.run_until(end);
  windows_ += engine.windows();
  exchanged_ += engine.exchanged();
  if (tracing_) flush_traces(sim::TimePoint::max());
}

std::uint64_t ParallelSim::exchange() {
  std::uint64_t drained = 0;
  // Deterministic drain order (mailbox creation order, push order within
  // one mailbox); final ordering comes from the stamps, not this loop.
  for (Mailbox& mb : mailboxes_) {
    auto& buf = mb.channel.buf;
    if (buf.empty()) continue;
    net::PacketPool& pool = *pools_[static_cast<std::size_t>(mb.dst_lp)];
    for (net::CrossLinkMsg& msg : buf) {
      // Scheduled on the destination side at the stamp minted on the
      // source shard — exactly the op position the sequential
      // delivery-schedule call occupies.
      mb.link->schedule_delivery(msg.at, msg.stamp,
                                 pool.make(std::move(msg.pkt)));
    }
    drained += buf.size();
    buf.clear();
  }
  return drained;
}

void ParallelSim::at_barrier(sim::TimePoint h) {
  if (tracing_) flush_traces(h);
  // Advance the (empty) build scheduler's clock so wall-clock readers —
  // violation timestamps, stats printed mid-run — see the barrier time.
  scenario_.sched.run_until(h);
  if (checker_ != nullptr) checker_->check_now();
}

void ParallelSim::flush_traces(sim::TimePoint below) {
  merge_.clear();
  for (auto& sink : sinks_) {
    auto& buf = sink->buffer();
    // Record times are nondecreasing per sink, so the region below the
    // barrier is a prefix; every shard has executed past it.
    const auto split = std::partition_point(
        buf.begin(), buf.end(), [below](const BufferSink::Keyed& k) {
          return k.rec.time < below;
        });
    if (split == buf.begin()) continue;
    merge_.insert(merge_.end(), std::make_move_iterator(buf.begin()),
                  std::make_move_iterator(split));
    buf.erase(buf.begin(), split);
  }
  std::sort(merge_.begin(), merge_.end(),
            [](const BufferSink::Keyed& a, const BufferSink::Keyed& b) {
              if (a.rec.time < b.rec.time) return true;
              if (b.rec.time < a.rec.time) return false;
              if (a.stamp != b.stamp) return a.stamp < b.stamp;
              return a.idx < b.idx;
            });
  trace::Tracer& root = scenario_.network.tracer();
  for (const BufferSink::Keyed& k : merge_) root.dispatch(k.rec);
}

}  // namespace tcppr::harness
