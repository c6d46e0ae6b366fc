#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "harness/parallel_run.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace tcppr::workload {

const char* to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPoisson:
      return "poisson";
    case WorkloadKind::kWeb:
      return "web";
    case WorkloadKind::kOnOff:
      return "onoff";
  }
  return "?";
}

bool parse_workload_kind(std::string_view name, WorkloadKind* out) {
  if (name == "poisson") {
    *out = WorkloadKind::kPoisson;
  } else if (name == "web") {
    *out = WorkloadKind::kWeb;
  } else if (name == "onoff") {
    *out = WorkloadKind::kOnOff;
  } else {
    return false;
  }
  return true;
}

WorkloadConfig million_workload_config(int concurrent) {
  WorkloadConfig wc;
  wc.kind = WorkloadKind::kOnOff;
  // Population slightly above the concurrency cap: with ~1 s thinks
  // between ~20 s transfers each source is busy ~95% of the time, so the
  // extra 1/16 keeps the cap saturated — active pins at max_concurrent
  // instead of hovering just below the population size.
  wc.onoff_sources = concurrent + concurrent / 16;
  wc.max_concurrent = concurrent;
  // Slot head-room for the quarantine FIFO: at steady state roughly
  // quarantine / (transfer + think) of the population is cooling
  // (~5 s / ~20 s), so 1.5x the cap leaves every arrival a cool slot.
  wc.id_slots = concurrent + concurrent / 2;
  wc.think_mu = 0.0;  // log-normal think, median 1 s
  wc.think_sigma = 0.5;
  // Heavy-tailed transfer sizes whose mice (2-3 segments, a few RTTs)
  // still complete inside a nightly window while the mean (~22 segments,
  // ~20 s at a 1-2 packet/RTT share) keeps the population busy.
  wc.min_segments = 2;
  wc.max_segments = 4096;
  wc.pareto_shape = 1.1;
  // Idle lease generous enough to survive an RTO at a ~0.9 s RTT; the
  // quarantine stays above the 1.5 * reap_idle + reap_sweep worst-case
  // reap so a recycled slot never meets its predecessor's receiver.
  wc.reap_idle = sim::Duration::seconds(3);
  wc.reap_sweep = sim::Duration::millis(250);
  wc.quarantine = sim::Duration::seconds(5);
  return wc;
}

// ---------------------------------------------------------------------------
// FlowServer

FlowServer::FlowServer(net::Network& network, net::NodeId local,
                       net::NodeId remote, const WorkloadConfig& config)
    : network_(network),
      local_(local),
      remote_(remote),
      config_(config),
      sched_(&network.scheduler()),
      reap_timer_(network.scheduler()) {
  reap_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_));
  network_.node(local_).set_default_agent(this);
}

FlowServer::~FlowServer() {
  stop();
  // Receivers detach themselves from the node; the default-agent hook must
  // not outlive the server.
  network_.node(local_).set_default_agent(nullptr);
}

void FlowServer::bind_shard(sim::Scheduler& shard) {
  sched_ = &shard;
  reap_timer_.rebind(shard);
  reap_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_));
}

void FlowServer::start() {
  TCPPR_CHECK(!running_);
  running_ = true;
  reap_timer_.schedule_in(config_.reap_sweep, [this] { reap_sweep(); });
}

void FlowServer::stop() {
  running_ = false;
  reap_timer_.cancel();
}

std::int32_t FlowServer::slot_of(net::FlowId flow) const {
  const net::FlowId rel = flow - config_.first_flow_id;
  if (rel < 0 || rel >= config_.id_slots) return -1;
  return static_cast<std::int32_t>(rel);
}

void FlowServer::touch(std::uint32_t slot) {
  last_activity_ns_[slot] = sched_->now().as_nanos();
}

void FlowServer::open_slot(std::uint32_t slot, net::SeqNo first_seq) {
  if (rx_.size() <= slot) {
    rx_.resize(slot + 1);
    mon_.resize(slot + 1);
    last_activity_ns_.resize(slot + 1, 0);
    resume_next_.resize(slot + 1, 0);
  }
  const net::FlowId flow = config_.first_flow_id + static_cast<int>(slot);
  tcp::ReceiverConfig rc;
  rc.segment_bytes = config_.tcp.segment_bytes;
  rc.ack_bytes = config_.tcp.ack_bytes;
  auto rx = std::make_unique<tcp::Receiver>(network_, local_, remote_, flow,
                                            rc);
  if (sched_ != &network_.scheduler()) rx->rebind_scheduler(*sched_);
  if (first_seq == 0) {
    // A flow starting over at sequence zero is a fresh incarnation (or the
    // same sender retrying from the very beginning); either way the old
    // high-water mark must not leak into it.
    resume_next_[slot] = 0;
  } else if (resume_next_[slot] > 0) {
    // Mid-stream segment for a slot whose receiver was idle-reaped: the
    // quarantine guarantees the flow id was not recycled, so this is the
    // same transfer still in flight. Resume at the reaped incarnation's
    // cumulative-ACK point — a fresh receiver at zero would stale-ACK the
    // sender's retransmissions forever (ghost-receiver deadlock).
    rx->resume_at(static_cast<net::SeqNo>(resume_next_[slot]));
    ++resumed_;
  }
  // Monitor recycling is where ReorderMonitor::reset() earns its keep: a
  // pooled monitor that still carried the previous flow's max_seen_ /
  // next_expected_ would count every early segment of this flow as a
  // giant reordering.
  if (!mon_pool_.empty()) {
    mon_[slot] = std::move(mon_pool_.back());
    mon_pool_.pop_back();
  } else {
    mon_[slot] = std::make_unique<stats::ReorderMonitor>();
  }
  // The tap renews the idle lease: once the receiver registers itself as
  // the flow's agent, packets no longer pass through the server's deliver
  // path, so without this every receiver would look idle from the moment
  // it was created and the reaper would collect it mid-flow.
  rx->set_data_tap([this, slot, m = mon_[slot].get()](
                       const net::Packet& pkt) {
    m->on_arrival(pkt.tcp.seq);
    touch(slot);
  });
  rx->set_close_callback([this, slot] { schedule_close(slot); });
  if (registry_ != nullptr) rx->set_metric_registry(*registry_);
  rx_[slot] = std::move(rx);
  ++created_;
  ++live_;
  touch(slot);
}

void FlowServer::schedule_close(std::uint32_t slot) {
  // Runs inside the receiver's own deliver(); defer the destruction.
  sched_->schedule_in_for(
      sim::Duration::zero(), static_cast<std::uint32_t>(local_),
      [this, slot, alive = std::weak_ptr<int>(alive_)] {
        if (alive.expired()) return;
        if (slot < rx_.size() && rx_[slot] != nullptr) {
          close_slot(slot, /*reaped=*/false);
        }
      });
}

void FlowServer::close_slot(std::uint32_t slot, bool reaped) {
  TCPPR_DCHECK(rx_[slot] != nullptr);
  const net::FlowId flow = config_.first_flow_id + static_cast<int>(slot);
  // An idle-reaped flow may still have a live, retrying sender: remember
  // the cumulative-ACK point so a later retransmission resumes there. A
  // kTcpClose departure is final — clear the mark for the next incarnation.
  resume_next_[slot] =
      reaped ? static_cast<std::uint32_t>(rx_[slot]->rcv_next()) : 0;
  rx_[slot].reset();  // detaches from the node's agent table
  mon_[slot]->merge_into(departed_agg_);
  mon_[slot]->reset();
  mon_pool_.push_back(std::move(mon_[slot]));
  if (registry_ != nullptr) registry_->retire_flow(flow);
  if (telemetry_ != nullptr) telemetry_->retire_flow(flow);
  --live_;
  if (reaped) {
    ++reaped_;
  } else {
    ++closed_;
  }
}

std::size_t FlowServer::reap_chunk() const {
  // Full pass within reap_idle/2: with sweeps_per_cycle sweeps in half a
  // lease, visiting ceil(size / sweeps_per_cycle) slots per sweep bounds
  // the lag between "lease expired" and "clock hand arrives" by
  // reap_idle/2 + reap_sweep, keeping the worst-case reap at
  // 1.5 * reap_idle + reap_sweep after the last packet.
  const std::int64_t half_lease = config_.reap_idle.as_nanos() / 2;
  const std::int64_t sweep = std::max<std::int64_t>(
      config_.reap_sweep.as_nanos(), 1);
  const auto sweeps_per_cycle =
      static_cast<std::size_t>(std::max<std::int64_t>(half_lease / sweep, 1));
  return (rx_.size() + sweeps_per_cycle - 1) / sweeps_per_cycle;
}

void FlowServer::reap_sweep() {
  const std::int64_t now_ns = sched_->now().as_nanos();
  const std::int64_t lease_ns = config_.reap_idle.as_nanos();
  // Clock-hand sweep: visit a bounded chunk, wrapping at the high-water
  // slot count, so no single event scans the whole table at 2^20 slots.
  std::size_t budget = reap_chunk();
  while (budget > 0 && !rx_.empty()) {
    if (reap_cursor_ >= rx_.size()) reap_cursor_ = 0;
    const auto slot = static_cast<std::uint32_t>(reap_cursor_++);
    --budget;
    if (rx_[slot] == nullptr) continue;
    if (now_ns - last_activity_ns_[slot] >= lease_ns) {
      close_slot(slot, /*reaped=*/true);
    }
  }
  if (running_) {
    reap_timer_.schedule_in(config_.reap_sweep, [this] { reap_sweep(); });
  }
}

void FlowServer::deliver(net::Packet&& pkt) {
  const std::int32_t slot = slot_of(pkt.tcp.flow);
  if (slot < 0) {
    // Not a workload flow (e.g. a static flow torn down by its own test).
    ++stray_;
    return;
  }
  const auto uslot = static_cast<std::uint32_t>(slot);
  if (uslot >= rx_.size() || rx_[uslot] == nullptr) {
    // First segment of a new flow creates its receiver; anything else for
    // a closed slot (stale duplicate of a departed incarnation, a close
    // that raced the reaper) is dropped. A ghost receiver born from a
    // stale duplicate is harmless: it ACKs into the void and the idle
    // lease reclaims it.
    if (pkt.type != net::PacketType::kTcpData) return;
    open_slot(uslot, pkt.tcp.seq);
  } else {
    touch(uslot);
  }
  rx_[uslot]->deliver(std::move(pkt));
}

void FlowServer::fold_reorder_stats(stats::ReorderMonitor& into) const {
  departed_agg_.merge_into(into);
  for (const auto& m : mon_) {
    if (m != nullptr) m->merge_into(into);
  }
}

std::size_t FlowServer::slab_bytes() const {
  return rx_.capacity() * sizeof(rx_[0]) + mon_.capacity() * sizeof(mon_[0]) +
         last_activity_ns_.capacity() * sizeof(std::int64_t) +
         resume_next_.capacity() * sizeof(std::uint32_t);
}

// ---------------------------------------------------------------------------
// WorkloadEngine

WorkloadEngine::WorkloadEngine(harness::Scenario& scenario,
                               WorkloadConfig config,
                               harness::ParallelSim* psim)
    : scenario_(scenario),
      config_(config),
      src_sched_(&scenario.sched),
      dst_sched_(&scenario.sched),
      parallel_(psim != nullptr),
      src_(scenario.src_host),
      dst_(scenario.dst_host),
      rng_(sim::Rng(config.seed).fork(0xF10Au)),
      arrival_rng_(sim::Rng(config.seed).fork(0xA221u)),
      arrival_timer_(scenario.sched),
      slots_(config.id_slots, config.quarantine.as_nanos()) {
  TCPPR_CHECK(src_ != net::kInvalidNode && dst_ != net::kInvalidNode);
  TCPPR_CHECK(config_.id_slots > 0);
  TCPPR_CHECK(config_.max_concurrent > 0);
  TCPPR_CHECK(config_.min_segments >= 1);
  TCPPR_CHECK(config_.max_segments >= config_.min_segments);
  server_ = std::make_unique<FlowServer>(scenario.network, dst_, src_,
                                         config_);
  if (psim != nullptr) {
    src_sched_ = &psim->shard_for(src_);
    dst_sched_ = &psim->shard_for(dst_);
    arrival_timer_.rebind(*src_sched_);
    server_->bind_shard(*dst_sched_);
  }
  arrival_timer_.set_stamp_entity(static_cast<std::uint32_t>(src_));
}

WorkloadEngine::~WorkloadEngine() { stop(); }

void WorkloadEngine::set_metric_registry(obs::MetricRegistry& registry) {
  // Parallel mode buffers no obs samples (same restriction as scenario
  // probes); catching the misuse here beats silently divergent metrics.
  TCPPR_CHECK(!parallel_);
  registry_ = &registry;
  server_->set_metric_registry(&registry);
}

void WorkloadEngine::set_telemetry(telemetry::Telemetry* telemetry) {
  // Same restriction as the registry: parallel mode taps belong to shard
  // threads and must not see live retirements from the build thread.
  TCPPR_CHECK(telemetry == nullptr || !parallel_);
  telemetry_ = telemetry;
  server_->set_telemetry(telemetry);
}

void WorkloadEngine::start() {
  TCPPR_CHECK(!running_);
  running_ = true;
  server_->start();
  if (config_.kind == WorkloadKind::kOnOff) {
    TCPPR_CHECK(config_.onoff_sources > 0);
    source_restarts_.assign(static_cast<std::size_t>(config_.onoff_sources),
                            sim::EventId{});
    for (int s = 0; s < config_.onoff_sources; ++s) {
      schedule_source_restart(s);
    }
    return;
  }
  TCPPR_CHECK(config_.arrival_rate > 0);
  schedule_next_arrival();
}

void WorkloadEngine::stop() {
  running_ = false;
  arrival_timer_.cancel();
  for (sim::EventId& id : source_restarts_) {
    if (id.valid()) {
      src_sched_->cancel(id);
      id = sim::EventId{};
    }
  }
  if (server_ != nullptr) server_->stop();
}

void WorkloadEngine::schedule_next_arrival() {
  arrival_timer_.schedule_in(
      sim::Duration::seconds(
          arrival_rng_.exponential(1.0 / config_.arrival_rate)),
      [this] {
        if (!running_) return;
        spawn_flow(/*source=*/-1);
        schedule_next_arrival();
      });
}

void WorkloadEngine::schedule_source_restart(int source) {
  const double think =
      arrival_rng_.lognormal(config_.think_mu, config_.think_sigma);
  source_restarts_[static_cast<std::size_t>(source)] =
      src_sched_->schedule_in_for(
          sim::Duration::seconds(think), static_cast<std::uint32_t>(src_),
          [this, source, alive = std::weak_ptr<int>(alive_)] {
            if (alive.expired() || !running_) return;
            source_restarts_[static_cast<std::size_t>(source)] =
                sim::EventId{};
            spawn_flow(source);
          });
}

net::SeqNo WorkloadEngine::sample_size(sim::Rng& rng) const {
  if (config_.kind == WorkloadKind::kWeb &&
      !rng.bernoulli(config_.elephant_fraction)) {
    // Mouse: log-uniform RPC-sized transfer.
    const double lo = std::log(static_cast<double>(config_.mouse_min_segments));
    const double hi =
        std::log(static_cast<double>(config_.mouse_max_segments) + 1.0);
    return std::clamp<net::SeqNo>(
        static_cast<net::SeqNo>(std::exp(rng.uniform(lo, hi))),
        config_.mouse_min_segments, config_.mouse_max_segments);
  }
  const double raw = rng.pareto(config_.pareto_shape,
                                static_cast<double>(config_.min_segments));
  return std::clamp<net::SeqNo>(static_cast<net::SeqNo>(raw),
                                config_.min_segments, config_.max_segments);
}

void WorkloadEngine::spawn_flow(int source) {
  if (stats_.active >= static_cast<std::size_t>(config_.max_concurrent)) {
    ++stats_.rejected;
    if (source >= 0) schedule_source_restart(source);
    return;
  }
  const std::int32_t sslot = slots_.allocate(src_sched_->now().as_nanos());
  if (sslot < 0) {
    ++stats_.rejected;
    if (source >= 0) schedule_source_restart(source);
    return;
  }
  const auto slot = static_cast<std::uint32_t>(sslot);
  if (variant_.size() <= slot) {
    // Lockstep slabs grow with the table's high-water count.
    variant_.resize(slot + 1, 0);
    started_ns_.resize(slot + 1, 0);
    source_.resize(slot + 1, -1);
    sender_.resize(slot + 1);
  }

  // Flow characteristics fork off the monotone arrival index: recycling a
  // slot never replays or perturbs another flow's draws.
  sim::Rng frng = rng_.fork(++arrival_seq_);
  const harness::TcpVariant variant = frng.bernoulli(config_.pr_fraction)
                                          ? harness::TcpVariant::kTcpPr
                                          : harness::TcpVariant::kSack;
  const net::SeqNo segments = sample_size(frng);

  const net::FlowId flow = config_.first_flow_id + static_cast<int>(slot);
  auto sender = harness::make_sender(variant, scenario_.network, src_, dst_,
                                     flow, config_.tcp, config_.pr);
  if (parallel_) sender->rebind_scheduler(*src_sched_);
  sender->set_data_source(std::make_unique<tcp::FixedDataSource>(segments));
  // allocate() already bumped the generation for this incarnation.
  const std::uint32_t gen = slots_.generation(slot);
  sender->set_completion_callback(
      [this, slot, gen] { on_complete(slot, gen); });
  if (registry_ != nullptr) sender->set_metric_registry(*registry_);

  variant_[slot] = static_cast<std::uint8_t>(variant);
  started_ns_[slot] = src_sched_->now().as_nanos();
  source_[slot] = source;
  sender_[slot] = std::move(sender);
  sender_[slot]->start();
  ++stats_.arrivals;
  ++stats_.active;
  stats_.peak_active = std::max(stats_.peak_active, stats_.active);
}

void WorkloadEngine::on_complete(std::uint32_t slot, std::uint32_t gen) {
  // Runs inside the sender's own ACK processing; defer the teardown one
  // zero-delay event. The event holds a weak_ptr to the liveness sentinel,
  // so an engine destroyed in that window turns it into a no-op.
  src_sched_->schedule_in_for(
      sim::Duration::zero(), static_cast<std::uint32_t>(src_),
      [this, slot, gen, alive = std::weak_ptr<int>(alive_)] {
        if (alive.expired()) return;
        teardown(slot, gen);
      });
}

void WorkloadEngine::send_close(net::FlowId flow) {
  net::Packet close;
  close.uid = scenario_.network.allocate_uid();
  close.dst = dst_;
  close.size_bytes = 40;
  close.type = net::PacketType::kTcpClose;
  close.tcp.flow = flow;
  close.sent_at = src_sched_->now();
  scenario_.network.node(src_).originate(std::move(close));
}

void WorkloadEngine::teardown(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size() || !slots_.active(slot) ||
      slots_.generation(slot) != gen || sender_[slot] == nullptr) {
    return;  // stale event for a recycled incarnation
  }
  const net::FlowId flow = config_.first_flow_id + static_cast<int>(slot);
  const std::int64_t now_ns =
      src_sched_->now().as_nanos();
  ++stats_.completed;
  stats_.sum_completion_s +=
      static_cast<double>(now_ns - started_ns_[slot]) * 1e-9;
  TCPPR_DCHECK(stats_.active > 0);
  --stats_.active;

  const int source = source_[slot];
  // Destroy the sender first (detaches its agent — late ACKs are counted
  // unroutable, not delivered to a dead object), then tell the receiver
  // side, then quarantine the flow id.
  sender_[slot].reset();
  if (registry_ != nullptr) registry_->retire_flow(flow);
  if (telemetry_ != nullptr) telemetry_->retire_flow(flow);
  send_close(flow);
  slots_.release(slot, now_ns);

  if (source >= 0 && running_) schedule_source_restart(source);
}

WorkloadStats WorkloadEngine::stats() const {
  WorkloadStats s = stats_;
  s.receivers_created = server_->receivers_created();
  s.receivers_closed = server_->receivers_closed();
  s.receivers_reaped = server_->receivers_reaped();
  s.receivers_resumed = server_->receivers_resumed();
  s.stray_packets = server_->stray_packets();
  return s;
}

stats::ReorderMonitor WorkloadEngine::reorder_stats() const {
  stats::ReorderMonitor agg;
  server_->fold_reorder_stats(agg);
  return agg;
}

std::size_t WorkloadEngine::slab_bytes() const {
  return slots_.slab_bytes() + variant_.capacity() * sizeof(std::uint8_t) +
         started_ns_.capacity() * sizeof(std::int64_t) +
         source_.capacity() * sizeof(std::int32_t) +
         sender_.capacity() * sizeof(sender_[0]) + server_->slab_bytes();
}

}  // namespace tcppr::workload
