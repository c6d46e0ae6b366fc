// End-to-end benchmark driver for the TCP-PR simulator.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--goldens FILE]
//   perfbench --record --workload W --seed N
//
// Each repetition builds workload W from seed N through the public harness
// and workload builders, runs it in fixed 50 ms simulated slices (one
// run_until call each) and folds the public end state into a digest.
// Repetitions continue while another one fits in S host seconds. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Every reported time is put at a reference host speed with a
// host-speed probe sampled between slices (see kProbeEvery below).
//
// --trace 0 reports the end-to-end metrics of untraced repetitions.
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics. A traced repetition re-attaches every static endpoint
// (and the workload's FlowServer default agent) behind a timing wrapper,
// attaches a DeliveryHasher, and reads every layer's public counters after
// the run. Nothing inside the simulator is instrumented.
//
// Correctness: every repetition must balance packet conservation and
// reproduce the same digest; where FILE records the workload and seed, the
// digest (and, traced, the delivery hash) must equal the recorded values.
// A failed check counts every attempted flow as failed.
//
// --record runs one untraced and one traced repetition and prints the
// goldens line "W N digest hash" for FILE.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/parallel_run.hpp"
#include "harness/scenarios.hpp"
#include "net/network.hpp"
#include "util/hash.hpp"
#include "validate/determinism.hpp"
#include "workload/workload.hpp"

#include "host_probe.hpp"

namespace {

using namespace tcppr;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Nearest-rank quantile q of v.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Slice percentile q. When fewer than ten slices would lie beyond q, falls
// back to the highest percentile that keeps ten beyond it.
double slice_percentile(const std::vector<double>& v, double q) {
  const double n = static_cast<double>(v.size());
  if (n * (1.0 - q) < 10.0) q = std::max(0.5, 1.0 - 10.0 / n);
  return quantile(v, q);
}

// --- workloads -------------------------------------------------------------

enum class Kind { kBulkDumbbell, kChurnMice, kFanReorderPar };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"bulk_dumbbell", Kind::kBulkDumbbell},
    {"churn_mice", Kind::kChurnMice},
    {"fan_reorder_par", Kind::kFanReorderPar},
};
// Every repetition simulates 10 s in 200 slices of 50 ms.
constexpr int kSlices = 200;
constexpr double kSliceMs = 50.0;
// The host-speed probe (host_probe.hpp) runs before every kProbeEvery-th
// slice, outside the slice timings, on as many threads as the workload runs
// LPs. Each time statistic of a repetition is scaled by kProbeReferenceMs
// over the matching statistic of its 20 probe samples, so it reads as if
// the host had run at the reference speed throughout:
//   - totals (set-up, run, agent spans) by the mean probe time;
//   - CPU time by the mean probe CPU time per probe thread;
//   - the median slice by the median probe time;
//   - the 95th-percentile slice by the upper-quartile probe time, the
//     highest quantile 20 samples estimate steadily.
// kProbeReferenceMs is about the probe's time on a quiet 4-vCPU Sapphire
// Rapids KVM guest. As in tools/bench_check.py, each scale is capped so a
// broken probe cannot launder a real regression.
constexpr int kProbeEvery = 10;
constexpr double kProbeReferenceMs = 9.0;
constexpr double kMinScale = 0.25;
constexpr double kMaxScale = 4.0;
// fan_reorder_par's LP count. 2 LPs cut only the 300 ms bottleneck. 4 LPs
// also cut the short fan links, about 5000 barriers per 10 simulated s,
// each needing all four vCPUs of the reference box: slower, and too noisy
// for the benchmark's bounds there (NOTES.md).
constexpr int kParallelLps = 2;

// Endpoint families timed separately in traced repetitions.
enum Role { kTcpPrSender, kSackSender, kReceiver, kFlowServer, kRoleCount };

// Timing wrapper attached to a node in place of an agent. It forwards
// deliver and deliver_batch unchanged (the receiver's batch override folds
// ACK trains, so batches must stay batches) and keeps its own accumulator:
// wrappers on different LP threads never share state.
class SpanAgent final : public net::Agent {
 public:
  explicit SpanAgent(net::Agent& inner) : inner_(inner) {}

  void deliver(net::Packet&& pkt) override {
    const auto t0 = Clock::now();
    inner_.deliver(std::move(pkt));
    add(t0);
  }
  void deliver_batch(net::PacketBatch& batch, std::size_t begin,
                     std::size_t end) override {
    const auto t0 = Clock::now();
    inner_.deliver_batch(batch, begin, end);
    add(t0);
  }

  double seconds() const { return static_cast<double>(ns_) * 1e-9; }
  std::uint64_t calls() const { return calls_; }

 private:
  void add(Clock::time_point t0) {
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
               .count();
    ++calls_;
  }

  net::Agent& inner_;
  std::int64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

// One built workload. Members are destroyed engine, psim, scenario, then the
// wrappers and the hasher the scenario's nodes and tracer point at.
struct World {
  validate::DeliveryHasher hasher;
  std::vector<std::pair<Role, std::unique_ptr<SpanAgent>>> wrappers;
  std::unique_ptr<harness::Scenario> scenario;
  std::unique_ptr<harness::ParallelSim> psim;
  std::unique_ptr<workload::WorkloadEngine> engine;

  double build_s = 0;      // the make_* call
  double partition_s = 0;  // the ParallelSim constructor
  double start_s = 0;      // WorkloadEngine constructor plus start()
  double setup_s = 0;      // first builder call to the first event
};

void wrap_agent(World& world, Role role, net::NodeId node, net::FlowId flow,
                net::Agent& agent) {
  net::Node& n = world.scenario->network.node(node);
  n.detach_agent(flow);
  auto wrapper = std::make_unique<SpanAgent>(agent);
  n.attach_agent(flow, wrapper.get());
  world.wrappers.emplace_back(role, std::move(wrapper));
}

std::unique_ptr<World> build(const WorkloadSpec& spec, std::uint64_t seed,
                             bool traced) {
  auto world = std::make_unique<World>();
  workload::WorkloadConfig wc;  // churn_mice and fan_reorder_par only
  const auto t0 = Clock::now();
  switch (spec.kind) {
    case Kind::kBulkDumbbell: {
      // The 4096-flow dumbbell: long-lived flows, half TCP-PR, half SACK.
      harness::ManyFlowsConfig c;
      c.topology = harness::ManyFlowsConfig::Topology::kDumbbell;
      c.flows = 4096;
      c.pr_fraction = 0.5;
      c.seed = seed;
      c.backend = sim::SchedulerBackend::kBinaryHeap;
      world->scenario = harness::make_many_flows(c);
      break;
    }
    case Kind::kChurnMice: {
      // BM_ScaleFlowsChurn at rate 10000: plant scaled to the arrival rate.
      const double rate = 10000;
      harness::DumbbellConfig c;
      c.pr_flows = 0;
      c.sack_flows = 0;
      c.bottleneck_bw_bps = 40e6 * rate / 1000.0;
      c.access_bw_bps = 4 * c.bottleneck_bw_bps;
      c.bottleneck_queue = 500;
      c.access_queue = 1000;
      c.seed = seed;
      world->scenario = harness::make_dumbbell(c);
      wc.kind = workload::WorkloadKind::kPoisson;
      wc.arrival_rate = rate;
      wc.min_segments = 2;
      wc.max_segments = 4;
      wc.quarantine = sim::Duration::millis(300);
      wc.reap_idle = sim::Duration::millis(150);
      wc.reap_sweep = sim::Duration::millis(50);
      wc.max_concurrent = 8192;
      wc.id_slots = 1 << 15;
      break;
    }
    case Kind::kFanReorderPar: {
      // 2^16-flow fan dumbbell with an 8-relay ECMP fan (persistent
      // reordering), web arrivals, the million preset's lease.
      constexpr int kFlows = 1 << 16;
      harness::FanDumbbellConfig c = harness::million_fan_config(kFlows);
      c.seed = seed;
      c.backend = sim::SchedulerBackend::kBinaryHeap;
      world->scenario = harness::make_fan_dumbbell(c);
      const workload::WorkloadConfig lease =
          workload::million_workload_config(kFlows);
      wc.kind = workload::WorkloadKind::kWeb;
      wc.arrival_rate = 5000;
      wc.max_concurrent = kFlows;
      wc.id_slots = 2 * kFlows;
      wc.reap_idle = lease.reap_idle;
      wc.reap_sweep = lease.reap_sweep;
      wc.quarantine = lease.quarantine;
      break;
    }
  }
  world->build_s = secs_since(t0);
  harness::Scenario& sc = *world->scenario;

  if (traced) {
    for (std::size_t i = 0; i < sc.senders.size(); ++i) {
      tcp::SenderBase& s = *sc.senders[i];
      const Role role = sc.variants[i] == harness::TcpVariant::kTcpPr
                            ? kTcpPrSender
                            : kSackSender;
      wrap_agent(*world, role, s.local_node(), s.flow(), s);
    }
    for (const auto& r : sc.receivers) {
      wrap_agent(*world, kReceiver, r->local_node(), r->flow(), *r);
    }
    // Before the ParallelSim: it re-wires the network's tracer per LP.
    sc.network.add_trace_sink(&world->hasher);
  }

  if (spec.kind == Kind::kFanReorderPar) {
    harness::ParallelRunConfig pc;
    pc.lps = kParallelLps;
    const auto t1 = Clock::now();
    world->psim = std::make_unique<harness::ParallelSim>(sc, pc);
    world->partition_s = secs_since(t1);
  }
  if (spec.kind != Kind::kBulkDumbbell) {
    wc.seed = seed ^ 0xC4u;
    const auto t2 = Clock::now();
    world->engine =
        std::make_unique<workload::WorkloadEngine>(sc, wc, world->psim.get());
    world->engine->start();
    world->start_s = secs_since(t2);
    if (traced) {
      net::Node& dst = sc.network.node(sc.dst_host);
      net::Agent* server = dst.default_agent();
      TCPPR_CHECK(server != nullptr);
      auto wrapper = std::make_unique<SpanAgent>(*server);
      dst.set_default_agent(wrapper.get());
      world->wrappers.emplace_back(kFlowServer, std::move(wrapper));
    }
  }
  world->setup_s = secs_since(t0);
  return world;
}

// --- one repetition --------------------------------------------------------

struct Layers {
  double role_s[kRoleCount] = {};
  std::uint64_t role_calls[kRoleCount] = {};
  std::uint64_t events = 0;
  std::uint64_t pump_ops = 0;
  std::uint64_t pump_events = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t rtx = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t max_reorder_extent = 0;
  std::uint64_t par_windows = 0;
  std::uint64_t par_exchanged = 0;
  double par_lp_util_min = 0;
  workload::WorkloadStats ws;
  std::uint64_t slab_bytes = 0;
};

struct Rep {
  bool traced = false;
  double build_s = 0, partition_s = 0, start_s = 0, setup_s = 0;
  std::vector<double> slice_ms;  // raw host ms of each slice
  double slice_p50_ms = 0, slice_p95_ms = 0;
  double run_s = 0;
  double cpu_s = 0;
  double cpu_over_wall = 0;  // unscaled
  double probe_ms = 0;  // mean probe time during the run
  std::uint64_t delivered = 0;
  std::uint64_t digest = 0;
  bool balanced = false;
  std::uint64_t hash = 0;  // traced only
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;
  Layers layers;
};

Rep run_rep(const WorkloadSpec& spec, std::uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  auto world = build(spec, seed, traced);
  rep.build_s = world->build_s;
  rep.partition_s = world->partition_s;
  rep.start_s = world->start_s;
  rep.setup_s = world->setup_s;
  harness::Scenario& sc = *world->scenario;
  harness::ParallelSim* psim = world->psim.get();

  rep.slice_ms.reserve(kSlices);
  std::vector<double> probes, probe_cpu_ms;  // probe_cpu_ms: per thread
  double probe_cpu_s = 0;
  const int probe_threads = psim != nullptr ? kParallelLps : 1;
  const double cpu0 = process_cpu_s();
  for (int k = 1; k <= kSlices; ++k) {
    if (k % kProbeEvery == 1) {
      const double c0 = process_cpu_s();
      probes.push_back(perfbench::probe_ms(probe_threads));
      const double probe_cpu = process_cpu_s() - c0;
      probe_cpu_s += probe_cpu;
      probe_cpu_ms.push_back(probe_cpu * 1e3 / probe_threads);
    }
    const sim::TimePoint end =
        sim::TimePoint::origin() + sim::Duration::millis(kSliceMs * k);
    const auto t0 = Clock::now();
    if (psim != nullptr) {
      psim->run_until(end);
    } else {
      sc.sched.run_until(end);
    }
    rep.slice_ms.push_back(secs_since(t0) * 1e3);
  }
  rep.cpu_s = process_cpu_s() - cpu0 - probe_cpu_s;
  for (const double ms : rep.slice_ms) rep.run_s += ms * 1e-3;
  rep.cpu_over_wall = ratio(rep.cpu_s, rep.run_s);
  rep.probe_ms = mean(probes);

  // Public end state: conservation, per-flow endpoint stats, workload stats.
  const net::Network::ConservationSnapshot snap = sc.network.conservation();
  const std::uint64_t external =
      psim != nullptr ? psim->external_in_flight() : 0;
  rep.balanced = snap.originated == snap.accounted() + external;
  rep.delivered = snap.delivered_to_agent;
  std::uint64_t d = util::kFnvOffsetBasis;
  const auto fold = [&d](std::uint64_t v) { d = util::fnv1a_u64(d, v); };
  // Mailbox residency depends on where the partition cuts; its sum with the
  // links' in-transit count does not.
  for (const std::uint64_t v :
       {snap.originated, snap.delivered_to_agent, snap.unroutable,
        snap.link_lost, snap.queue_dropped, snap.in_queues,
        snap.in_transit + external}) {
    fold(v);
  }
  Layers& L = rep.layers;
  for (const auto& s : sc.senders) {
    const tcp::SenderStats& st = s->stats();
    for (const std::uint64_t v :
         {st.data_packets_sent, st.retransmissions, st.timeouts,
          st.fast_retransmits, st.acks_received, st.dupacks_received,
          st.spurious_retransmits_detected, st.cwnd_halvings,
          st.extreme_loss_events, static_cast<std::uint64_t>(st.segments_acked),
          st.bytes_newly_acked}) {
      fold(v);
    }
    L.rtx += st.retransmissions;
    L.timeouts += st.timeouts;
  }
  for (const auto& r : sc.receivers) {
    const tcp::ReceiverStats& st = r->stats();
    const auto extent = static_cast<std::uint64_t>(st.max_reorder_extent);
    for (const std::uint64_t v :
         {st.data_packets_received, st.duplicates, st.out_of_order,
          st.acks_sent, static_cast<std::uint64_t>(st.in_order_point),
          st.goodput_bytes, extent}) {
      fold(v);
    }
    L.out_of_order += st.out_of_order;
    L.max_reorder_extent = std::max(L.max_reorder_extent, extent);
  }
  rep.attempted = sc.senders.size();
  if (world->engine != nullptr) {
    const workload::WorkloadStats ws = world->engine->stats();
    for (const std::uint64_t v :
         {ws.arrivals, ws.completed, ws.rejected, ws.receivers_created,
          ws.receivers_closed, ws.receivers_reaped, ws.receivers_resumed,
          ws.stray_packets, static_cast<std::uint64_t>(ws.active),
          static_cast<std::uint64_t>(ws.peak_active),
          static_cast<std::uint64_t>(
              std::llround(ws.sum_completion_s * 1e6))}) {
      fold(v);
    }
    L.ws = ws;
    L.slab_bytes = world->engine->slab_bytes();
    const stats::ReorderMonitor rs = world->engine->reorder_stats();
    L.out_of_order += rs.reordered();
    L.max_reorder_extent = std::max<std::uint64_t>(
        L.max_reorder_extent, static_cast<std::uint64_t>(rs.max_extent()));
    rep.attempted += ws.arrivals + ws.rejected;
    rep.rejected = ws.rejected;
  }
  rep.digest = d;
  if (traced) rep.hash = world->hasher.hash();

  // Counters every layer exposes publicly.
  net::LinkPump::Stats pump{};
  if (psim != nullptr) {
    L.events = psim->events_processed();
    pump = psim->pump_stats();
    L.par_windows = psim->windows();
    L.par_exchanged = psim->exchanged();
    L.par_lp_util_min = 1.0;
    for (const auto& r : psim->lp_reports()) {
      L.par_lp_util_min = std::min(L.par_lp_util_min, r.utilization);
    }
  } else {
    L.events = sc.sched.processed_count();
    if (sc.network.pump() != nullptr) pump = sc.network.pump()->stats();
  }
  L.pump_ops = pump.ops;
  L.pump_events = pump.events;
  L.queue_drops = snap.queue_dropped;
  for (int n = 0; n < sc.network.node_count(); ++n) {
    L.forwarded += sc.network.node(n).stats().forwarded;
  }
  for (const auto& [role, w] : world->wrappers) {
    L.role_s[role] += w->seconds();
    L.role_calls[role] += w->calls();
  }

  // The repetition's time statistics at the reference host speed.
  const auto scale = [](double probe) {
    return std::clamp(kProbeReferenceMs / probe, kMinScale, kMaxScale);
  };
  const double total_scale = scale(rep.probe_ms);
  for (double* t : {&rep.build_s, &rep.partition_s, &rep.start_s,
                    &rep.setup_s, &rep.run_s}) {
    *t *= total_scale;
  }
  rep.cpu_s *= scale(mean(probe_cpu_ms));
  for (double& s : L.role_s) s *= total_scale;
  rep.slice_p50_ms =
      slice_percentile(rep.slice_ms, 0.50) * scale(median(probes));
  rep.slice_p95_ms =
      slice_percentile(rep.slice_ms, 0.95) * scale(quantile(probes, 0.75));
  return rep;
}

// --- goldens ---------------------------------------------------------------

struct Golden {
  std::uint64_t digest = 0;
  std::uint64_t hash = 0;
};

// Lines "workload seed digest hash role"; '#' starts a comment.
using Goldens = std::map<std::pair<std::string, std::uint64_t>, Golden>;

bool load_goldens(const std::string& path, Goldens* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, digest, hash;
    std::uint64_t seed = 0;
    if (!(ls >> name >> seed >> digest >> hash)) return false;
    (*out)[{name, seed}] = Golden{std::strtoull(digest.c_str(), nullptr, 16),
                                  std::strtoull(hash.c_str(), nullptr, 16)};
  }
  return true;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "[--goldens FILE]\n"
               "       perfbench --record --workload W --seed N\n"
               "workloads: bulk_dumbbell churn_mice fan_reorder_par\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string goldens_path;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool record = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      record = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty() && value[0] != '-';
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0) || !std::isfinite(seconds)) {
        return usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--goldens") {
      goldens_path = value;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload_name == w.name) spec = &w;
  }
  if (spec == nullptr || !have_seed) return usage();

  if (record) {
    const Rep plain = run_rep(*spec, seed, false);
    const Rep traced = run_rep(*spec, seed, true);
    if (!plain.balanced || !traced.balanced || plain.digest != traced.digest) {
      std::fprintf(stderr, "record: traced and untraced runs disagree\n");
      return 1;
    }
    std::printf("%s %" PRIu64 " %016" PRIx64 " %016" PRIx64 "\n", spec->name,
                seed, plain.digest, traced.hash);
    return 0;
  }
  if (trace < 0 || !(seconds > 0)) return usage();

  Goldens goldens;
  if (!goldens_path.empty() && !load_goldens(goldens_path, &goldens)) {
    std::fprintf(stderr, "cannot read goldens %s\n", goldens_path.c_str());
    return 2;
  }
  const auto it = goldens.find({spec->name, seed});
  const Golden* golden = it == goldens.end() ? nullptr : &it->second;
  std::fprintf(stderr, "%s seed %" PRIu64 ": %s\n", spec->name, seed,
               golden != nullptr ? "checking against recorded goldens"
                                 : "no recorded goldens; checking "
                                   "conservation and determinism only");

  // Repetitions while another one still fits in the time budget (at least
  // one). Traced runs alternate untraced and traced repetitions so both
  // see the same machine state.
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  double last = 0;
  while (reps.empty() || secs_since(t0) + last <= seconds) {
    const auto t1 = Clock::now();
    reps.push_back(run_rep(*spec, seed, false));
    if (trace == 1) reps.push_back(run_rep(*spec, seed, true));
    last = secs_since(t1);
    const Rep& r = reps.back();
    std::fprintf(stderr,
                 "rep %zu: setup %.6f s, run %.4f s, cpu %.4f s, p50 %.4f ms, "
                 "p95 %.4f ms, pkts %" PRIu64 ", probe %.4f ms\n",
                 reps.size(), r.setup_s, r.run_s, r.cpu_s,
                 r.slice_p50_ms, r.slice_p95_ms,
                 r.delivered, r.probe_ms);
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.rejected;
    if (!r.balanced) {
      std::fprintf(stderr, "FAIL: packet conservation does not balance\n");
      correct = false;
    }
    if (r.digest != reps.front().digest) {
      std::fprintf(stderr, "FAIL: digest %016" PRIx64 " differs from the "
                   "first repetition's %016" PRIx64 "\n",
                   r.digest, reps.front().digest);
      correct = false;
    }
    if (golden != nullptr && r.digest != golden->digest) {
      std::fprintf(stderr, "FAIL: digest %016" PRIx64 " != recorded %016" PRIx64
                   "\n", r.digest, golden->digest);
      correct = false;
    }
    if (r.traced && golden != nullptr && r.hash != golden->hash) {
      std::fprintf(stderr, "FAIL: delivery hash %016" PRIx64
                   " != recorded %016" PRIx64 "\n", r.hash, golden->hash);
      correct = false;
    }
  }
  if (!correct) failed = attempted;

  std::vector<Metric> metrics;
  if (trace == 0) {
    // Slice percentiles are taken per repetition, then the median over
    // repetitions, so one repetition hit by host noise cannot own the tail.
    std::vector<double> setup, p50, p95, pps, cpu;
    std::size_t slice_count = 0;
    for (const Rep& r : reps) {
      slice_count += r.slice_ms.size();
      setup.push_back(r.setup_s);
      p50.push_back(r.slice_p50_ms);
      p95.push_back(r.slice_p95_ms);
      pps.push_back(ratio(static_cast<double>(r.delivered), r.run_s));
      cpu.push_back(r.cpu_s);
    }
    std::fprintf(stderr, "%zu repetitions, %zu slices\n", reps.size(),
                 slice_count);
    metrics = {
        {"setup_s", median(setup), "s"},
        {"pkts_per_s", median(pps), "1/s"},
        {"slice_ms_p50", median(p50), "ms"},
        {"slice_ms_p95", median(p95), "ms"},
        {"cpu_s", median(cpu), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    std::vector<double> plain_run, traced_run, build_s, partition_s, start_s,
        cpu_over_wall, probe_ms;
    std::vector<double> role_s[kRoleCount];
    const Rep* last = nullptr;
    std::size_t slice_count = 0;
    for (const Rep& r : reps) {
      if (!r.traced) {
        plain_run.push_back(r.run_s);
        continue;
      }
      last = &r;
      slice_count += r.slice_ms.size();
      traced_run.push_back(r.run_s);
      build_s.push_back(r.build_s);
      partition_s.push_back(r.partition_s);
      start_s.push_back(r.start_s);
      cpu_over_wall.push_back(r.cpu_over_wall);
      probe_ms.push_back(r.probe_ms);
      for (int role = 0; role < kRoleCount; ++role) {
        role_s[role].push_back(r.layers.role_s[role]);
      }
    }
    const Layers& L = last->layers;
    const double run_s = median(traced_run);
    double agent_s = 0;
    for (const auto& spans : role_s) agent_s += median(spans);
    // In parallel runs the agent spans are summed over LP threads, so the
    // residual is taken against thread time (CPU) instead of wall time.
    const double total_s =
        L.par_windows > 0 ? run_s * median(cpu_over_wall) : run_s;
    const auto span = [&](const std::string& prefix, Role role) {
      const double s = median(role_s[role]);
      const auto calls = static_cast<double>(L.role_calls[role]);
      metrics.push_back({prefix + "_s", s, "s"});
      metrics.push_back({prefix + "_calls", calls, "count"});
      metrics.push_back({prefix + "_ns_per_call", ratio(s * 1e9, calls), "ns"});
    };
    const auto count = [&](const char* name, double v) {
      metrics.push_back({name, v, "count"});
    };
    metrics.push_back({"harness.build_s", median(build_s), "s"});
    metrics.push_back({"harness.partition_s", median(partition_s), "s"});
    metrics.push_back({"workload.start_s", median(start_s), "s"});
    metrics.push_back(
        {"workload.server_deliver_s", median(role_s[kFlowServer]), "s"});
    count("workload.server_deliver_calls",
          static_cast<double>(L.role_calls[kFlowServer]));
    count("workload.arrivals", static_cast<double>(L.ws.arrivals));
    count("workload.rejected", static_cast<double>(L.ws.rejected));
    count("workload.completed", static_cast<double>(L.ws.completed));
    count("workload.receivers_created",
          static_cast<double>(L.ws.receivers_created));
    count("workload.receivers_reaped",
          static_cast<double>(L.ws.receivers_reaped));
    count("workload.receivers_resumed",
          static_cast<double>(L.ws.receivers_resumed));
    count("workload.peak_active", static_cast<double>(L.ws.peak_active));
    metrics.push_back(
        {"workload.slab_bytes", static_cast<double>(L.slab_bytes), "B"});
    span("core.tcp_pr_deliver", kTcpPrSender);
    span("tcp.sack_deliver", kSackSender);
    span("tcp.receiver_deliver", kReceiver);
    count("tcp.rtx", static_cast<double>(L.rtx));
    count("tcp.timeouts", static_cast<double>(L.timeouts));
    count("tcp.out_of_order", static_cast<double>(L.out_of_order));
    count("tcp.max_reorder_extent", static_cast<double>(L.max_reorder_extent));
    metrics.push_back({"sim.run_s", run_s, "s"});
    count("sim.slices", static_cast<double>(slice_count));
    metrics.push_back({"net.residual_s", total_s - agent_s, "s"});
    count("sim.events", static_cast<double>(L.events));
    metrics.push_back({"sim.events_per_pkt",
                       ratio(static_cast<double>(L.events),
                             static_cast<double>(last->delivered)),
                       "ratio"});
    count("net.pump_ops", static_cast<double>(L.pump_ops));
    count("net.pump_carrier_events", static_cast<double>(L.pump_events));
    metrics.push_back({"net.ops_per_carrier_event",
                       ratio(static_cast<double>(L.pump_ops),
                             static_cast<double>(L.pump_events)),
                       "ratio"});
    count("net.queue_drops", static_cast<double>(L.queue_drops));
    count("net.forwarded", static_cast<double>(L.forwarded));
    count("par.windows", static_cast<double>(L.par_windows));
    count("par.cross_lp_pkts", static_cast<double>(L.par_exchanged));
    metrics.push_back({"par.lp_util_min", L.par_lp_util_min, "ratio"});
    metrics.push_back({"par.cpu_over_wall", median(cpu_over_wall), "ratio"});
    metrics.push_back(
        {"bench.trace_overhead", ratio(run_s, median(plain_run)), "ratio"});
    metrics.push_back({"bench.probe_ms", median(probe_ms), "ms"});
    metrics.push_back({"bench.failed_frac",
                       ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)),
                       "ratio"});
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
