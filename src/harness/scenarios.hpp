// Scenario builders for the paper's three evaluation topologies:
//   - dumbbell (single bottleneck), Figures 2-4 left plots;
//   - parking-lot (Figure 1: chain of three bottlenecks with overlapping
//     TCP-SACK cross traffic), Figures 2-4 right plots;
//   - multi-path mesh (Figure 5: parallel node-disjoint paths of unequal
//     length, 10 Mbps links, 100-packet queues), Figure 6.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/tcp_pr.hpp"
#include "net/network.hpp"
#include "obs/probe.hpp"
#include "obs/registry.hpp"
#include "routing/multipath.hpp"
#include "sim/scheduler.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sender_base.hpp"

namespace tcppr::harness {

enum class TcpVariant {
  kTcpPr,
  kSack,
  kReno,
  kNewReno,
  kTahoe,
  kTdFr,
  kDsackNm,
  kIncByOne,
  kIncByN,
  kEwma,
  kEifel,
  kDoor,
};

const char* to_string(TcpVariant variant);
// Inverse of to_string; nullopt for an unknown name.
std::optional<TcpVariant> parse_variant(std::string_view name);
// All implemented variants, in presentation order.
const std::vector<TcpVariant>& all_variants();

std::unique_ptr<tcp::SenderBase> make_sender(
    TcpVariant variant, net::Network& network, net::NodeId local,
    net::NodeId remote, net::FlowId flow, const tcp::TcpConfig& tcp_config,
    const core::TcpPrConfig& pr_config);

// A built simulation: the scheduler, the network, and every endpoint.
// Heap-only (internal references make it unmovable).
struct Scenario {
  Scenario() : network(sched) {}
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  sim::Scheduler sched;
  // Scheduler shards in parallel mode (populated by harness::ParallelSim;
  // empty in sequential runs). Owned by the Scenario and declared before
  // the network and the endpoints so senders/receivers — whose destructors
  // cancel timers rebound onto these shards — are destroyed first.
  std::vector<std::unique_ptr<sim::Scheduler>> lp_scheds;
  net::Network network;
  net::NodeId src_host = net::kInvalidNode;
  net::NodeId dst_host = net::kInvalidNode;

  // Index i of senders/receivers/variants describes measured flow i.
  std::vector<std::unique_ptr<tcp::SenderBase>> senders;
  std::vector<std::unique_ptr<tcp::Receiver>> receivers;
  std::vector<TcpVariant> variants;

  // Cross traffic and auxiliary objects (not measured).
  std::vector<std::unique_ptr<tcp::SenderBase>> cross_senders;
  std::vector<std::unique_ptr<tcp::Receiver>> cross_receivers;
  std::vector<std::unique_ptr<net::SourceRoutingPolicy>> policies;

  // Links whose queues define the loss rate of the experiment.
  std::vector<net::Link*> bottlenecks;

  // Periodic queue samplers created by attach_observability (src/obs).
  std::vector<std::unique_ptr<obs::QueueProbe>> queue_probes;

  // Build-time scheduled actions (flow starts, fault injections), recorded
  // so parallel-mode adoption can cancel them on the main scheduler and
  // re-schedule each into the shard owning `affinity`'s node. Sequential
  // runs just execute the already-scheduled events and ignore this list.
  struct DeferredAction {
    sim::EventId id;        // event on the main scheduler
    sim::TimePoint at;
    net::NodeId affinity = net::kInvalidNode;
    std::function<void()> fn;
  };
  std::vector<DeferredAction> deferred;

  // Schedules `fn` at `at` and records it for parallel adoption.
  // `affinity` names the node whose logical process must run the action
  // (the objects it touches must be owned by that node's LP).
  void schedule_action(sim::TimePoint at, net::NodeId affinity,
                       std::function<void()> fn);

  // Adds a measured flow and schedules its start.
  void add_flow(TcpVariant variant, net::NodeId src, net::NodeId dst,
                net::FlowId flow, const tcp::TcpConfig& tcp_config,
                const core::TcpPrConfig& pr_config, sim::TimePoint start);
  // Adds an unmeasured long-lived SACK cross-traffic flow.
  void add_cross_flow(net::NodeId src, net::NodeId dst, net::FlowId flow,
                      const tcp::TcpConfig& tcp_config, sim::TimePoint start);
  // Aggregate loss fraction over the bottleneck queues.
  double bottleneck_loss_rate() const;

  // Attaches the flow-state observability layer: every measured sender and
  // receiver samples into `registry`, and each bottleneck queue is polled
  // every `queue_interval`. Call after the scenario is built (flows added)
  // and before sched.run*(). Without this call the simulation pays only the
  // disabled-probe branch per event.
  void attach_observability(
      obs::MetricRegistry& registry,
      sim::Duration queue_interval = sim::Duration::millis(100));
};

struct DumbbellConfig {
  int pr_flows = 2;
  int sack_flows = 2;
  double bottleneck_bw_bps = 15e6;
  sim::Duration bottleneck_delay = sim::Duration::millis(20);
  std::size_t bottleneck_queue = 100;
  double access_bw_bps = 100e6;
  sim::Duration access_delay = sim::Duration::millis(1);
  std::size_t access_queue = 2000;
  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  std::uint64_t seed = 1;
  sim::Duration max_start_stagger = sim::Duration::seconds(2);
};

std::unique_ptr<Scenario> make_dumbbell(const DumbbellConfig& config);

struct ParkingLotConfig {
  int pr_flows = 2;
  int sack_flows = 2;
  // Figure 1 bandwidths.
  double chain_bw_bps = 15e6;       // links 1-2, 2-3, 3-4 (bottlenecks)
  double other_bw_bps = 15e6;       // S-1, 4-D, CD attachment links
  double cs1_bw_bps = 5e6;
  double cs2_bw_bps = 1.66e6;
  double cs3_bw_bps = 2.5e6;
  sim::Duration chain_delay = sim::Duration::millis(10);
  sim::Duration access_delay = sim::Duration::millis(5);
  std::size_t queue_limit = 100;
  bool with_cross_traffic = true;
  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  std::uint64_t seed = 1;
  sim::Duration max_start_stagger = sim::Duration::seconds(2);
};

std::unique_ptr<Scenario> make_parking_lot(const ParkingLotConfig& config);

struct MultipathConfig {
  TcpVariant variant = TcpVariant::kTcpPr;
  double epsilon = 0;     // paper sweeps {0, 1, 4, 10, 500}
  int path_count = 4;     // disjoint paths with 1..path_count relay nodes
  double link_bw_bps = 10e6;
  sim::Duration link_delay = sim::Duration::millis(10);
  std::size_t queue_limit = 100;
  bool multipath_acks = true;  // ACKs sample the reverse paths too
  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  std::uint64_t seed = 1;
};

std::unique_ptr<Scenario> make_multipath(const MultipathConfig& config);

// The many-flow scale workload (ROADMAP: thousands of concurrent flows).
// Either a dumbbell whose bottleneck bandwidth and queue scale with the
// flow count (per-flow share stays constant, so the congestion regime does
// not change character as N grows), or a ring-plus-chords random graph with
// flows between random node pairs. Flow variants interleave TCP-PR and
// SACK at pr_fraction, matching the paper's competition experiments.
struct ManyFlowsConfig {
  static constexpr int kMaxFlows = 4096;

  enum class Topology { kDumbbell, kRandomGraph };
  Topology topology = Topology::kDumbbell;
  int flows = 256;          // 1 .. kMaxFlows
  double pr_fraction = 0.5; // fraction of flows running TCP-PR (rest SACK)

  // Dumbbell sizing (per flow, so N only scales the plant).
  double bottleneck_bw_per_flow_bps = 125e3;
  sim::Duration bottleneck_delay = sim::Duration::millis(20);
  double access_bw_headroom = 2.0;  // access bw = headroom * bottleneck bw
  sim::Duration access_delay = sim::Duration::millis(1);

  // Random graph sizing (ring + chords, cf. the fuzzer's topology).
  int graph_nodes = 32;
  int graph_chords = 8;
  double graph_bw_bps = 10e6;
  sim::Duration graph_delay = sim::Duration::millis(5);
  std::size_t graph_queue = 50;

  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  std::uint64_t seed = 1;
  sim::Duration max_start_stagger = sim::Duration::seconds(2);
  // Read by nothing; kept because perfbench/driver.cpp still assigns it.
  sim::SchedulerBackend backend = sim::SchedulerBackend::kBinaryHeap;
};

std::unique_ptr<Scenario> make_many_flows(const ManyFlowsConfig& config);

// The million-flow plant (ROADMAP top-end row): a fan-in/fan-out dumbbell
//
//   src ══ A_0..A_{w-1} ══ r1 ── bottleneck ── r2 ══ B_0..B_{w-1} ══ dst
//
// where src/r2 spray packets toward dst (and dst/r1 back toward src)
// uniformly across the w relay fans via per-packet ECMP. Relay access
// delays spread by access_delay_step, so the fan is both the capacity
// concentrator and a persistent-reordering plant in the paper's regime.
// The bottleneck carries flows * per_flow_bw_bps; every per-flow quantity
// (bandwidth share, queue headroom) is constant in `flows`, which only
// scales the plant — at flows = 2^20 the per-flow share keeps each flow
// near cwnd 1-2 so aggregate event rate stays ~flows/RTT.
//
// Builds the topology only: no static flows. Pair it with the
// WorkloadEngine (tcppr_sim --workload), which spawns senders on src_host
// and demuxes receivers on dst_host, or add flows by hand.
struct FanDumbbellConfig {
  static constexpr int kMaxFlows = 1 << 20;

  int flows = 1 << 16;  // sizes the plant; actual flows come from workload
  int fan_width = 8;    // relay nodes per side (>= 1)
  double per_flow_bw_bps = 12e3;  // ~1.4 segments/RTT at the default RTT
  sim::Duration bottleneck_delay = sim::Duration::millis(300);
  // Relay i's host-side link adds base + i * step one-way delay; the
  // relay-to-router hop adds another base.
  sim::Duration access_delay_base = sim::Duration::millis(2);
  sim::Duration access_delay_step = sim::Duration::millis(25);
  double access_bw_headroom = 2.0;  // per fan link, over its traffic share
  std::size_t bottleneck_queue_packets = 1 << 16;
  std::size_t access_queue_packets = 1 << 14;
  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  std::uint64_t seed = 1;
  // Read by nothing; kept because perfbench/driver.cpp still assigns it.
  sim::SchedulerBackend backend = sim::SchedulerBackend::kBinaryHeap;
};

std::unique_ptr<Scenario> make_fan_dumbbell(const FanDumbbellConfig& config);

// The tuned 2^20-concurrent-flow plant: RTT ~0.9-1.0 s across the fan
// spread (which minimizes the aggregate event rate floor of
// flows / RTT forced by cwnd >= 1). Pair with
// workload::million_workload_config(flows).
FanDumbbellConfig million_fan_config(int flows);

// A low-lookahead parallel plant: `clusters` local dumbbells
//
//   src_c ── r1_c ── r2_c ── dst_c        (short intra-cluster delays)
//        \____ local flows ____/
//
// joined into a ring by short cut links (r2_c — r1_{c+1}). Intra-cluster
// delays sit at or below min_cut_lookahead() so the partitioner contracts
// each cluster into one atom and the only cuttable links are the ring
// links — the safe horizon is their (deliberately small) delay, which is
// the regime where conservative windows are tiny. Cross flows (SACK, one
// per adjacent cluster pair, round-robin) put real traffic on the cuts;
// zero keeps them silent.
struct ClusteredMeshConfig {
  static constexpr int kMaxFlows = 4096;

  int clusters = 4;
  int flows = 256;           // total, split evenly across clusters
  double pr_fraction = 0.5;  // of each cluster's local flows
  int cross_flows = 0;       // SACK flows src_c -> dst_{c+1 mod k}

  double bw_per_flow_bps = 125e3;  // sizes each local bottleneck
  sim::Duration access_delay = sim::Duration::micros(10);
  sim::Duration local_delay = sim::Duration::micros(50);
  sim::Duration cut_delay = sim::Duration::micros(100);  // the lookahead
  double cut_bw_bps = 100e6;
  double access_bw_headroom = 2.0;

  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  std::uint64_t seed = 1;
  sim::Duration max_start_stagger = sim::Duration::seconds(1);

  // Pass to ParallelRunConfig::min_cut_lookahead so contraction keeps
  // clusters atomic and only the ring links are cut.
  sim::Duration min_cut_lookahead() const { return local_delay; }
};

std::unique_ptr<Scenario> make_clustered_mesh(const ClusteredMeshConfig& config);

}  // namespace tcppr::harness
