// ReorderTap: constant-memory streaming reordering detector for one link.
//
// A tap observes the link's delivery stream — every packet the link hands
// to its destination node, in delivery order — and maintains data-plane
// style reordering sketches in the spirit of Zheng/Yu/Rexford ("Detecting
// TCP Packet Reordering in the Data Plane"): a fixed flow-slot table with
// deterministic tenure-based eviction, a log2 displacement-density
// histogram, and a count-min sketch over detected reorder events that
// feeds a small heavy-reorderer list. Memory is fixed at construction
// (sketch_bytes()) no matter how many flows ever cross the link.
//
// Detection predicate per tracked flow (matches stats::ReorderMonitor so
// the two are differentially testable): an arrival is reordered iff its
// sequence number is <= the highest sequence number already seen from that
// flow on this link, and its displacement is that maximum minus the
// arrival's sequence number (RFC 4737 reorder extent against the running
// maximum; 0 for a duplicate of the maximum itself).
//
// Declared error bounds (what validate::InvariantChecker asserts against
// the exact baseline, and what the differential tests rely on):
//   - data_packets is exact: every data packet is counted before the slot
//     table can reject it.
//   - Every slot-detected reorder event corresponds to an exact-monitor
//     reorder event of >= displacement (a slot's running max is a lower
//     bound on the flow's true running max), so reordered, displacement_sum
//     and max_displacement are all <= the exact values — the sketch never
//     over-reports.
//   - With zero slot collisions the slot table IS exact: every flow was
//     tracked from its first packet, so reordered / displacement_sum /
//     max_displacement equal the exact baseline's values.
//   - The count-min estimate for a flow is >= the slot table's detected
//     count for that flow and <= the tap-wide detected total (counters
//     only ever over-estimate a single flow, never under-estimate).
//
// Folding discipline: a flow leaves the slot table either by eviction
// (tenure exhausted by colliding flows) or by retirement (the workload
// layer reports the flow departed). Both fold the slot's counters into
// `folded()` exactly once — totals() is invariant under folding and
// monotone over time, which is the checker's merge-on-departure surface.
//
// Threading: a tap is written only from the link's delivery call sites,
// which all execute on the single shard thread that owns the link's
// deliveries (see net::Link); reads for checking/summary happen at
// barriers or after the run.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "net/packet.hpp"
#include "stats/reorder.hpp"

namespace tcppr::telemetry {

struct TapConfig {
  // Flow-slot table size (rounded up to a power of two). Each slot tracks
  // one flow exactly; colliding flows contend for the slot Misra-Gries
  // style (see ReorderTap::observe).
  std::size_t flow_slots = 64;
  // Tenure cap: a resident flow's eviction resistance saturates here, so a
  // departed-but-unretired flow is displaced after at most max_tenure
  // colliding packets.
  std::uint32_t max_tenure = 16;
  // Count-min sketch geometry: kCmsRows rows of cms_width counters
  // (rounded up to a power of two).
  std::size_t cms_width = 512;
  // Exact per-flow ground truth (stats::ReorderMonitor per flow) for
  // differential testing. O(flows) memory — enable only at small N; the
  // sketches above stay O(1) either way.
  bool exact_baseline = false;
};

class ReorderTap {
 public:
  static constexpr std::size_t kCmsRows = 2;
  static constexpr std::size_t kHistBuckets = 16;
  static constexpr std::size_t kHeavyFlows = 4;

  struct Slot {
    net::FlowId flow = net::kInvalidFlow;
    net::SeqNo max_seen = -1;
    net::SeqNo max_displacement = 0;
    std::uint64_t packets = 0;
    std::uint64_t reordered = 0;
    std::uint64_t displacement_sum = 0;
    std::uint32_t tenure = 0;
  };

  // Resident slots + folded flows combined; every field is monotone
  // non-decreasing over the tap's lifetime (folding moves counts, it never
  // loses them).
  struct Totals {
    std::uint64_t data_packets = 0;   // exact, always
    std::uint64_t other_packets = 0;  // ACKs / closes: not tracked
    std::uint64_t reordered = 0;
    std::uint64_t displacement_sum = 0;
    net::SeqNo max_displacement = 0;
    std::uint64_t collisions = 0;  // packet hit a slot owned by another flow
    std::uint64_t evictions = 0;   // folds forced by tenure exhaustion
    std::uint64_t retired_folds = 0;  // folds requested via retire_flow
    std::uint64_t folded_flows = 0;   // evictions + retired_folds
  };

  struct ExactTotals {  // live monitors + retired aggregate (exact side)
    std::uint64_t total = 0;
    std::uint64_t reordered = 0;
    double extent_sum = 0;
    net::SeqNo max_extent = 0;
  };

  struct HeavyFlow {
    net::FlowId flow = net::kInvalidFlow;
    std::uint64_t estimate = 0;  // count-min estimate of reorder events
  };

  explicit ReorderTap(const TapConfig& config = TapConfig());

  ReorderTap(const ReorderTap&) = delete;
  ReorderTap& operator=(const ReorderTap&) = delete;

  // Hot-path entry, called by net::Link once per delivered packet when a
  // tap is attached. Data packets feed the sketches; everything else is
  // one counter bump.
  void on_deliver(const net::Packet& pkt) {
    if (pkt.type == net::PacketType::kTcpData) {
      observe(pkt.tcp.flow, pkt.tcp.seq);
    } else {
      ++other_packets_;
    }
  }
  // Sketch core, exposed directly so tests can drive hand-built sequences.
  void observe(net::FlowId flow, net::SeqNo seq);

  // Departure hook: folds the flow's resident slot (if any) into the
  // aggregate and retires its exact monitor (if any) the same way.
  // Idempotent — a second call for the same departed flow is a no-op, so
  // sender- and receiver-side teardown can both report the departure and
  // the flow still folds exactly once.
  void retire_flow(net::FlowId flow);

  Totals totals() const;
  const std::vector<Slot>& slots() const { return slots_; }
  // Displacement-density histogram over detected reorder events: bucket 0
  // holds zero displacements (duplicates of the running max), bucket b>=1
  // holds displacements in [2^(b-1), 2^b); the last bucket absorbs the
  // tail.
  const std::array<std::uint64_t, kHistBuckets>& displacement_histogram()
      const {
    return hist_;
  }
  // Count-min estimate of this flow's detected reorder events (>= the true
  // detected count, <= the tap-wide total).
  std::uint64_t cms_estimate(net::FlowId flow) const;
  // Top detected reorderers by count-min estimate, heaviest first.
  std::vector<HeavyFlow> heavy_reorderers() const;

  bool exact_baseline_enabled() const { return exact_enabled_; }
  ExactTotals exact_totals() const;
  const std::map<net::FlowId, stats::ReorderMonitor>& exact_flows() const {
    return exact_;
  }
  const stats::ReorderMonitor& exact_folded() const { return exact_folded_; }
  std::uint64_t exact_retired_folds() const { return exact_retired_folds_; }

  // Bytes held by the constant-memory sketches (slot table + count-min +
  // histogram + heavy list). Fixed at construction; the exact baseline is
  // deliberately excluded — it is the O(flows) ground truth, not the
  // detector.
  std::size_t sketch_bytes() const;

  // Mutation knob for the checker's self-test: inflates the folded
  // reorder count so the sketch claims more reordering than the exact
  // baseline ever saw — a corruption the bound checks must catch.
  void corrupt_sketch_for_test() {
    folded_reordered_ += 1000;
    folded_displacement_sum_ += 1000;
  }

 private:
  std::size_t slot_index(net::FlowId flow) const;
  void fold_slot(Slot& slot, bool retired);
  void note_reorder(net::FlowId flow);

  std::vector<Slot> slots_;
  std::size_t slot_mask_;
  std::uint32_t max_tenure_;

  std::uint64_t data_packets_ = 0;
  std::uint64_t other_packets_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t retired_folds_ = 0;

  // Folded (evicted + retired) flows' counters.
  std::uint64_t folded_packets_ = 0;
  std::uint64_t folded_reordered_ = 0;
  std::uint64_t folded_displacement_sum_ = 0;
  net::SeqNo folded_max_displacement_ = 0;

  std::array<std::uint64_t, kHistBuckets> hist_{};

  std::vector<std::uint32_t> cms_;  // kCmsRows x cms_width_, row-major
  std::size_t cms_mask_;
  std::array<HeavyFlow, kHeavyFlows> heavy_{};

  bool exact_enabled_;
  std::map<net::FlowId, stats::ReorderMonitor> exact_;
  stats::ReorderMonitor exact_folded_;
  std::uint64_t exact_retired_folds_ = 0;
};

}  // namespace tcppr::telemetry
