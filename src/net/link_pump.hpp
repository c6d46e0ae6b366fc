// LinkPump: per-scheduler carrier for batched packet ops.
//
// The unbatched engine schedules one event per packet op — a transmission
// completion, then a delivery — so events/packet >= 2 per hop. The pump
// inverts that: links register their op streams here, each op keyed with
// the exact (time, tie-break sequence) its dedicated event would have
// carried (the link mints the sequence at the same program point with
// Scheduler::mint_seq), and the pump keeps exactly ONE scheduler event
// parked at the earliest key. When it fires, the pump executes the popped
// op and then keeps going: as long as the earliest remaining op would be
// the very next thing the scheduler ran anyway (Scheduler::would_fire_next)
// it advances the clock to that op's key (advance_batched_op) and executes
// it inside the same event. Deliveries landing back to back on one link
// additionally coalesce into a PacketBatch handed to the node in one call
// (see Link::pump_run_deliveries). Every op still executes at exactly the
// (time, seq) position it holds in the unbatched schedule, so delivery
// order — and therefore the determinism oracle's kDeliver stream — is
// byte-identical; only the number of scheduler events shrinks.
//
// Index structure: a private heap holds one entry per op-stream *head*
// (plus stale entries left behind when an earlier op overtook a former
// head — the jitter reorder case). An entry is valid iff its key still
// matches the owning link's current head key; stale entries are skipped on
// pop, mirroring the scheduler's own lazy cancellation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::net {

class Link;

// Key of a pump op: the (time, tie-break sequence) of the scheduler event
// the op replaces.
struct PumpKey {
  sim::TimePoint at;
  std::uint64_t seq = 0;
};

enum class PumpOp : std::uint32_t { kTxComplete = 0, kDeliver = 1 };

// Process-wide toggle for the batched hot path, read by Network at
// construction (default on). Runs built with it off schedule one event per
// packet op, exactly the pre-batching engine — the comparison baseline the
// equivalence suite and benches use.
void set_hot_path_batching(bool on);
bool hot_path_batching();

class LinkPump {
 public:
  struct Stats {
    std::uint64_t events = 0;  // carrier events fired
    std::uint64_t ops = 0;     // packet ops executed (>= events)
    std::uint64_t delivery_runs = 0;
    std::uint64_t delivered_in_runs = 0;
  };
  // log2 histogram of delivery-run lengths: bucket i counts runs of length
  // in [2^i, 2^(i+1)); the last bucket is open-ended (>= 128).
  using RunHistogram = std::array<std::uint64_t, 8>;

  explicit LinkPump(sim::Scheduler& sched) : sched_(&sched) {}
  LinkPump(const LinkPump&) = delete;
  LinkPump& operator=(const LinkPump&) = delete;
  ~LinkPump();

  sim::Scheduler& scheduler() { return *sched_; }

  // Registers a link and returns the id it must pass to push_op. Links on
  // this pump must be bound to the same scheduler.
  std::uint32_t add_link(Link* link);

  // A new head appeared on `link_id`'s op stream. Outside a batch the
  // parked carrier event is moved earlier when the new head precedes it;
  // inside a batch the main loop re-parks after draining.
  void push_op(PumpKey k, std::uint32_t link_id, PumpOp op);

  // Called by a link mid-delivery-run: true when the op keyed `k` (the
  // link's next ring entry) may ride the current event — it precedes every
  // other pump op and every pending scheduler event. On success the clock
  // has been advanced to `k` and the caller must execute the op.
  bool try_extend(PumpKey k);

  // Per-link delivery-run length accounting (obs: batch-size histogram).
  void note_delivery_run(std::uint32_t link_id, std::size_t len);

  const Stats& stats() const { return stats_; }
  const RunHistogram& run_histogram(std::uint32_t link_id) const {
    return histograms_[link_id];
  }
  std::size_t link_count() const { return links_.size(); }
  // Sum of all per-link histograms.
  RunHistogram aggregate_histogram() const;

 private:
  void on_event();
  void park(PumpKey k);
  bool entry_valid(const sim::QueuedEvent& e) const;
  // Pops stale entries; returns the earliest valid one, or nullopt.
  std::optional<sim::QueuedEvent> pop_valid_min();
  // Like pop_valid_min but leaves the entry indexed.
  std::optional<sim::QueuedEvent> peek_valid_min();

  sim::Scheduler* sched_;
  std::vector<Link*> links_;
  std::vector<RunHistogram> histograms_;
  sim::HeapQueue heap_;  // entry id = (link_id << 1) | op
  sim::EventId parked_{};
  PumpKey parked_key_{};
  bool in_batch_ = false;
  Stats stats_;
};

}  // namespace tcppr::net
