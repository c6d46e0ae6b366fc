// Flow-id slot table with 2MSL-style quarantine, extracted from the
// WorkloadEngine so the id-space machinery is provable at million-slot
// scale without building a million transport objects around it.
//
// A slot is the offset of a flow id inside the engine's contiguous id
// range. Its lifecycle is
//
//     fresh --allocate--> active --release--> cooling --(quarantine
//     elapsed, observed lazily at allocate time)--> ready --allocate-->
//     active ...
//
// and every transition is O(1): cooling slots sit in a FIFO deque ordered
// by release time (front = coolest), so only the front ever needs its
// cool-down checked, and ready slots are a LIFO vector. Nothing here scans
// the table — at id_slots = 2^20 the table costs exactly as much per
// operation as at 2^10. Each slot additionally carries a monotonically
// increasing generation, bumped on every allocation, so events captured
// against a dead incarnation (a completion callback, a deferred teardown)
// can be recognized as stale after the slot was recycled.
//
// Per-slot storage is struct-of-arrays and asserted against a byte budget
// (kSlabBytesPerSlot); the table grows lazily to the high-water slot count
// and never shrinks.
#pragma once

#include <cstdint>
#include <cstddef>
#include <deque>
#include <vector>

namespace tcppr::workload {

class SlotTable {
 public:
  // `capacity` is the id-space size (max slots ever); `quarantine_ns` the
  // cool-down between release and reuse.
  SlotTable(std::int32_t capacity, std::int64_t quarantine_ns);

  // Pops a cooled or fresh slot, marks it active, and bumps its
  // generation; -1 when every slot is active or still cooling. O(1)
  // amortized (the cooling FIFO pops at most as many entries as were
  // pushed).
  std::int32_t allocate(std::int64_t now_ns);

  // Returns an active slot to the quarantine FIFO. The generation is NOT
  // bumped here — the dead incarnation keeps its number so in-flight
  // events for it stay distinguishable from the next occupant's.
  void release(std::uint32_t slot, std::int64_t now_ns);

  // Current generation of `slot`. A (slot, generation) pair captured at
  // spawn time identifies one incarnation; compare before acting on a
  // deferred event.
  std::uint32_t generation(std::uint32_t slot) const {
    return generation_[slot];
  }
  bool active(std::uint32_t slot) const { return state_[slot] == kActive; }

  // High-water slot count actually materialized (<= capacity).
  std::size_t size() const { return state_.size(); }
  std::int32_t capacity() const { return capacity_; }
  std::size_t active_count() const { return active_count_; }
  std::size_t cooling_count() const { return cooling_.size(); }

  // Bytes currently reserved by the per-slot arrays plus the recycling
  // queues (capacity, not size — what the process actually holds).
  std::size_t slab_bytes() const;

  // Per-slot budget over the struct-of-arrays members. The recycling
  // queues hold each non-active slot in exactly one of cooling_/ready_,
  // so one 4-byte entry rides on top of the arrays.
  static constexpr std::size_t kSlabBytesPerSlot =
      sizeof(std::uint8_t) +    // state_
      sizeof(std::uint32_t) +   // generation_
      sizeof(std::int64_t);     // freed_at_ns_

 private:
  enum SlotState : std::uint8_t { kActive = 1, kCooling = 2, kReady = 3 };

  const std::int32_t capacity_;
  const std::int64_t quarantine_ns_;
  std::size_t active_count_ = 0;

  // Struct-of-arrays, indexed by slot, grown lazily to the high-water
  // count.
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> generation_;
  std::vector<std::int64_t> freed_at_ns_;

  // Released slots in FIFO quarantine order (front = coolest); slots whose
  // cool-down elapsed move to ready_ at allocation time.
  std::deque<std::uint32_t> cooling_;
  std::vector<std::uint32_t> ready_;
};

}  // namespace tcppr::workload
