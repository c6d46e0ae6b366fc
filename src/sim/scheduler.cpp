#include "sim/scheduler.hpp"

#include <new>
#include <utility>

#include "util/check.hpp"

namespace tcppr::sim {

Scheduler::~Scheduler() {
  for (std::uint32_t i = 0; i < slot_count_; ++i) slot(i).~Slot();
  for (Slot* chunk : chunks_) {
    ::operator delete(chunk, std::align_val_t{64});
  }
}

std::uint32_t Scheduler::acquire_slot(TimePoint t) {
  TCPPR_CHECK(t >= now_);
  std::uint32_t index;
  if (free_head_ != kFreeListEnd) {
    index = free_head_;
    free_head_ = slot(index).next_free;
  } else {
    TCPPR_CHECK(slot_count_ < kFreeListEnd);
    if (slot_count_ == chunks_.size() * kChunkSlots) {
      chunks_.push_back(static_cast<Slot*>(::operator new(
          sizeof(Slot) * kChunkSlots, std::align_val_t{64})));
    }
    index = slot_count_++;
    ::new (static_cast<void*>(&slot(index))) Slot();
  }
  return index;
}

TimePoint Scheduler::delay_to_time(Duration d) const {
  TCPPR_CHECK(d >= Duration::zero());
  return now_ + d;
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.cb.reset();
  if (++s.generation == 0) s.generation = 1;  // keep packed ids non-zero
  s.next_free = free_head_;
  free_head_ = index;
  --live_count_;
}

bool Scheduler::cancel(EventId id) {
  if (!is_live(id.value)) return false;
  release_slot(slot_of(id.value));
  return true;
}

bool Scheduler::is_pending(EventId id) const { return is_live(id.value); }

void Scheduler::fire(const QueuedEvent& event) {
  const std::uint32_t index = slot_of(event.id);
  Slot& s = slot(index);
  // Invalidate outstanding ids before invoking, but keep the slot off the
  // free list until the callback returns: chunk addresses are stable, so
  // the callback runs in place, and new events it schedules can never be
  // handed this slot while it executes.
  if (++s.generation == 0) s.generation = 1;
  --live_count_;
  ++processed_;
  now_ = event.time;
  current_event_seq_ = event.seq;
  s.cb();
  current_event_seq_ = 0;
  s.cb.reset();
  s.next_free = free_head_;
  free_head_ = index;
}

bool Scheduler::would_fire_next(TimePoint t, std::uint64_t seq) {
  if (stopped_) return false;
  switch (run_limit_) {
    case RunLimit::kNone:
      break;
    case RunLimit::kInclusive:
      if (t > run_limit_time_) return false;
      break;
    case RunLimit::kExclusive:
      if (t >= run_limit_time_) return false;
      break;
  }
  for (;;) {
    if (live_count_ == 0) return true;
    const auto next = queue_.peek_min();
    if (!next) return true;
    if (!is_live(next->id)) {
      queue_.pop_min();
      continue;
    }
    return t < next->time || (t == next->time && seq < next->seq);
  }
}

void Scheduler::run() {
  stopped_ = false;
  run_limit_ = RunLimit::kNone;
  while (!stopped_) {
    if (live_count_ == 0) {
      // Everything still queued is a cancelled stale; popping each one
      // through the sift machinery would be wasted work.
      queue_.clear();
      break;
    }
    const auto event = queue_.pop_min();
    if (!event) break;
    if (!is_live(event->id)) continue;  // cancelled: stale queue entry
    fire(*event);
  }
}

void Scheduler::run_until(TimePoint deadline) {
  stopped_ = false;
  run_limit_ = RunLimit::kInclusive;
  run_limit_time_ = deadline;
  while (!stopped_) {
    if (live_count_ == 0) {
      queue_.clear();
      break;
    }
    const auto next = queue_.peek_min();
    if (!next) break;
    if (!is_live(next->id)) {
      // Cancelled: drop the stale entry even when it lies past the
      // deadline; peeking it again every window would be wasted work.
      queue_.pop_min();
      continue;
    }
    if (next->time > deadline) break;  // stays queued — peek, don't pop
    const auto event = queue_.pop_min();
    fire(*event);
  }
  if (now_ < deadline) now_ = deadline;
}

void Scheduler::run_until_before(TimePoint horizon) {
  stopped_ = false;
  run_limit_ = RunLimit::kExclusive;
  run_limit_time_ = horizon;
  while (!stopped_) {
    if (live_count_ == 0) {
      queue_.clear();
      break;
    }
    const auto next = queue_.peek_min();
    if (!next) break;
    if (!is_live(next->id)) {
      queue_.pop_min();
      continue;
    }
    if (next->time >= horizon) break;  // exclusive: horizon events wait
    const auto event = queue_.pop_min();
    fire(*event);
  }
  if (now_ < horizon) now_ = horizon;
}

std::optional<TimePoint> Scheduler::next_deadline() {
  if (live_count_ == 0) {
    queue_.clear();
    return std::nullopt;
  }
  for (;;) {
    const auto next = queue_.peek_min();
    if (!next) return std::nullopt;
    if (is_live(next->id)) return next->time;
    queue_.pop_min();
  }
}

}  // namespace tcppr::sim
