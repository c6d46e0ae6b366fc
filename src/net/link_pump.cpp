#include "net/link_pump.hpp"

#include "net/link.hpp"

namespace tcppr::net {

LinkPump::~LinkPump() {
  if (parked_.valid()) sched_->cancel(parked_);
}

std::uint32_t LinkPump::add_link(Link* link) {
  links_.push_back(link);
  return static_cast<std::uint32_t>(links_.size() - 1);
}

bool LinkPump::entry_valid(const sim::QueuedEvent& e) const {
  const Link* link = links_[static_cast<std::size_t>(e.id >> 1)];
  const std::optional<PumpKey> head =
      link->pump_op_key(static_cast<PumpOp>(e.id & 1));
  return head && head->at == e.time && head->seq == e.seq;
}

std::optional<sim::QueuedEvent> LinkPump::pop_valid_min() {
  for (;;) {
    auto e = heap_.pop_min();
    if (!e || entry_valid(*e)) return e;
  }
}

std::optional<sim::QueuedEvent> LinkPump::peek_valid_min() {
  for (;;) {
    auto e = heap_.peek_min();
    if (!e) return std::nullopt;
    if (entry_valid(*e)) return e;
    heap_.pop_min();
  }
}

void LinkPump::park(PumpKey k) {
  // The carrier occupies the head op's exact schedule position: no new
  // sequence is minted, so the schedule the scheduler sees is a subset of
  // the unbatched one.
  parked_key_ = k;
  parked_ = sched_->schedule_at_stamped(k.at, k.seq, [this] { on_event(); });
}

void LinkPump::push_op(PumpKey k, std::uint32_t link_id, PumpOp op) {
  heap_.push(sim::QueuedEvent{
      k.at, k.seq,
      (static_cast<std::uint64_t>(link_id) << 1) |
          static_cast<std::uint64_t>(op)});
  if (in_batch_) return;  // the batch loop re-parks when it drains
  if (!parked_.valid()) {
    park(k);
    return;
  }
  if (k.at < parked_key_.at ||
      (k.at == parked_key_.at && k.seq < parked_key_.seq)) {
    sched_->cancel(parked_);
    park(k);
  }
}

void LinkPump::on_event() {
  // Fired at parked_key_ == the earliest op's key; the scheduler has
  // already advanced now/current_event_seq to it.
  parked_ = sim::EventId{};
  in_batch_ = true;
  ++stats_.events;
  bool first = true;
  for (;;) {
    const auto e = pop_valid_min();
    if (!e) break;
    if (!first) sched_->advance_batched_op(e->time, e->seq);
    first = false;
    ++stats_.ops;
    Link* link = links_[static_cast<std::size_t>(e->id >> 1)];
    if (static_cast<PumpOp>(e->id & 1) == PumpOp::kTxComplete) {
      link->pump_run_tx();
    } else {
      link->pump_run_delivery();
    }
    const auto next = peek_valid_min();
    if (!next) break;
    if (!sched_->would_fire_next(next->time, next->seq)) {
      in_batch_ = false;
      park(PumpKey{next->time, next->seq});
      return;
    }
    // Loop: the next iteration advances the clock to `next` and executes
    // it inside this same event.
  }
  in_batch_ = false;
}

}  // namespace tcppr::net
