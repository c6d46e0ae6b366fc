#include "net/queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/scheduler.hpp"
#include "util/check.hpp"

namespace tcppr::net {

DropTailQueue::DropTailQueue(std::size_t limit_packets,
                             std::uint64_t limit_bytes)
    : limit_(limit_packets), limit_bytes_(limit_bytes) {
  TCPPR_CHECK(limit_packets > 0);
}

bool DropTailQueue::enqueue(Packet&& pkt) {
  if (q_.size() >= limit_ ||
      (limit_bytes_ > 0 && bytes_ + pkt.size_bytes > limit_bytes_)) {
    ++stats_.dropped;
    stats_.bytes_dropped += pkt.size_bytes;
    return false;
  }
  ++stats_.enqueued;
  stats_.bytes_enqueued += pkt.size_bytes;
  bytes_ += pkt.size_bytes;
  q_.push_back(std::move(pkt));
  return true;
}

std::optional<Packet> DropTailQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  Packet pkt = q_.pop_front();
  bytes_ -= pkt.size_bytes;
  ++stats_.dequeued;
  stats_.bytes_dequeued += pkt.size_bytes;
  return pkt;
}

bool DropTailQueue::dequeue_into(Packet& out) {
  if (q_.empty()) return false;
  Packet& front = q_.front();
  bytes_ -= front.size_bytes;
  ++stats_.dequeued;
  stats_.bytes_dequeued += front.size_bytes;
  out = std::move(front);
  q_.drop_front();
  return true;
}

std::size_t DropTailQueue::enqueue_batch(PacketBatch& batch, std::size_t begin,
                                         std::size_t end) {
  // With the byte cap off, admission depends only on the packet count, so
  // the whole burst splits into an accepted prefix and a dropped suffix in
  // one limit check — same outcomes, stats folded per half.
  if (limit_bytes_ != 0) return Queue::enqueue_batch(batch, begin, end);
  const std::size_t room = limit_ > q_.size() ? limit_ - q_.size() : 0;
  const std::size_t n = end - begin;
  const std::size_t accepted = n < room ? n : room;
  for (std::size_t i = begin; i < begin + accepted; ++i) {
    bytes_ += batch[i].size_bytes;
    stats_.bytes_enqueued += batch[i].size_bytes;
    q_.push_back(std::move(batch[i]));
  }
  stats_.enqueued += accepted;
  for (std::size_t i = begin + accepted; i < end; ++i) {
    stats_.bytes_dropped += batch[i].size_bytes;
  }
  stats_.dropped += n - accepted;
  return accepted;
}

PriorityQueue::PriorityQueue(int bands, std::size_t limit_per_band,
                             Classifier classifier)
    : limit_per_band_(limit_per_band),
      classifier_(std::move(classifier)),
      bands_(static_cast<std::size_t>(bands)),
      band_stats_(static_cast<std::size_t>(bands)) {
  TCPPR_CHECK(bands > 0);
  TCPPR_CHECK(limit_per_band_ > 0);
  TCPPR_CHECK(classifier_ != nullptr);
}

bool PriorityQueue::enqueue(Packet&& pkt) {
  const int band = classifier_(pkt);
  TCPPR_CHECK(band >= 0 && band < static_cast<int>(bands_.size()));
  auto& q = bands_[static_cast<std::size_t>(band)];
  QueueStats& bs = band_stats_[static_cast<std::size_t>(band)];
  if (q.size() >= limit_per_band_) {
    ++stats_.dropped;
    stats_.bytes_dropped += pkt.size_bytes;
    ++bs.dropped;
    bs.bytes_dropped += pkt.size_bytes;
    return false;
  }
  ++stats_.enqueued;
  stats_.bytes_enqueued += pkt.size_bytes;
  ++bs.enqueued;
  bs.bytes_enqueued += pkt.size_bytes;
  bytes_ += pkt.size_bytes;
  q.push_back(std::move(pkt));
  return true;
}

std::optional<Packet> PriorityQueue::dequeue() {
  for (std::size_t band = 0; band < bands_.size(); ++band) {
    auto& q = bands_[band];
    if (!q.empty()) {
      Packet pkt = q.pop_front();
      bytes_ -= pkt.size_bytes;
      ++stats_.dequeued;
      stats_.bytes_dequeued += pkt.size_bytes;
      QueueStats& bs = band_stats_[band];
      ++bs.dequeued;
      bs.bytes_dequeued += pkt.size_bytes;
      return pkt;
    }
  }
  return std::nullopt;
}

std::size_t PriorityQueue::length_packets() const {
  std::size_t total = 0;
  for (const auto& q : bands_) total += q.size();
  return total;
}

std::size_t PriorityQueue::band_length(int band) const {
  TCPPR_CHECK(band >= 0 && band < static_cast<int>(bands_.size()));
  return bands_[static_cast<std::size_t>(band)].size();
}

const QueueStats& PriorityQueue::band_stats(int band) const {
  TCPPR_CHECK(band >= 0 && band < static_cast<int>(band_stats_.size()));
  return band_stats_[static_cast<std::size_t>(band)];
}

RedQueue::RedQueue(Params params, sim::Rng rng)
    : params_(params), rng_(rng) {
  TCPPR_CHECK(params_.limit_packets > 0);
  TCPPR_CHECK(params_.min_thresh < params_.max_thresh);
  TCPPR_CHECK(params_.max_p > 0 && params_.max_p <= 1);
  TCPPR_CHECK(params_.weight > 0 && params_.weight <= 1);
}

void RedQueue::set_time_source(const sim::Scheduler* sched,
                               double bandwidth_bps) {
  sched_ = sched;
  bandwidth_bps_ = bandwidth_bps;
  if (sched_ != nullptr && q_.empty()) {
    idle_ = true;
    idle_since_ = sched_->now();
  }
}

bool RedQueue::enqueue(Packet&& pkt) {
  if (idle_ && sched_ != nullptr) {
    // Floyd/Jacobson idle adjustment: decay the average by (1-w)^m, where
    // m estimates how many (small) packets the link could have transmitted
    // while the queue sat empty. Without this the average frozen at the
    // end of the previous busy period early-drops the next burst.
    const double idle_s = (sched_->now() - idle_since_).as_seconds();
    const double pkt_s = params_.idle_pkt_bytes * 8.0 / bandwidth_bps_;
    if (idle_s > 0 && pkt_s > 0) {
      avg_ *= std::pow(1.0 - params_.weight, idle_s / pkt_s);
    }
    idle_ = false;
  }
  avg_ = (1 - params_.weight) * avg_ +
         params_.weight * static_cast<double>(q_.size());

  bool drop = false;
  if (q_.size() >= params_.limit_packets) {
    drop = true;
  } else if (avg_ >= params_.max_thresh) {
    // Gentle RED: probability ramps from max_p to 1 between max and 2*max.
    const double over =
        (avg_ - params_.max_thresh) / std::max(params_.max_thresh, 1.0);
    const double p = std::min(1.0, params_.max_p + (1 - params_.max_p) * over);
    drop = rng_.bernoulli(p);
  } else if (avg_ >= params_.min_thresh) {
    const double pb = params_.max_p * (avg_ - params_.min_thresh) /
                      (params_.max_thresh - params_.min_thresh);
    ++count_since_drop_;
    const double denom = 1.0 - static_cast<double>(count_since_drop_) * pb;
    const double pa = denom <= 0 ? 1.0 : std::min(1.0, pb / denom);
    drop = rng_.bernoulli(pa);
    if (drop) count_since_drop_ = 0;
  } else {
    count_since_drop_ = -1;
  }

  if (drop) {
    ++stats_.dropped;
    stats_.bytes_dropped += pkt.size_bytes;
    return false;
  }
  ++stats_.enqueued;
  stats_.bytes_enqueued += pkt.size_bytes;
  bytes_ += pkt.size_bytes;
  q_.push_back(std::move(pkt));
  return true;
}

std::optional<Packet> RedQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  Packet pkt = q_.pop_front();
  bytes_ -= pkt.size_bytes;
  ++stats_.dequeued;
  stats_.bytes_dequeued += pkt.size_bytes;
  if (q_.empty() && sched_ != nullptr) {
    idle_ = true;
    idle_since_ = sched_->now();
  }
  return pkt;
}

}  // namespace tcppr::net
