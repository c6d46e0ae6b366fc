// Link outage model for MANET-style topologies: a set of links toggles
// between up and down with exponentially distributed durations. Combined
// with multi-path or flap routing this produces the route-recomputation
// reordering the paper's introduction attributes to mobile ad-hoc networks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "obs/series.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::net {

class LinkFlapper {
 public:
  struct Config {
    sim::Duration mean_up = sim::Duration::seconds(5);
    sim::Duration mean_down = sim::Duration::millis(500);
    std::uint64_t seed = 1;
  };

  LinkFlapper(sim::Scheduler& sched, std::vector<Link*> links, Config config);

  // Emits "flap.transitions" / "flap.down" / "flap.down_time_s[label]"
  // samples on every toggle (and on stop()) when a registry with an active
  // sink is attached. Optional; without it the flapper only counts.
  void set_metric_registry(obs::MetricRegistry* registry,
                           const std::string& label = "flapper");

  void start();
  void stop();
  // Re-points the flapper at the scheduler shard owning its links
  // (parallel-mode adoption). Only legal before start().
  void rebind_scheduler(sim::Scheduler& shard) {
    timer_.rebind(shard);
    if (!links_.empty()) {
      timer_.set_stamp_entity(static_cast<std::uint32_t>(links_.front()->from()));
    }
    sched_ = &shard;
  }
  std::uint64_t transitions() const { return transitions_; }
  // Cumulative time the link set has spent administratively down,
  // including the current outage when called while down.
  sim::Duration down_time() const;

 private:
  void toggle();
  void emit_metrics();

  sim::Scheduler* sched_;
  std::vector<Link*> links_;
  Config config_;
  sim::Rng rng_;
  sim::Timer timer_;
  bool running_ = false;
  bool down_ = false;
  std::uint64_t transitions_ = 0;
  sim::Duration down_time_ = sim::Duration::zero();
  sim::TimePoint down_since_{};
  obs::MetricRegistry* reg_ = nullptr;
  obs::MetricId m_transitions_ = 0;
  obs::MetricId m_down_ = 0;
  obs::MetricId m_down_time_ = 0;
};

}  // namespace tcppr::net
