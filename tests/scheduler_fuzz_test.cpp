// Randomized model-based test for the scheduler: a long random sequence of
// schedule / cancel / run_until operations executed against the scheduler
// and checked against a naive reference model (sorted vector + linear
// scan). Any divergence in execution order, fired set, or clock is a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::sim {
namespace {

struct ModelEvent {
  std::int64_t time_ns;
  std::uint64_t seq;
  int tag;
  bool cancelled = false;
};

class Model {
 public:
  void schedule(std::int64_t time_ns, int tag) {
    events_.push_back(ModelEvent{time_ns, next_seq_++, tag});
  }
  // Cancels the live (unfired, uncancelled) event with the given tag.
  bool cancel(int tag) {
    for (auto& e : events_) {
      if (e.tag == tag && !e.cancelled && !fired_.count(e.tag)) {
        e.cancelled = true;
        return true;
      }
    }
    return false;
  }
  // Fires everything with time <= deadline in (time, seq) order.
  std::vector<int> run_until(std::int64_t deadline_ns) {
    std::vector<ModelEvent*> due;
    for (auto& e : events_) {
      if (!e.cancelled && !fired_.count(e.tag) && e.time_ns <= deadline_ns) {
        due.push_back(&e);
      }
    }
    std::sort(due.begin(), due.end(), [](const ModelEvent* a,
                                         const ModelEvent* b) {
      if (a->time_ns != b->time_ns) return a->time_ns < b->time_ns;
      return a->seq < b->seq;
    });
    std::vector<int> order;
    for (const auto* e : due) {
      fired_.insert(e->tag);
      order.push_back(e->tag);
    }
    return order;
  }
  // Tags of all live (unfired, uncancelled) events.
  std::vector<int> live_tags() const {
    std::vector<int> tags;
    for (const auto& e : events_) {
      if (!e.cancelled && !fired_.count(e.tag)) tags.push_back(e.tag);
    }
    return tags;
  }
  std::size_t live_count() const { return live_tags().size(); }

 private:
  std::vector<ModelEvent> events_;
  std::set<int> fired_;
  std::uint64_t next_seq_ = 0;
};

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, MatchesReferenceModel) {
  Rng rng(GetParam());
  Scheduler sched;
  Model model;
  std::vector<int> fired;            // scheduler-side execution order
  std::vector<EventId> ids;          // tag -> EventId (index = tag)
  std::int64_t clock_ns = 0;
  int next_tag = 0;

  for (int op = 0; op < 3000; ++op) {
    const double u = rng.uniform();
    if (u < 0.50) {
      // Schedule at a random future time (clustered near the clock).
      const std::int64_t delta =
          static_cast<std::int64_t>(rng.uniform(0, 5e7));  // up to 50 ms
      const std::int64_t t = clock_ns + delta;
      const int tag = next_tag++;
      ids.push_back(sched.schedule_at(TimePoint::origin() +
                                          Duration::nanos(t),
                                      [&fired, tag] { fired.push_back(tag); }));
      model.schedule(t, tag);
    } else if (u < 0.55) {
      // Monotone burst: a run of nondecreasing times, the pattern the
      // heap's sorted-append fast path targets; the next random
      // schedule/cancel exercises the exit back to heap mode.
      std::int64_t t = clock_ns;
      const int burst = 1 + static_cast<int>(rng.uniform_int(30));
      for (int i = 0; i < burst; ++i) {
        t += static_cast<std::int64_t>(rng.uniform(0, 1e6));  // up to 1 ms
        const int tag = next_tag++;
        ids.push_back(sched.schedule_at(
            TimePoint::origin() + Duration::nanos(t),
            [&fired, tag] { fired.push_back(tag); }));
        model.schedule(t, tag);
      }
    } else if (u < 0.72 && next_tag > 0) {
      // Cancel a random tag (may already be fired/cancelled; both sides
      // must agree on whether the cancel "took"), then re-check the stale
      // id: a successful cancel must leave it dead even after slot reuse.
      const int tag = static_cast<int>(rng.uniform_int(
          static_cast<std::uint64_t>(next_tag)));
      const bool a = sched.cancel(ids[static_cast<std::size_t>(tag)]);
      const bool b = model.cancel(tag);
      ASSERT_EQ(a, b) << "cancel divergence on tag " << tag << " op " << op;
      ASSERT_FALSE(sched.is_pending(ids[static_cast<std::size_t>(tag)]));
      ASSERT_FALSE(sched.cancel(ids[static_cast<std::size_t>(tag)]));
    } else if (u < 0.745 && next_tag > 0) {
      // Cancel-sweep: kill every live event so the next run hits the
      // dead-queue fast path (live_count == 0 with stales still queued).
      for (const int tag : model.live_tags()) {
        ASSERT_TRUE(sched.cancel(ids[static_cast<std::size_t>(tag)]));
        ASSERT_TRUE(model.cancel(tag));
      }
      ASSERT_EQ(sched.pending_count(), 0u);
    } else {
      // Advance time and fire.
      clock_ns += static_cast<std::int64_t>(rng.uniform(0, 2e7));
      const std::size_t before = fired.size();
      sched.run_until(TimePoint::origin() + Duration::nanos(clock_ns));
      const auto expected = model.run_until(clock_ns);
      ASSERT_EQ(fired.size() - before, expected.size()) << "op " << op;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(fired[before + i], expected[i]) << "op " << op;
      }
    }
    ASSERT_EQ(sched.pending_count(), model.live_count()) << "op " << op;
  }
  // Drain and compare the tail.
  const std::size_t before = fired.size();
  sched.run();
  const auto expected = model.run_until(std::numeric_limits<std::int64_t>::max());
  ASSERT_EQ(fired.size() - before, expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired[before + i], expected[i]);
  }
}

std::string fuzz_case_name(
    const ::testing::TestParamInfo<SchedulerFuzz::ParamType>& info) {
  return "seed_" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(1u, 22u, 333u, 4444u),
                         fuzz_case_name);

}  // namespace
}  // namespace tcppr::sim
