// Unit tests for the discrete-event engine: time arithmetic, RNG, the
// scheduler's ordering/cancellation semantics, and the Timer wrapper.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tcppr::sim {
namespace {

TEST(Time, DurationConversions) {
  EXPECT_EQ(Duration::seconds(1.5).as_nanos(), 1'500'000'000);
  EXPECT_EQ(Duration::millis(2).as_nanos(), 2'000'000);
  EXPECT_EQ(Duration::micros(3).as_nanos(), 3'000);
  EXPECT_DOUBLE_EQ(Duration::seconds(0.25).as_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(Duration::millis(10).as_millis(), 10.0);
}

TEST(Time, DurationArithmetic) {
  const Duration a = Duration::millis(10);
  const Duration b = Duration::millis(5);
  EXPECT_EQ((a + b).as_nanos(), Duration::millis(15).as_nanos());
  EXPECT_EQ((a - b).as_nanos(), Duration::millis(5).as_nanos());
  EXPECT_EQ((a * 2.0).as_nanos(), Duration::millis(20).as_nanos());
  EXPECT_EQ((2.0 * a).as_nanos(), Duration::millis(20).as_nanos());
  EXPECT_EQ((a / 2.0).as_nanos(), Duration::millis(5).as_nanos());
  EXPECT_LT(b, a);
  EXPECT_EQ(Duration::zero().as_nanos(), 0);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::seconds(2);
  EXPECT_DOUBLE_EQ(t1.as_seconds(), 2.0);
  EXPECT_EQ((t1 - t0).as_nanos(), Duration::seconds(2).as_nanos());
  EXPECT_EQ((t1 - Duration::seconds(1)).as_nanos(),
            Duration::seconds(1).as_nanos());
  EXPECT_LT(t0, t1);
}

TEST(Time, SaturatingAddAtMax) {
  const TimePoint m = TimePoint::max();
  EXPECT_EQ(m + Duration::seconds(10), TimePoint::max());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForksAreIndependentStreams) {
  Rng base(7);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (f1.next_u64() == f2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformIntRange) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.uniform_int(10)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(17);
  const double w[3] = {1.0, 2.0, 7.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.categorical(w, 3)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(TimePoint::from_seconds(3), [&] { order.push_back(3); });
  sched.schedule_at(TimePoint::from_seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(TimePoint::from_seconds(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now().as_seconds(), 3.0);
}

TEST(Scheduler, TiesBreakFifo) {
  Scheduler sched;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_seconds(1);
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  const EventId id =
      sched.schedule_at(TimePoint::from_seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sched.is_pending(id));
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.is_pending(id));
  EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, RunUntilLeavesLaterEvents) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(TimePoint::from_seconds(1), [&] { ++count; });
  sched.schedule_at(TimePoint::from_seconds(5), [&] { ++count; });
  sched.run_until(TimePoint::from_seconds(2));
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sched.now().as_seconds(), 2.0);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run_until(TimePoint::from_seconds(10));
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sched.now().as_seconds(), 10.0);
}

TEST(Scheduler, RunUntilAlternatingWindowsMatchSortedReference) {
  // Regression for run_until popping past the deadline: the loop must peek
  // before popping so an event beyond the window stays queued and fires in
  // a later window. Each window must fire exactly the events a sorted
  // (time, seq) reference places in it, in that order.
  Scheduler sched;
  std::vector<int> fired;
  std::vector<std::pair<double, int>> reference;  // (time s, id), sorted
  for (int i = 1; i <= 8; ++i) {
    sched.schedule_at(TimePoint::from_seconds(i),
                      [&fired, i] { fired.push_back(i); });
    reference.emplace_back(i, i);
  }
  std::vector<int> expected;
  std::size_t next = 0;
  for (const double deadline : {0.5, 2.5, 2.75, 6.0, 100.0}) {
    sched.run_until(TimePoint::from_seconds(deadline));
    // The deadline is inclusive.
    while (next < reference.size() && reference[next].first <= deadline) {
      expected.push_back(reference[next++].second);
    }
    EXPECT_EQ(fired, expected) << "window ending at " << deadline;
    EXPECT_EQ(sched.pending_count(), reference.size() - next);
    EXPECT_DOUBLE_EQ(sched.now().as_seconds(), deadline);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Scheduler, RunUntilWithInterleavedCancels) {
  // Cancelling events that lie beyond the current window must neither fire
  // them later nor disturb the survivors' order.
  Scheduler sched;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 1; i <= 6; ++i) {
    ids.push_back(sched.schedule_at(TimePoint::from_seconds(i),
                                    [&fired, i] { fired.push_back(i); }));
  }
  sched.cancel(ids[3]);  // t=4, beyond the first window
  sched.run_until(TimePoint::from_seconds(2.5));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  sched.cancel(ids[4]);  // t=5
  sched.run_until(TimePoint::from_seconds(10));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 6}));
}

TEST(Scheduler, StaleIdAcrossSlotReuseIsRejected) {
  Scheduler sched;
  bool first_ran = false;
  bool second_ran = false;
  const EventId a =
      sched.schedule_at(TimePoint::from_seconds(1), [&] { first_ran = true; });
  EXPECT_TRUE(sched.cancel(a));
  // The freed slot is handed to the next event (LIFO free list); the stale
  // id must not alias the new occupant.
  const EventId b =
      sched.schedule_at(TimePoint::from_seconds(2), [&] { second_ran = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(a.value),
            static_cast<std::uint32_t>(b.value));  // same slot...
  EXPECT_NE(a.value, b.value);                     // ...new generation
  EXPECT_FALSE(sched.is_pending(a));
  EXPECT_FALSE(sched.cancel(a));  // must not cancel the new occupant
  EXPECT_TRUE(sched.is_pending(b));
  sched.run();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
}

TEST(Scheduler, StaleIdAfterFireIsRejected) {
  Scheduler sched;
  int ran = 0;
  const EventId a =
      sched.schedule_at(TimePoint::from_seconds(1), [&] { ++ran; });
  sched.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sched.is_pending(a));
  // A later event reuses the fired slot; the old id must not cancel it.
  sched.schedule_at(TimePoint::from_seconds(2), [&] { ++ran; });
  EXPECT_FALSE(sched.cancel(a));
  sched.run();
  EXPECT_EQ(ran, 2);
}

TEST(Scheduler, ManyReusesKeepIdsUnique) {
  // Hammer one slot through schedule/cancel cycles; every id must be
  // distinct and only the latest one live.
  Scheduler sched;
  EventId prev{};
  for (int i = 0; i < 1000; ++i) {
    const EventId id = sched.schedule_at(TimePoint::from_seconds(1), [] {});
    EXPECT_NE(id, prev);
    EXPECT_FALSE(sched.is_pending(prev));
    EXPECT_TRUE(sched.is_pending(id));
    EXPECT_TRUE(sched.cancel(id));
    prev = id;
  }
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sched.schedule_in(Duration::seconds(1), chain);
    }
  };
  sched.schedule_in(Duration::seconds(1), chain);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sched.now().as_seconds(), 5.0);
}

TEST(Scheduler, StopHaltsProcessing) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(TimePoint::from_seconds(1), [&] {
    ++count;
    sched.stop();
  });
  sched.schedule_at(TimePoint::from_seconds(2), [&] { ++count; });
  sched.run();
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, ProcessedCount) {
  Scheduler sched;
  for (int i = 0; i < 7; ++i) {
    sched.schedule_at(TimePoint::from_seconds(i + 1), [] {});
  }
  sched.run();
  EXPECT_EQ(sched.processed_count(), 7u);
}

TEST(Timer, RescheduleCancelsPrevious) {
  Scheduler sched;
  Timer timer(sched);
  int fired = 0;
  timer.schedule_at(TimePoint::from_seconds(1), [&] { fired = 1; });
  timer.schedule_at(TimePoint::from_seconds(2), [&] { fired = 2; });
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(Timer, CancelAndPending) {
  Scheduler sched;
  Timer timer(sched);
  bool ran = false;
  timer.schedule_in(Duration::seconds(1), [&] { ran = true; });
  EXPECT_TRUE(timer.pending());
  timer.cancel();
  EXPECT_FALSE(timer.pending());
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(Timer, DestructorCancels) {
  Scheduler sched;
  bool ran = false;
  {
    Timer timer(sched);
    timer.schedule_in(Duration::seconds(1), [&] { ran = true; });
  }
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(DeadlineTimer, FiresOnceAtTheDeadline) {
  Scheduler sched;
  int fired = 0;
  TimePoint fire_time;
  DeadlineTimer timer(sched, [&] {
    ++fired;
    fire_time = sched.now();
  });
  timer.arm(TimePoint::origin() + Duration::millis(10));
  EXPECT_TRUE(timer.armed());
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fire_time.as_nanos(), Duration::millis(10).as_nanos());
  EXPECT_FALSE(timer.armed());
}

TEST(DeadlineTimer, MonotoneRearmsKeepOnePhysicalEvent) {
  // The coalescing contract: pushing the deadline out must not touch the
  // scheduler (no cancel, no new event, no stale queue entry). This is
  // what keeps the pending-event population O(flows) when every ACK
  // advances a flow's drop deadline.
  Scheduler sched;
  int fired = 0;
  DeadlineTimer timer(sched, [&] { ++fired; });
  timer.arm(TimePoint::origin() + Duration::millis(1));
  const std::size_t one_event = sched.queued_count();
  for (int i = 2; i <= 1000; ++i) {
    timer.arm(TimePoint::origin() + Duration::millis(i));
  }
  EXPECT_EQ(sched.queued_count(), one_event);
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now().as_nanos(), Duration::millis(1000).as_nanos());
}

TEST(DeadlineTimer, EarlyShotDefersWithoutFiring) {
  // arm(later) leaves the physical event parked at the earlier time; when
  // it goes off before the logical deadline, the callback must not run —
  // the timer re-schedules itself at the target instead.
  Scheduler sched;
  int fired = 0;
  DeadlineTimer timer(sched, [&] { ++fired; });
  timer.arm(TimePoint::origin() + Duration::millis(10));
  timer.arm(TimePoint::origin() + Duration::millis(50));
  sched.run_until(TimePoint::origin() + Duration::millis(20));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(timer.armed());
  sched.run_until(TimePoint::origin() + Duration::millis(60));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(DeadlineTimer, RearmEarlierFiresAtTheNewDeadline) {
  Scheduler sched;
  int fired = 0;
  TimePoint fire_time;
  DeadlineTimer timer(sched, [&] {
    ++fired;
    fire_time = sched.now();
  });
  timer.arm(TimePoint::origin() + Duration::millis(50));
  timer.arm(TimePoint::origin() + Duration::millis(10));
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fire_time.as_nanos(), Duration::millis(10).as_nanos());
}

TEST(DeadlineTimer, CancelPreventsFire) {
  Scheduler sched;
  int fired = 0;
  DeadlineTimer timer(sched, [&] { ++fired; });
  timer.arm(TimePoint::origin() + Duration::millis(5));
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(DeadlineTimer, CallbackMayRearm) {
  Scheduler sched;
  int fired = 0;
  std::optional<DeadlineTimer> timer;
  timer.emplace(sched, [&] {
    ++fired;
    if (fired < 3) timer->arm(sched.now() + Duration::millis(5));
  });
  timer->arm(TimePoint::origin() + Duration::millis(5));
  sched.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sched.now().as_nanos(), Duration::millis(15).as_nanos());
}

TEST(DeadlineTimer, DestructorCancels) {
  Scheduler sched;
  bool ran = false;
  {
    DeadlineTimer timer(sched, [&] { ran = true; });
    timer.arm(TimePoint::origin() + Duration::millis(1));
  }
  sched.run();
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace tcppr::sim
