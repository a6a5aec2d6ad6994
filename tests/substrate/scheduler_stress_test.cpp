// Property and stress tests for the slot-arena scheduler, pinning the
// contracts the heap rewrite must preserve (FIFO among equal deadlines, safe
// cancellation in every ordering) and the ones it introduces (generation
// safety across slot reuse, zero-allocation schedule/cancel/fire cycles,
// lazily-dropped cancelled entries in the executed count).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
// Allocation meter: the scheduler's hot path promises zero heap traffic for
// inline tasks once the arena and heap vectors are warm; these tests hold it
// to that in every build type, Debug included.
#include "tests/support/alloc_meter.hpp"

namespace indiss::sim {
namespace {

TEST(SchedulerProperty, EqualDeadlinesStayFifoUnderChurn) {
  // Many tasks across few distinct deadlines, with cancellations punched into
  // the middle: survivors must still run deadline-major, scheduling-order
  // minor (the seq tie-break the paper's link model depends on).
  Scheduler scheduler;
  Random rng(2026);
  struct Expected {
    std::int64_t deadline_ms;
    int id;
  };
  std::vector<Expected> expected;
  std::vector<TaskHandle> handles;
  std::vector<int> ran;
  for (int id = 0; id < 500; ++id) {
    std::int64_t deadline_ms = rng.uniform_int(1, 10);
    handles.push_back(scheduler.schedule(millis(deadline_ms),
                                         [&ran, id] { ran.push_back(id); }));
    expected.push_back({deadline_ms, id});
  }
  // Cancel every seventh task.
  for (std::size_t i = 0; i < handles.size(); i += 7) {
    handles[i].cancel();
    expected[i].id = -1;
  }
  std::size_t executed = scheduler.run_all();

  std::vector<int> want;
  for (std::int64_t deadline = 1; deadline <= 10; ++deadline) {
    for (const Expected& e : expected) {
      if (e.id >= 0 && e.deadline_ms == deadline) want.push_back(e.id);
    }
  }
  EXPECT_EQ(ran, want);
  EXPECT_EQ(executed, want.size());  // cancelled entries are never counted
}

TEST(SchedulerProperty, CancelDuringExecutionSuppressesPendingTask) {
  Scheduler scheduler;
  int runs = 0;
  TaskHandle victim;
  scheduler.schedule(millis(1), [&] { victim.cancel(); });
  victim = scheduler.schedule(millis(2), [&] { ++runs; });
  scheduler.run_all();
  EXPECT_EQ(runs, 0);
}

TEST(SchedulerProperty, OneShotSelfCancelDuringExecutionIsNoOp) {
  Scheduler scheduler;
  int runs = 0;
  TaskHandle self;
  self = scheduler.schedule(millis(1), [&] {
    ++runs;
    self.cancel();  // the task already fired; this must do nothing
  });
  scheduler.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(self.pending());
}

TEST(SchedulerProperty, CancelOfFiredHandleIsNoOp) {
  Scheduler scheduler;
  int first = 0, second = 0;
  TaskHandle handle = scheduler.schedule(millis(1), [&] { ++first; });
  scheduler.run_all();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(handle.pending());
  // The freed slot is immediately reusable; the stale handle must not be
  // able to touch whatever occupies it next.
  TaskHandle next = scheduler.schedule(millis(1), [&] { ++second; });
  handle.cancel();
  EXPECT_TRUE(next.pending());
  scheduler.run_all();
  EXPECT_EQ(second, 1);
}

TEST(SchedulerProperty, StaleHandleCannotCancelSlotReuser) {
  Scheduler scheduler;
  int runs = 0;
  // Cancel A to free its slot, then B reuses it (fresh scheduler: both land
  // in slot 0). A's handle names the old generation and must stay inert.
  TaskHandle a = scheduler.schedule(millis(1), [&] { ADD_FAILURE(); });
  a.cancel();
  TaskHandle b = scheduler.schedule(millis(1), [&] { ++runs; });
  a.cancel();
  a.cancel();  // idempotent
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  scheduler.run_all();
  EXPECT_EQ(runs, 1);
}

TEST(SchedulerProperty, ThrowingPeriodicBodyFreesItsSlotAndEndsTheChain) {
  Scheduler scheduler;
  int runs = 0;
  TaskHandle handle = scheduler.schedule_periodic(millis(1), [&] {
    if (++runs == 2) throw std::runtime_error("boom");
  });
  EXPECT_THROW(scheduler.run_until(millis(10)), std::runtime_error);
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(handle.pending());  // the chain is over, not stuck kRunning
  handle.cancel();                 // and cancelling the dead chain is a no-op
  // The scheduler stays fully usable and the slot is reusable.
  int later = 0;
  scheduler.schedule(millis(1), [&] { ++later; });
  scheduler.run_until(millis(20));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(later, 1);
}

TEST(SchedulerProperty, HandleOutlivingSchedulerIsInert) {
  TaskHandle handle;
  {
    Scheduler scheduler;
    handle = scheduler.schedule_periodic(millis(1), [] {});
    EXPECT_TRUE(handle.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not touch the dead scheduler
}

TEST(SchedulerStress, PeriodicRearmSurvives10kTicksWithoutAllocationGrowth) {
  Scheduler scheduler;
  std::uint64_t ticks = 0;
  TaskHandle handle = scheduler.schedule_periodic(millis(1), [&] { ++ticks; });
  scheduler.run_until(millis(10));  // warm the heap and arena vectors
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  scheduler.run_until(millis(10 + 10'000));
  std::uint64_t allocs = indiss::testing::g_heap_allocs - allocs_before;
  handle.cancel();
  EXPECT_EQ(ticks, 10'010u);
  EXPECT_EQ(allocs, 0u);  // rearm reuses the same slot: no heap traffic
}

TEST(SchedulerStress, InlineScheduleCancelFireCyclesAreAllocationFree) {
  Scheduler scheduler;
  std::uint64_t fired = 0;
  // Warm-up: let the arena, free list and heap vector reach steady state.
  for (int i = 0; i < 64; ++i) scheduler.schedule(millis(1), [&] { ++fired; });
  scheduler.run_all();
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (int round = 0; round < 1'000; ++round) {
    TaskHandle keep = scheduler.schedule(millis(1), [&] { ++fired; });
    TaskHandle drop = scheduler.schedule(millis(2), [&] { ++fired; });
    drop.cancel();
    scheduler.run_for(millis(2));
    static_cast<void>(keep);
  }
  std::uint64_t allocs = indiss::testing::g_heap_allocs - allocs_before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 64u + 1'000u);
}

// Cancelling a long timer (a completed session's timeout) must not leave its
// heap entry queued until the deadline: dead entries are compacted away once
// they outnumber live ones, so the heap never grows.
TEST(SchedulerStress, LongTimerScheduleCancelCyclesAreAllocationFree) {
  Scheduler scheduler;
  std::uint64_t fired = 0;
  TaskHandle live = scheduler.schedule(seconds(60), [&] { ++fired; });
  for (int i = 0; i < 1'000; ++i) {  // warm-up: heap reaches its bound
    scheduler.schedule(seconds(10), [&] { ++fired; }).cancel();
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 10'000; ++i) {
    scheduler.schedule(seconds(10), [&] { ++fired; }).cancel();
  }
  std::uint64_t allocs = indiss::testing::g_heap_allocs - allocs_before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(scheduler.pending_tasks(), 1u);
  scheduler.run_all();
  EXPECT_EQ(fired, 1u);
  EXPECT_FALSE(live.pending());
}

TEST(SchedulerProperty, RunUntilNeverRunsPastDeadlineOverCancelledHead) {
  // Historic std::map-scheduler bug, pinned fixed: a cancelled entry at the
  // queue head made run_until execute the next live task even when that task
  // lay beyond the deadline.
  Scheduler scheduler;
  int runs = 0;
  TaskHandle cancelled = scheduler.schedule(millis(5), [&] { ++runs; });
  scheduler.schedule(millis(50), [&] { ++runs; });
  cancelled.cancel();
  std::size_t executed = scheduler.run_until(millis(20));
  EXPECT_EQ(executed, 0u);  // nothing live was due; nothing ran
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(scheduler.now(), millis(20));
  executed = scheduler.run_until(millis(100));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(runs, 1);
}

TEST(SchedulerProperty, ExecutedCountsOnlyInvokedBodies) {
  Scheduler scheduler;
  std::vector<TaskHandle> handles;
  int runs = 0;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(scheduler.schedule(millis(i + 1), [&] { ++runs; }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  EXPECT_EQ(scheduler.pending_tasks(), 5u);
  std::size_t executed = scheduler.run_all();
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(scheduler.executed_tasks(), 5u);
}

TEST(SchedulerStress, RandomChurnMatchesReferenceModel) {
  // Model check: a pile of randomized schedules and cancels must execute in
  // exactly the order a sorted (deadline, seq) reference predicts.
  Scheduler scheduler;
  Random rng(7);
  struct Ref {
    std::int64_t at_ms;
    int seq;
    bool cancelled = false;
  };
  std::vector<Ref> reference;
  std::vector<TaskHandle> handles;
  std::vector<int> ran;
  for (int seq = 0; seq < 2'000; ++seq) {
    std::int64_t at_ms = rng.uniform_int(1, 100);
    reference.push_back({at_ms, seq});
    handles.push_back(
        scheduler.schedule(millis(at_ms), [&ran, seq] { ran.push_back(seq); }));
    // Occasionally cancel a random earlier task (possibly one already
    // cancelled; cancel is idempotent).
    if (rng.uniform_int(0, 4) == 0) {
      int victim = static_cast<int>(rng.uniform_int(0, seq));
      handles[static_cast<std::size_t>(victim)].cancel();
      reference[static_cast<std::size_t>(victim)].cancelled = true;
    }
  }
  scheduler.run_all();

  std::vector<int> want;
  for (std::int64_t at = 1; at <= 100; ++at) {
    for (const Ref& ref : reference) {
      if (!ref.cancelled && ref.at_ms == at) want.push_back(ref.seq);
    }
  }
  EXPECT_EQ(ran, want);
}

}  // namespace
}  // namespace indiss::sim
