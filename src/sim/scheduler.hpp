// Discrete-event scheduler: the single source of time and concurrency for the
// whole testbed. Hosts, sockets, protocol stacks and INDISS itself all run as
// callbacks scheduled here, which keeps every experiment single-threaded and
// bit-for-bit reproducible.
//
// Built for throughput (see docs/simulation.md): the pending queue is a
// vector-backed binary min-heap keyed on (deadline, seq) — seq makes equal
// deadlines FIFO, modelling in-order delivery on a link — and task state
// lives in a free-listed slot arena addressed by (slot index, generation).
// Cancellation is a generation bump, so a handle can never touch a later
// task that reuses its slot, and the common schedule/cancel/fire cycle
// performs zero heap allocations once the arena and heap are warm. A
// cancelled task's heap entry is dropped lazily, when it reaches the top or
// when stale entries come to outnumber live ones, so the heap stays within
// twice the live task count (above a small floor).
//
// The InlineTask callable and the TaskHandle value type live in
// transport/task.hpp, shared with the live epoll backend: live::EventLoop
// embeds a Scheduler as its timer wheel, so handle semantics are identical
// across backends by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/time.hpp"
#include "transport/task.hpp"

namespace indiss::sim {

using InlineTask = transport::InlineTask;
using TaskHandle = transport::TaskHandle;

class Scheduler : public transport::TimerService {
 public:
  using Task = InlineTask;

  Scheduler() = default;
  // Handles and in-flight lambdas hold back-pointers; the scheduler must not
  // move out from under them.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `task` to run at now() + delay. Tasks with equal deadlines run
  /// in scheduling order (FIFO), which models in-order delivery on a link.
  TaskHandle schedule(SimDuration delay, Task task);

  /// Schedules `task` every `period`, first run after `period`. The returned
  /// handle cancels all future occurrences. Rearming reuses the same arena
  /// slot, so a steady periodic task allocates nothing per tick.
  TaskHandle schedule_periodic(SimDuration period, Task task);

  /// Runs tasks until the queue is empty or `deadline` (absolute sim time) is
  /// reached, then advances the clock to `deadline`.
  ///
  /// Executed-count semantics (pinned by substrate/scheduler_stress_test):
  /// the return value counts task bodies actually invoked. Cancelled entries
  /// are dropped silently — they are never counted, never advance the clock,
  /// and never cause a live task past `deadline` to run early (the historic
  /// std::map implementation executed one task beyond the deadline whenever
  /// the queue head was cancelled).
  std::size_t run_until(SimTime deadline);

  /// Runs tasks until the queue drains completely (periodic tasks must be
  /// cancelled first or this never returns; a safety cap guards against
  /// that). Returns the number of task bodies invoked, like run_until().
  std::size_t run_all(std::size_t max_tasks = 10'000'000);

  /// Advances time by `d`, executing everything due in the window.
  std::size_t run_for(SimDuration d) { return run_until(now_ + d); }

  /// Number of live (not cancelled) queued tasks.
  [[nodiscard]] std::size_t pending_tasks() const { return live_queued_; }

  /// Deadline of the earliest live queued task, or nullopt when idle. The
  /// live event loop arms its timerfd from this.
  [[nodiscard]] std::optional<SimTime> next_deadline();

  /// Total task bodies invoked over the scheduler's lifetime; the substrate
  /// benchmark derives events/sec from this.
  [[nodiscard]] std::uint64_t executed_tasks() const { return executed_total_; }

  // --- transport::TimerService (TaskHandle plumbing; slot/generation pairs
  // come from handles this scheduler minted) ------------------------------
  void cancel_task(std::uint32_t slot, std::uint64_t generation) override;
  [[nodiscard]] bool task_pending(std::uint32_t slot,
                                  std::uint64_t generation) const override;

 private:
  struct Slot {
    InlineTask task;
    SimDuration period{0};  // zero for one-shot tasks
    std::uint64_t generation = 0;
    enum class State : std::uint8_t { kFree, kQueued, kRunning };
    State state = State::kFree;
  };

  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t generation;
    std::uint32_t slot;
  };

  /// Min-heap order on (deadline, seq).
  struct EntryLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  TaskHandle schedule_at(SimTime at, SimDuration period, Task task);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void push_entry(SimTime at, std::uint32_t slot, std::uint64_t generation);
  void pop_entry();
  [[nodiscard]] bool entry_stale(const HeapEntry& entry) const;
  void drop_stale_entries();
  void compact_if_mostly_stale();
  void fire(const HeapEntry& entry);
  bool run_ready();

  SimTime now_{0};
  std::uint64_t seq_ = 0;
  std::uint64_t executed_total_ = 0;
  std::size_t live_queued_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // One allocation per scheduler (not per task): handles watch this token so
  // a handle outliving the scheduler degrades to a no-op instead of UB.
  std::shared_ptr<const void> live_token_ = std::make_shared<int>(0);
};

}  // namespace indiss::sim
