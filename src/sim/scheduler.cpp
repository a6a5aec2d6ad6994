#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace indiss::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.task.reset();
  slot.state = Slot::State::kFree;
  free_slots_.push_back(index);
}

void Scheduler::push_entry(SimTime at, std::uint32_t slot,
                           std::uint64_t generation) {
  heap_.push_back(HeapEntry{at, seq_++, generation, slot});
  std::push_heap(heap_.begin(), heap_.end(), EntryLater{});
  ++live_queued_;
}

void Scheduler::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryLater{});
  heap_.pop_back();
}

bool Scheduler::entry_stale(const HeapEntry& entry) const {
  const Slot& slot = slots_[entry.slot];
  return slot.generation != entry.generation ||
         slot.state != Slot::State::kQueued;
}

void Scheduler::drop_stale_entries() {
  while (!heap_.empty() && entry_stale(heap_.front())) pop_entry();
}

// A cancelled task's entry would otherwise stay queued until its deadline
// (10 s for a retired session's timeout), so the heap would hold message
// rate x timeout dead entries. Once stale entries outnumber live ones, they
// are erased in place and the heap rebuilt: amortized O(1) per cancel, no
// allocation, and pop order is unchanged because (at, seq) is unique.
void Scheduler::compact_if_mostly_stale() {
  constexpr std::size_t kMinCompactSize = 64;
  if (heap_.size() < kMinCompactSize ||
      heap_.size() - live_queued_ <= live_queued_) {
    return;
  }
  std::erase_if(heap_,
                [this](const HeapEntry& entry) { return entry_stale(entry); });
  std::make_heap(heap_.begin(), heap_.end(), EntryLater{});
}

std::optional<SimTime> Scheduler::next_deadline() {
  drop_stale_entries();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().at;
}

TaskHandle Scheduler::schedule_at(SimTime at, SimDuration period, Task task) {
  std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.task = std::move(task);
  slot.period = period;
  slot.state = Slot::State::kQueued;
  push_entry(at, index, slot.generation);
  return TaskHandle(this, live_token_, index, slot.generation);
}

TaskHandle Scheduler::schedule(SimDuration delay, Task task) {
  if (delay.count() < 0) delay = SimDuration::zero();
  return schedule_at(now_ + delay, SimDuration::zero(), std::move(task));
}

TaskHandle Scheduler::schedule_periodic(SimDuration period, Task task) {
  if (period.count() <= 0) {
    throw std::invalid_argument("schedule_periodic: period must be positive");
  }
  return schedule_at(now_ + period, period, std::move(task));
}

void Scheduler::cancel_task(std::uint32_t index, std::uint64_t generation) {
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (slot.generation != generation || slot.state == Slot::State::kFree) {
    return;  // already fired, already cancelled, or the slot was reused
  }
  ++slot.generation;  // every heap entry naming (index, generation) goes stale
  if (slot.state == Slot::State::kQueued) {
    --live_queued_;
    release_slot(index);
    compact_if_mostly_stale();
  }
  // kRunning: the task cancelled itself mid-execution; fire() observes the
  // generation bump once the body returns and frees the slot then.
}

bool Scheduler::task_pending(std::uint32_t index,
                             std::uint64_t generation) const {
  if (index >= slots_.size()) return false;
  const Slot& slot = slots_[index];
  return slot.generation == generation && slot.state != Slot::State::kFree;
}

void Scheduler::fire(const HeapEntry& entry) {
  Slot& slot = slots_[entry.slot];
  --live_queued_;
  ++executed_total_;
  // The body runs from a local: it may schedule tasks, which can grow the
  // slot arena and invalidate references (and, for one-shots, immediately
  // reuse this very slot — its generation is bumped before the call so the
  // fired handle is inert).
  InlineTask body = std::move(slot.task);
  if (slot.period.count() == 0) {
    ++slot.generation;
    release_slot(entry.slot);
    body();
    return;
  }
  slot.state = Slot::State::kRunning;
  try {
    body();
  } catch (...) {
    // A throwing body ends the periodic chain (as it did historically, when
    // the entry was erased before the call); free the slot so it cannot
    // linger in kRunning forever.
    Slot& thrown = slots_[entry.slot];
    if (thrown.generation == entry.generation) ++thrown.generation;
    release_slot(entry.slot);
    throw;
  }
  Slot& after = slots_[entry.slot];  // re-resolve: the arena may have grown
  if (after.generation == entry.generation) {
    // Not cancelled during execution: rearm the same slot, zero allocations.
    after.task = std::move(body);
    after.state = Slot::State::kQueued;
    push_entry(now_ + after.period, entry.slot, entry.generation);
  } else {
    release_slot(entry.slot);
  }
}

bool Scheduler::run_ready() {
  drop_stale_entries();
  if (heap_.empty()) return false;
  HeapEntry entry = heap_.front();
  pop_entry();
  now_ = entry.at;
  fire(entry);
  return true;
}

std::size_t Scheduler::run_until(SimTime deadline) {
  std::size_t executed = 0;
  for (;;) {
    // Drop stale heads first so the deadline check sees the earliest *live*
    // task; a cancelled head must never pull a later task past the deadline.
    drop_stale_entries();
    if (heap_.empty() || heap_.front().at > deadline) break;
    HeapEntry entry = heap_.front();
    pop_entry();
    now_ = entry.at;
    fire(entry);
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

std::size_t Scheduler::run_all(std::size_t max_tasks) {
  std::size_t executed = 0;
  while (executed < max_tasks && run_ready()) ++executed;
  if (executed >= max_tasks) {
    throw std::runtime_error(
        "Scheduler::run_all exceeded task cap; a periodic task is likely "
        "still registered");
  }
  return executed;
}

}  // namespace indiss::sim
