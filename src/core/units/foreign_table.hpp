// The keyed table of foreign services a unit re-announces in its own SDP
// (paper §2.2–2.3): what the SLP and mDNS units remember of the services
// their peers advertise, so refreshes re-arm a deadline and withdrawals
// find what to forget (docs/chaos.md, TTL expiry of bridged state).
//
// Layout:
//  - a dense vector of entries, the view foreign_services() hands out;
//  - an index from the interned URL Symbol to the entry's slot (URLs are
//    unique in the table);
//  - a USN index: per interned USN, a doubly linked chain through every
//    entry carrying it, oldest insertion first;
//  - removal by swap-and-pop, fixing the moved entry's index slots;
//  - a cached earliest deadline, so expire() returns at once while nothing
//    is due instead of walking the table before every advertisement.
//
// First sight, refresh, withdrawal by URL or USN and membership are O(1);
// a refresh of a known URL allocates nothing. Not thread-safe: one unit,
// one scheduler thread.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interning.hpp"
#include "transport/time.hpp"

namespace indiss::core {

/// A foreign service a unit learned about from peer advertisements.
struct ForeignService {
  std::string canonical_type;
  std::string url;
  /// Origin identity when the advertisement carried one (UPnP USN) — the
  /// withdrawal key for byebyes that name no URL.
  std::string usn;
  std::vector<std::pair<std::string, std::string>> attributes;
  /// TTL-derived expiry instant (zero = never; only enforced when the unit
  /// runs with expire_bridged_state — docs/chaos.md).
  transport::TimePoint expires_at{0};
};

class ForeignTable {
 public:
  /// Every entry, in slot order (insertion order until a removal moves the
  /// last entry into the freed slot).
  [[nodiscard]] const std::vector<ForeignService>& services() const {
    return services_;
  }
  /// The entry for `url`, or nullptr. Allocation-free.
  [[nodiscard]] const ForeignService* find(std::string_view url) const;
  /// The oldest entry still carrying `usn`, or nullptr. Allocation-free.
  [[nodiscard]] const ForeignService* find_by_usn(std::string_view usn) const;

  /// Adds an entry whose URL is not in the table yet (callers find() first).
  void insert(ForeignService service);
  /// Re-arms the deadline of an entry this table returned.
  void rearm(const ForeignService& entry, transport::TimePoint deadline);

  /// Removes `url`'s entry; false when absent.
  bool erase(std::string_view url);
  /// Removes every entry carrying `usn`; returns how many.
  std::size_t erase_usn(std::string_view usn);

  /// Removes every entry whose deadline is at or before `now`, calling
  /// `on_expire(const ForeignService&)` on each just before it goes (the
  /// callback must not touch the table). Returns how many were removed;
  /// O(1) while the earliest deadline is still ahead.
  template <typename F>
  std::size_t expire(transport::TimePoint now, F&& on_expire) {
    if (now < earliest_) return 0;
    std::size_t removed = 0;
    transport::TimePoint earliest = kNever;
    for (std::uint32_t i = 0; i < services_.size();) {
      transport::TimePoint at = services_[i].expires_at;
      if (at.count() == 0 || at > now) {
        if (at.count() != 0 && at < earliest) earliest = at;
        ++i;
        continue;
      }
      on_expire(std::as_const(services_[i]));
      remove_slot(i);  // the last entry moves into slot i: re-check it
      removed += 1;
    }
    earliest_ = earliest;
    return removed;
  }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr transport::TimePoint kNever =
      transport::TimePoint::max();

  /// Index keys and USN-chain neighbours of the entry in the same slot.
  struct Links {
    Symbol url = kNoSymbol;
    Symbol usn = kNoSymbol;
    std::uint32_t usn_older = kNone;
    std::uint32_t usn_newer = kNone;
  };
  struct Chain {
    std::uint32_t oldest = kNone;
    std::uint32_t newest = kNone;
  };

  [[nodiscard]] std::uint32_t slot_of(std::string_view url) const;
  void note_deadline(transport::TimePoint deadline) {
    if (deadline.count() != 0 && deadline < earliest_) earliest_ = deadline;
  }
  void remove_slot(std::uint32_t slot);

  std::vector<ForeignService> services_;
  std::vector<Links> links_;  // parallel to services_
  std::unordered_map<Symbol, std::uint32_t> by_url_;
  std::unordered_map<Symbol, Chain> by_usn_;
  /// No deadline is earlier than this. Removals and re-arms to a later
  /// instant leave it early; expire() then walks once and recomputes it.
  transport::TimePoint earliest_ = kNever;
};

}  // namespace indiss::core
