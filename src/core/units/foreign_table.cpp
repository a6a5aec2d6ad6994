#include "core/units/foreign_table.hpp"

namespace indiss::core {

std::uint32_t ForeignTable::slot_of(std::string_view url) const {
  Symbol sym = SymbolTable::global().find(url);
  if (sym == kNoSymbol) return kNone;
  auto it = by_url_.find(sym);
  return it == by_url_.end() ? kNone : it->second;
}

const ForeignService* ForeignTable::find(std::string_view url) const {
  std::uint32_t slot = slot_of(url);
  return slot == kNone ? nullptr : &services_[slot];
}

const ForeignService* ForeignTable::find_by_usn(std::string_view usn) const {
  Symbol sym = SymbolTable::global().find(usn);
  if (sym == kNoSymbol) return nullptr;
  auto it = by_usn_.find(sym);
  return it == by_usn_.end() ? nullptr : &services_[it->second.oldest];
}

void ForeignTable::insert(ForeignService service) {
  SymbolTable& table = SymbolTable::global();
  auto slot = static_cast<std::uint32_t>(services_.size());
  Links links;
  links.url = table.intern(service.url);
  by_url_.emplace(links.url, slot);
  if (!service.usn.empty()) {
    links.usn = table.intern(service.usn);
    Chain& chain = by_usn_[links.usn];
    links.usn_older = chain.newest;
    if (chain.newest != kNone) links_[chain.newest].usn_newer = slot;
    if (chain.oldest == kNone) chain.oldest = slot;
    chain.newest = slot;
  }
  note_deadline(service.expires_at);
  services_.push_back(std::move(service));
  links_.push_back(links);
}

void ForeignTable::rearm(const ForeignService& entry,
                         transport::TimePoint deadline) {
  services_[static_cast<std::size_t>(&entry - services_.data())].expires_at =
      deadline;
  note_deadline(deadline);
}

bool ForeignTable::erase(std::string_view url) {
  std::uint32_t slot = slot_of(url);
  if (slot == kNone) return false;
  remove_slot(slot);
  return true;
}

std::size_t ForeignTable::erase_usn(std::string_view usn) {
  std::size_t removed = 0;
  while (const ForeignService* entry = find_by_usn(usn)) {
    remove_slot(static_cast<std::uint32_t>(entry - services_.data()));
    removed += 1;
  }
  return removed;
}

void ForeignTable::remove_slot(std::uint32_t slot) {
  Links gone = links_[slot];
  by_url_.erase(gone.url);
  if (gone.usn != kNoSymbol) {
    auto chain = by_usn_.find(gone.usn);
    if (gone.usn_older != kNone) {
      links_[gone.usn_older].usn_newer = gone.usn_newer;
    } else {
      chain->second.oldest = gone.usn_newer;
    }
    if (gone.usn_newer != kNone) {
      links_[gone.usn_newer].usn_older = gone.usn_older;
    } else {
      chain->second.newest = gone.usn_older;
    }
    if (chain->second.oldest == kNone) by_usn_.erase(chain);
  }

  auto last = static_cast<std::uint32_t>(services_.size() - 1);
  if (slot != last) {
    // Swap-and-pop: the last entry takes the freed slot; repoint its URL
    // index and its USN-chain neighbours at the new slot.
    services_[slot] = std::move(services_[last]);
    Links& moved = links_[slot] = links_[last];
    by_url_[moved.url] = slot;
    if (moved.usn != kNoSymbol) {
      Chain& chain = by_usn_[moved.usn];
      (moved.usn_older != kNone ? links_[moved.usn_older].usn_newer
                                : chain.oldest) = slot;
      (moved.usn_newer != kNone ? links_[moved.usn_newer].usn_older
                                : chain.newest) = slot;
    }
  }
  services_.pop_back();
  links_.pop_back();
}

}  // namespace indiss::core
