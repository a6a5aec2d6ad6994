#include "core/directory/service_directory.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "core/units/standard_fsm.hpp"

namespace indiss::core {

ServiceDirectory::ServiceDirectory() : ServiceDirectory(Config{}) {}

ServiceDirectory::ServiceDirectory(Config config) : config_(config) {
  if (config_.type_buckets == 0) config_.type_buckets = 1;
  buckets_.resize(config_.type_buckets);
}

namespace {

/// Wire-bytes key for the touch() side index: hash mixed with length, same
/// collision posture as the TranslationCache key (plus the record's stored
/// wire_key lets withdraw unhook the mapping).
std::uint64_t wire_key_of(BytesView wire) {
  return wire_hash(wire) ^ (static_cast<std::uint64_t>(wire.size()) << 48);
}

/// The units' shared extraction rule over a parsed advertisement stream:
/// URL from the first SDP_RES_SERV_URL, falling back to the first UPnP
/// description URL; USN from the first SDP_UPNP_USN; type from the first
/// SDP_SERVICE_TYPE; TTL from the first SDP_RES_TTL.
struct AdvertView {
  std::string_view url;
  std::string_view desc_url;
  std::string_view usn;
  std::string_view type;
  long ttl_seconds = 0;
};

/// Intrusive recency lists (oldest use first) over node-stable entries that
/// carry `older`/`newer` links; records and answers each keep one.
template <typename Node>
void list_unlink(Node& node, Node*& oldest, Node*& newest) {
  (node.older != nullptr ? node.older->newer : oldest) = node.newer;
  (node.newer != nullptr ? node.newer->older : newest) = node.older;
  node.older = nullptr;
  node.newer = nullptr;
}

/// Moves `node` to the newest end (links it first when it is not listed).
template <typename Node>
void list_move_to_newest(Node& node, Node*& oldest, Node*& newest) {
  if (newest == &node) return;
  if (node.newer != nullptr) list_unlink(node, oldest, newest);
  node.older = newest;
  if (newest != nullptr) newest->newer = &node;
  newest = &node;
  if (oldest == nullptr) oldest = &node;
}

AdvertView scan_advert(const EventStream& stream) {
  AdvertView v;
  for (const auto& event : stream) {
    switch (event.type) {
      case EventType::kResServUrl:
        if (v.url.empty()) v.url = event.get("url");
        break;
      case EventType::kUpnpDeviceUrlDesc:
        if (v.desc_url.empty()) v.desc_url = event.get("url");
        break;
      case EventType::kUpnpUsn:
        if (v.usn.empty()) v.usn = event.get("usn");
        break;
      case EventType::kServiceTypeIs:
        if (v.type.empty()) v.type = event.get("type");
        break;
      case EventType::kResTtl:
        if (v.ttl_seconds == 0)
          v.ttl_seconds = str::parse_long(event.get("seconds"), 0);
        break;
      default:
        break;
    }
  }
  if (v.url.empty()) v.url = v.desc_url;
  return v;
}

}  // namespace

bool ServiceDirectory::record_advertisement(SdpId origin,
                                            const EventStream& stream,
                                            BytesView wire,
                                            transport::TimePoint now) {
  AdvertView v = scan_advert(stream);
  if (v.url.empty() || !meaningful_advert_type(v.type)) return false;

  SymbolTable& table = SymbolTable::global();
  Symbol url = table.intern(v.url);
  transport::Duration ttl = v.ttl_seconds > 0
                                ? transport::seconds(v.ttl_seconds)
                                : config_.default_ttl;
  std::uint64_t wkey = wire.empty() ? 0 : wire_key_of(wire);

  auto it = records_.find(url);
  if (it != records_.end()) {
    // Refresh: re-arm the deadline without touching the identity fields —
    // in steady state the repeat is byte-identical anyway (and then usually
    // short-circuited by the TranslationCache into touch() instead). This
    // path allocates nothing.
    Record& record = it->second;
    record.ttl = ttl;
    record.expires_at = now + ttl;
    record.generation = generation_;
    mark_used(record);
    record.origin = origin;
    if (wkey != 0 && wkey != record.wire_key) {
      by_wire_.erase(record.wire_key);
      record.wire_key = wkey;
      by_wire_[wkey] = url;
    }
    return true;
  }

  Record record;
  record.url = url;
  record.canonical_type = table.intern(v.type);
  record.usn = v.usn.empty() ? kNoSymbol : table.intern(v.usn);
  record.origin = origin;
  for (const auto& event : stream) {
    if (event.type != EventType::kServiceAttr) continue;
    record.attributes.emplace_back(table.intern(event.get("key")),
                                   std::string(event.get("value")));
  }
  record.attr_count = record.attributes.size();
  record.ttl = ttl;
  record.expires_at = now + ttl;
  record.wire_key = wkey;
  record.generation = generation_;

  bucket_for(record.canonical_type)[record.canonical_type].push_back(url);
  if (wkey != 0) by_wire_[wkey] = url;
  mark_used(records_.emplace(url, std::move(record)).first->second);
  sdp_stats(origin).records_stored += 1;
  bump_answer_epoch();
  evict_if_needed();
  return true;
}

std::size_t ServiceDirectory::withdraw(SdpId origin,
                                       const EventStream& stream) {
  AdvertView v = scan_advert(stream);
  SymbolTable& table = SymbolTable::global();

  Symbol url = v.url.empty() ? kNoSymbol : table.find(v.url);
  if (url == kNoSymbol && !v.usn.empty()) {
    // Byebyes may carry only a USN (UPnP): resolve the record by it.
    Symbol usn = table.find(v.usn);
    if (usn != kNoSymbol) {
      for (const auto& [key, record] : records_) {
        if (record.usn == usn) {
          url = key;
          break;
        }
      }
    }
  }
  if (url == kNoSymbol || records_.find(url) == records_.end()) return 0;
  erase_record(url);
  sdp_stats(origin).withdrawals += 1;
  bump_answer_epoch();
  return 1;
}

bool ServiceDirectory::touch(SdpId, BytesView wire, transport::TimePoint now) {
  if (wire.empty()) return false;
  auto it = by_wire_.find(wire_key_of(wire));
  if (it == by_wire_.end()) return false;
  auto rec = records_.find(it->second);
  if (rec == records_.end()) return false;
  Record& record = rec->second;
  if (record.generation != generation_) return false;
  record.expires_at = now + record.ttl;
  mark_used(record);
  return true;
}

std::size_t ServiceDirectory::collect(std::string_view canonical_type,
                                      transport::TimePoint now,
                                      std::vector<const Record*>& out) {
  out.clear();
  Symbol type = SymbolTable::global().find(canonical_type);
  if (type == kNoSymbol) return 0;
  auto& bucket = bucket_for(type);
  auto it = bucket.find(type);
  if (it == bucket.end()) return 0;
  for (Symbol url : it->second) {
    auto rec = records_.find(url);
    if (rec == records_.end()) continue;
    Record& record = rec->second;
    if (record.generation != generation_ || record.expires_at <= now) continue;
    mark_used(record);
    out.push_back(&record);
  }
  return out.size();
}

bool ServiceDirectory::has_fresh(std::string_view canonical_type,
                                 transport::TimePoint now) const {
  Symbol type = SymbolTable::global().find(canonical_type);
  if (type == kNoSymbol) return false;
  const auto& bucket = bucket_for(type);
  auto it = bucket.find(type);
  if (it == bucket.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(), [&](Symbol url) {
    auto rec = records_.find(url);
    return rec != records_.end() && rec->second.generation == generation_ &&
           rec->second.expires_at > now;
  });
}

void ServiceDirectory::bump_generation() {
  generation_ += 1;
  bump_answer_epoch();
}

std::size_t ServiceDirectory::sweep(transport::TimePoint now) {
  std::size_t erased = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    Record& record = it->second;
    if (record.generation != generation_ || record.expires_at <= now) {
      unindex(record);
      it = records_.erase(it);
      erased += 1;
    } else {
      ++it;
    }
  }
  if (erased > 0) {
    records_expired_ += erased;
    bump_answer_epoch();
  }
  return erased;
}

void ServiceDirectory::unindex(Record& record) {
  auto& bucket = bucket_for(record.canonical_type);
  auto it = bucket.find(record.canonical_type);
  if (it != bucket.end()) {
    auto& urls = it->second;
    auto pos = std::find(urls.begin(), urls.end(), record.url);
    if (pos != urls.end()) {
      *pos = urls.back();
      urls.pop_back();
    }
    if (urls.empty()) bucket.erase(it);
  }
  if (record.wire_key != 0) {
    auto wit = by_wire_.find(record.wire_key);
    if (wit != by_wire_.end() && wit->second == record.url) by_wire_.erase(wit);
  }
  unlink(record);
}

void ServiceDirectory::erase_record(Symbol url) {
  auto it = records_.find(url);
  if (it == records_.end()) return;
  unindex(it->second);
  records_.erase(it);
}

// Every last_used stamp moves its record to the newest end of the recency
// list, so the oldest end is always the record with the smallest last_used:
// the same victim a scan for it would pick, without the scan.
void ServiceDirectory::evict_if_needed() {
  while (records_.size() > config_.max_records && oldest_ != nullptr) {
    erase_record(oldest_->url);
    evictions_ += 1;
  }
}

void ServiceDirectory::mark_used(Record& record) {
  record.last_used = ++tick_;
  list_move_to_newest(record, oldest_, newest_);
}

void ServiceDirectory::unlink(Record& record) {
  list_unlink(record, oldest_, newest_);
}

// ---------------------------------------------------------------------------
// Answer cache
// ---------------------------------------------------------------------------

ServiceDirectory::AnswerKey ServiceDirectory::answer_key(
    SdpId sdp, std::uint64_t hash, const net::Endpoint& requester) {
  std::uint64_t endpoint =
      (static_cast<std::uint64_t>(requester.address.bits()) << 16) |
      requester.port;
  return hash ^ (endpoint * 0x9E3779B97F4A7C15ULL) ^
         (static_cast<std::uint64_t>(sdp) << 56);
}

std::unordered_multimap<ServiceDirectory::AnswerKey,
                        ServiceDirectory::Answer>::iterator
ServiceDirectory::find_answer(SdpId sdp, std::uint64_t hash, BytesView wire,
                              const net::Endpoint& requester) {
  auto [it, end] = answers_.equal_range(answer_key(sdp, hash, requester));
  for (; it != end; ++it) {
    const Answer& answer = it->second;
    if (answer.sdp == sdp && answer.hash == hash &&
        answer.requester == requester &&
        std::equal(answer.wire.begin(), answer.wire.end(), wire.begin(),
                   wire.end())) {
      return it;
    }
  }
  return answers_.end();
}

void ServiceDirectory::drop_pending(const Answer& answer) {
  auto it = pending_.find(pending_key(answer.sdp, answer.session_id));
  if (it != pending_.end() && it->second == &answer) pending_.erase(it);
}

void ServiceDirectory::erase_oldest_answer() {
  Answer* victim = oldest_answer_;
  drop_pending(*victim);
  list_unlink(*victim, oldest_answer_, newest_answer_);
  auto [it, end] = answers_.equal_range(
      answer_key(victim->sdp, victim->hash, victim->requester));
  while (&it->second != victim) ++it;
  answers_.erase(it);
}

void ServiceDirectory::open_answer(SdpId sdp, BytesView wire,
                                   const net::Endpoint& requester,
                                   std::uint64_t session_id,
                                   transport::TimePoint) {
  if (config_.max_answers == 0) return;
  std::uint64_t hash = wire_hash(wire);
  auto it = find_answer(sdp, hash, wire, requester);
  if (it != answers_.end()) {
    // Reuse the slot of a stale answer for the same key.
    drop_pending(it->second);
    it->second.frames.clear();
  } else {
    if (answers_.size() >= config_.max_answers) erase_oldest_answer();
    Answer answer;
    answer.sdp = sdp;
    answer.hash = hash;
    answer.requester = requester;
    answer.wire.assign(wire.begin(), wire.end());
    it = answers_.emplace(answer_key(sdp, hash, requester), std::move(answer));
  }
  Answer& answer = it->second;
  answer.session_id = session_id;
  answer.epoch = answer_epoch_;
  pending_[pending_key(sdp, session_id)] = &answer;
  list_move_to_newest(answer, oldest_answer_, newest_answer_);
}

void ServiceDirectory::add_answer_frame(SdpId sdp, std::uint64_t session_id,
                                        TranslationCache::Frame frame) {
  auto it = pending_.find(pending_key(sdp, session_id));
  if (it == pending_.end() || it->second->epoch != answer_epoch_) return;
  it->second->frames.push_back(std::move(frame));
}

bool ServiceDirectory::replay_answer(SdpId sdp, BytesView wire,
                                     const net::Endpoint& requester,
                                     transport::TimePoint) {
  auto it = find_answer(sdp, wire_hash(wire), wire, requester);
  if (it == answers_.end()) return false;
  Answer& answer = it->second;
  if (answer.epoch != answer_epoch_ || answer.frames.empty()) return false;
  for (const auto& frame : answer.frames) frame.send();
  list_move_to_newest(answer, oldest_answer_, newest_answer_);
  answer_replays_ += 1;
  return true;
}

const ServiceDirectory::Record* ServiceDirectory::find(
    std::string_view url) const {
  Symbol sym = SymbolTable::global().find(url);
  if (sym == kNoSymbol) return nullptr;
  auto it = records_.find(sym);
  return it == records_.end() ? nullptr : &it->second;
}

}  // namespace indiss::core
