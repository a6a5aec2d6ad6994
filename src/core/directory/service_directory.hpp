// The in-memory service index behind directory mode (docs/directory.md).
//
// Every bridged advertisement already flows through the units; directory
// mode additionally records each one here so the gateway can *answer*
// browse/lookup queries itself — acting as an SLP DA, a Jini-style lookup
// front, and an mDNS/SSDP cache — instead of translating every query out to
// the origin network. The paper's gateway position (and the directory-agent
// designs in the SDP survey) make the gateway the natural home for this
// index: it sees every announcement on every bridged protocol anyway.
//
// Keying and bounds:
//  - Records key on the interned service URL `Symbol` — one record per
//    concrete service instance, whatever SDP announced it. Canonical type,
//    USN and attribute keys are interned too; only attribute values (free
//    text) stay strings.
//  - The type index is sharded by service-type hash into a fixed number of
//    buckets, so a lookup touches one small map however many types exist.
//  - The table is bounded: at `max_records` the least-recently-used record
//    is evicted, found in O(1) at the old end of an intrusive recency list
//    (same policy and idiom as the TranslationCache).
//  - Every record carries a TTL-derived deadline (the advertisement's
//    SDP_RES_TTL, else `default_ttl`); the gateway's timer sweep erases
//    expired records, and collect() double-checks the deadline so a record
//    is never served stale between sweeps.
//
// Consistency with the TranslationCache:
//  - bump_generation() logically empties the index in O(1), and is called
//    from exactly the cache's bump sites (unit attach/detach, a new Jini
//    registrar) — when the bridged world changes shape, the gateway stops
//    answering from the old one until services re-announce.
//  - A processed byebye tombstones its record immediately (withdraw()), so
//    a withdrawn service is never answered from the index afterwards.
//  - When the TranslationCache short-circuits a byte-identical repeat the
//    units never parse it, so the source unit calls touch() with the raw
//    wire bytes: the record's deadline re-arms through a wire-hash side
//    index without a parse or an allocation.
//
// The answer cache (reply-side request caching) lives here too: a composed
// directory answer is keyed by (SDP, query wire bytes, requester endpoint)
// and replayed frame-for-frame when the identical query repeats — the
// request-side analogue of the TranslationCache's advertisement bundles.
// Answers are indexed by that key and by the session composing them, and
// bounded like the records: the least recently opened or replayed answer
// is evicted from the old end of its own recency list. Any index mutation
// bumps an epoch that invalidates all cached answers.
//
// Like the rest of the substrate, not thread-safe: one scheduler thread.
// In the sharded pipeline each shard owns a private directory, consistent
// with the wire-hash routing rule (docs/sharding.md): an advertisement
// hashes to one shard, so that shard's index holds the record and answers
// the (broadcast) queries for it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/interning.hpp"
#include "core/event.hpp"
#include "core/translation_cache.hpp"
#include "core/types.hpp"
#include "net/address.hpp"
#include "transport/transport.hpp"

namespace indiss::core {

class ServiceDirectory {
 public:
  struct Config {
    /// LRU bound on stored service records.
    std::size_t max_records = 1 << 20;
    /// Type-index shard count (service-type hash % buckets).
    std::size_t type_buckets = 64;
    /// Deadline for records whose advertisement carried no TTL.
    transport::Duration default_ttl = transport::seconds(300);
    /// LRU bound on cached composed answers.
    std::size_t max_answers = 256;
  };

  /// One service instance learned from a bridged advertisement.
  struct Record {
    Symbol url = kNoSymbol;  // primary key (interned service URL)
    Symbol canonical_type = kNoSymbol;
    Symbol usn = kNoSymbol;  // kNoSymbol when the advertisement had none
    SdpId origin = SdpId::kSlp;
    /// Attributes in advertisement order; keys interned, values free text.
    /// Only the first `attr_count` entries are live (slot reuse).
    std::vector<std::pair<Symbol, std::string>> attributes;
    std::size_t attr_count = 0;
    transport::Duration ttl{0};
    transport::TimePoint expires_at{0};
    std::uint64_t wire_key = 0;  // hash+length of the advertisement bytes
    std::uint64_t generation = 0;
    std::uint64_t last_used = 0;
    /// Recency-list links (oldest use first); directory-internal.
    Record* older = nullptr;
    Record* newer = nullptr;
  };

  struct SdpStats {
    /// Native queries this SDP's unit answered from the index.
    std::uint64_t answered = 0;
    /// Native queries that fell through to the bridged path.
    std::uint64_t bridged = 0;
    /// Records stored (new inserts, not refreshes) from this SDP's adverts.
    std::uint64_t records_stored = 0;
    /// Records tombstoned by byebyes from this SDP.
    std::uint64_t withdrawals = 0;

    /// Merge-on-read accumulation across per-shard directories; valid only
    /// from the owning thread or with shard threads quiesced.
    SdpStats& operator+=(const SdpStats& other) {
      answered += other.answered;
      bridged += other.bridged;
      records_stored += other.records_stored;
      withdrawals += other.withdrawals;
      return *this;
    }
  };

  ServiceDirectory();
  explicit ServiceDirectory(Config config);
  // The recency-list links point into records_ and answers_: a copy would
  // alias them.
  ServiceDirectory(const ServiceDirectory&) = delete;
  ServiceDirectory& operator=(const ServiceDirectory&) = delete;

  // --- Population (called by the units on the advertisement path) ----------

  /// Records (or TTL-refreshes) the service a parsed advertisement stream
  /// describes. Extraction mirrors the units' own bookkeeping: URL from the
  /// first SDP_RES_SERV_URL (falling back to the UPnP description URL), USN,
  /// canonical type, attributes in stream order, TTL from SDP_RES_TTL.
  /// Returns false when the stream names no usable URL or no meaningful
  /// type. Refreshing an existing record is allocation-free.
  bool record_advertisement(SdpId origin, const EventStream& stream,
                            BytesView wire, transport::TimePoint now);

  /// Tombstones the record a byebye stream withdraws (matched by URL, then
  /// by USN). Returns how many records were erased.
  std::size_t withdraw(SdpId origin, const EventStream& stream);

  /// TranslationCache short-circuit hook: re-arms the deadline of the record
  /// originally learned from these exact wire bytes. Allocation-free.
  bool touch(SdpId origin, BytesView wire, transport::TimePoint now);

  // --- Lookup (the units' answer path) -------------------------------------

  /// Fills `out` with the fresh, current-generation records of
  /// `canonical_type` (LRU-touching each) and returns the count. `out` is
  /// cleared first and its capacity reused — allocation-free once warm.
  std::size_t collect(std::string_view canonical_type, transport::TimePoint now,
                      std::vector<const Record*>& out);

  /// True when collect() would return at least one record.
  [[nodiscard]] bool has_fresh(std::string_view canonical_type,
                               transport::TimePoint now) const;

  // --- Invalidation ---------------------------------------------------------

  /// O(1) logical invalidation of every record and cached answer. Called at
  /// the TranslationCache's own bump sites.
  void bump_generation();

  /// Timer-sweep entry point: erases expired and stale-generation records.
  /// Returns how many were erased.
  std::size_t sweep(transport::TimePoint now);

  // --- Answer cache (reply-side request caching) ----------------------------

  /// Registers a pending answer for the query `wire` from `requester` that
  /// the session (sdp, session_id) is composing; frames land via
  /// add_answer_frame.
  void open_answer(SdpId sdp, BytesView wire, const net::Endpoint& requester,
                   std::uint64_t session_id, transport::TimePoint now);

  /// Appends a composed reply frame to the pending answer for (sdp,
  /// session_id). No-op when none is pending.
  void add_answer_frame(SdpId sdp, std::uint64_t session_id,
                        TranslationCache::Frame frame);

  /// Hit path: when the identical query bytes from the identical requester
  /// were answered this epoch, re-sends the stored frames and returns true.
  bool replay_answer(SdpId sdp, BytesView wire, const net::Endpoint& requester,
                     transport::TimePoint now);

  // --- Statistics ------------------------------------------------------------

  void count_answered(SdpId sdp) { sdp_stats(sdp).answered += 1; }
  void count_bridged(SdpId sdp) { sdp_stats(sdp).bridged += 1; }

  [[nodiscard]] const SdpStats& stats(SdpId sdp) const {
    return stats_[static_cast<std::size_t>(sdp)];
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::size_t answer_cache_size() const {
    return answers_.size();
  }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t records_expired() const {
    return records_expired_;
  }
  [[nodiscard]] std::uint64_t answer_replays() const { return answer_replays_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Direct record access (tests): nullptr when `url` is not indexed.
  [[nodiscard]] const Record* find(std::string_view url) const;

 private:
  using TypeBucket = std::unordered_map<Symbol, std::vector<Symbol>>;

  struct Answer {
    SdpId sdp = SdpId::kSlp;
    std::uint64_t hash = 0;
    net::Endpoint requester;
    Bytes wire;  // byte-verified on hit, like the TranslationCache
    std::vector<TranslationCache::Frame> frames;
    std::uint64_t session_id = 0;  // origin session, while frames collect
    std::uint64_t epoch = 0;
    /// Recency-list links (oldest use first); directory-internal.
    Answer* older = nullptr;
    Answer* newer = nullptr;
  };
  /// answers_ key: SDP, wire hash and requester mixed into one integer.
  /// Distinct queries may share one, so hits byte-verify the rest.
  using AnswerKey = std::uint64_t;
  [[nodiscard]] static AnswerKey answer_key(SdpId sdp, std::uint64_t hash,
                                            const net::Endpoint& requester);
  [[nodiscard]] static std::uint64_t pending_key(SdpId sdp,
                                                 std::uint64_t session_id) {
    return session_id ^ (static_cast<std::uint64_t>(sdp) << 62);
  }
  /// The stored answer for exactly this query, or answers_.end().
  std::unordered_multimap<AnswerKey, Answer>::iterator find_answer(
      SdpId sdp, std::uint64_t hash, BytesView wire,
      const net::Endpoint& requester);
  /// Unhooks `answer` from pending_ (if it is still its session's answer).
  void drop_pending(const Answer& answer);
  void erase_oldest_answer();

  SdpStats& sdp_stats(SdpId sdp) {
    return stats_[static_cast<std::size_t>(sdp)];
  }
  TypeBucket& bucket_for(Symbol type) {
    return buckets_[static_cast<std::size_t>(type) % buckets_.size()];
  }
  [[nodiscard]] const TypeBucket& bucket_for(Symbol type) const {
    return buckets_[static_cast<std::size_t>(type) % buckets_.size()];
  }

  /// Drops the record's type, wire and recency links before its erase.
  void unindex(Record& record);
  void erase_record(Symbol url);
  void evict_if_needed();
  /// Stamps `last_used` and moves the record to the newest end of the
  /// recency list (links it first when it is not on the list yet).
  void mark_used(Record& record);
  void unlink(Record& record);
  /// Any index mutation invalidates every cached answer.
  void bump_answer_epoch() { answer_epoch_ += 1; }

  Config config_;
  // By URL symbol. Node-based: Record addresses survive rehashing, so the
  // recency-list links stay valid.
  std::unordered_map<Symbol, Record> records_;
  Record* oldest_ = nullptr;
  Record* newest_ = nullptr;
  std::vector<TypeBucket> buckets_;             // type -> URLs, hash-sharded
  std::unordered_map<std::uint64_t, Symbol> by_wire_;  // advert wire -> URL
  // Node-based, like records_: the recency links and pending_ point into it.
  std::unordered_multimap<AnswerKey, Answer> answers_;
  Answer* oldest_answer_ = nullptr;
  Answer* newest_answer_ = nullptr;
  /// Each answer by the session composing it: pending_key(sdp, session_id).
  std::unordered_map<std::uint64_t, Answer*> pending_;
  std::uint64_t generation_ = 0;
  std::uint64_t answer_epoch_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t records_expired_ = 0;
  std::uint64_t answer_replays_ = 0;
  std::array<SdpStats, 4> stats_{};
};

}  // namespace indiss::core
