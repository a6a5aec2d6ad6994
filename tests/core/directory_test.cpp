// ServiceDirectory tests (docs/directory.md): record/collect keying, the
// never-serve-stale collect guard, withdraw tombstones (by URL and by USN),
// generation-bump invalidation, LRU eviction, the wire-hash touch() refresh,
// and the answer cache's replay + epoch-invalidation contract — then the
// end-to-end legs: the idle-unit bridged-state expiry regression (timer
// sweep, not sweep-on-touch), the SLP-browse-answered-from-mDNS-announcement
// path with byebye tombstoning, the repeated-browse storm that must be
// answered from the index with zero origin-network frames, and the SLP
// DAAdvert the gateway multicasts when directory mode turns on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "core/directory/service_directory.hpp"
#include "core/indiss.hpp"
#include "mdns/dns.hpp"
#include "mdns/dnssd.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "slp/wire.hpp"

namespace indiss::core {
namespace {

sim::SimTime at_s(std::int64_t s) { return sim::SimTime(sim::seconds(s)); }

Bytes wire_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

/// A parsed advertisement stream as the units hand it to the directory:
/// alive + type + TTL + URL (+ optional USN and attributes).
EventStream advert_stream(
    std::string_view type, std::string_view url, long ttl_seconds = 0,
    std::string_view usn = "",
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        attrs = {}) {
  EventStream stream;
  stream.push_back(Event(EventType::kControlStart));
  stream.push_back(Event(EventType::kServiceAlive));
  stream.push_back(Event(EventType::kServiceTypeIs, {{"type", type}}));
  if (ttl_seconds > 0) {
    stream.push_back(Event(EventType::kResTtl,
                           {{"seconds", std::to_string(ttl_seconds)}}));
  }
  if (!usn.empty()) {
    stream.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  }
  for (const auto& [key, value] : attrs) {
    stream.push_back(
        Event(EventType::kServiceAttr, {{"key", key}, {"value", value}}));
  }
  stream.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  stream.push_back(Event(EventType::kControlStop));
  return stream;
}

/// A byebye stream: URL-identified (SLP/mDNS shape) or USN-only (UPnP shape).
EventStream byebye_stream(std::string_view url, std::string_view usn = "") {
  EventStream stream;
  stream.push_back(Event(EventType::kControlStart));
  stream.push_back(Event(EventType::kServiceByeBye));
  if (!url.empty()) {
    stream.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  }
  if (!usn.empty()) {
    stream.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  }
  stream.push_back(Event(EventType::kControlStop));
  return stream;
}

TEST(ServiceDirectory, RecordsCollectAndFindByCanonicalType) {
  ServiceDirectory dir;
  EXPECT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://a", 120), {},
      at_s(0)));
  EXPECT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://b", 120), {},
      at_s(0)));
  EXPECT_TRUE(dir.record_advertisement(
      SdpId::kUpnp, advert_stream("printer", "http://printer/desc", 120), {},
      at_s(0)));
  EXPECT_EQ(dir.size(), 3u);
  EXPECT_EQ(dir.stats(SdpId::kMdns).records_stored, 1u);
  EXPECT_EQ(dir.stats(SdpId::kSlp).records_stored, 1u);

  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(1), matches), 2u);
  EXPECT_EQ(dir.collect("printer", at_s(1), matches), 1u);
  EXPECT_EQ(dir.collect("camera", at_s(1), matches), 0u);
  EXPECT_TRUE(dir.has_fresh("clock", at_s(1)));
  EXPECT_FALSE(dir.has_fresh("camera", at_s(1)));

  const auto* record = dir.find("service:clock://a");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->origin, SdpId::kMdns);
  EXPECT_EQ(SymbolTable::global().name(record->canonical_type), "clock");
}

TEST(ServiceDirectory, AdvertWithoutUrlOrMeaningfulTypeIsNotRecorded) {
  ServiceDirectory dir;
  // Wildcard and uuid-targeted types never index (decision table).
  EXPECT_FALSE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("*", "service:x://a", 60), {}, at_s(0)));
  EXPECT_FALSE(dir.record_advertisement(
      SdpId::kUpnp, advert_stream("uuid:1234", "http://d/desc", 60), {},
      at_s(0)));
  // No URL anywhere in the stream: nothing to key the record on.
  EventStream no_url;
  no_url.push_back(Event(EventType::kControlStart));
  no_url.push_back(Event(EventType::kServiceAlive));
  no_url.push_back(Event(EventType::kServiceTypeIs, {{"type", "clock"}}));
  no_url.push_back(Event(EventType::kControlStop));
  EXPECT_FALSE(dir.record_advertisement(SdpId::kSlp, no_url, {}, at_s(0)));
  EXPECT_EQ(dir.size(), 0u);
}

TEST(ServiceDirectory, RefreshReArmsDeadlineWithoutANewRecord) {
  ServiceDirectory dir;
  EventStream advert = advert_stream("clock", "service:clock://a", 10);
  ASSERT_TRUE(dir.record_advertisement(SdpId::kSlp, advert, {}, at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(SdpId::kSlp, advert, {}, at_s(8)));
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.stats(SdpId::kSlp).records_stored, 1u)
      << "a refresh is not a new insert";
  // The original deadline (t=10) passed; the refresh moved it to t=18.
  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(15), matches), 1u);
  EXPECT_EQ(dir.collect("clock", at_s(19), matches), 0u);
}

TEST(ServiceDirectory, CollectNeverServesStaleBetweenSweeps) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 5), {},
      at_s(0)));
  // Past the deadline but before any sweep ran: the record still occupies a
  // slot yet must not be served.
  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(6), matches), 0u);
  EXPECT_FALSE(dir.has_fresh("clock", at_s(6)));
  EXPECT_EQ(dir.size(), 1u);
  // The timer sweep reclaims it.
  EXPECT_EQ(dir.sweep(at_s(6)), 1u);
  EXPECT_EQ(dir.size(), 0u);
  EXPECT_EQ(dir.records_expired(), 1u);
  EXPECT_EQ(dir.find("service:clock://a"), nullptr);
}

TEST(ServiceDirectory, WithdrawTombstonesByUrlAndByUsn) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 60), {},
      at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kUpnp,
      advert_stream("clock", "http://10.0.0.2/desc.xml", 60, "uuid:dev-1"),
      {}, at_s(0)));

  // SLP/mDNS shape: the byebye names the URL.
  EXPECT_EQ(dir.withdraw(SdpId::kSlp, byebye_stream("service:clock://a")), 1u);
  EXPECT_EQ(dir.find("service:clock://a"), nullptr);
  EXPECT_EQ(dir.stats(SdpId::kSlp).withdrawals, 1u);

  // UPnP shape: the byebye carries only the USN.
  EXPECT_EQ(dir.withdraw(SdpId::kUpnp, byebye_stream("", "uuid:dev-1")), 1u);
  EXPECT_EQ(dir.find("http://10.0.0.2/desc.xml"), nullptr);
  EXPECT_EQ(dir.stats(SdpId::kUpnp).withdrawals, 1u);
  EXPECT_EQ(dir.size(), 0u);

  // Withdrawing the unknown is a no-op, not a crash or a counter bump.
  EXPECT_EQ(dir.withdraw(SdpId::kSlp, byebye_stream("service:clock://never")),
            0u);
}

TEST(ServiceDirectory, GenerationBumpLogicallyEmptiesTheIndex) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 600), {},
      at_s(0)));
  ASSERT_TRUE(dir.has_fresh("clock", at_s(1)));

  dir.bump_generation();  // a unit attached/detached, or a new registrar
  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(1), matches), 0u);
  EXPECT_FALSE(dir.has_fresh("clock", at_s(1)));
  // The sweep reclaims stale-generation records even inside their TTL.
  EXPECT_EQ(dir.sweep(at_s(1)), 1u);
  EXPECT_EQ(dir.size(), 0u);

  // A re-announcement repopulates under the new generation.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 600), {},
      at_s(2)));
  EXPECT_TRUE(dir.has_fresh("clock", at_s(3)));
}

TEST(ServiceDirectory, LruEvictsTheLeastRecentlyUsedAtCapacity) {
  ServiceDirectory dir(
      {.max_records = 3, .type_buckets = 4, .max_answers = 4});
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 600), {},
      at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://b", 600), {},
      at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("printer", "service:printer://c", 600), {},
      at_s(0)));
  // Touch the clock records so the printer becomes least recently used.
  std::vector<const ServiceDirectory::Record*> matches;
  ASSERT_EQ(dir.collect("clock", at_s(1), matches), 2u);

  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("camera", "service:camera://d", 600), {},
      at_s(2)));
  EXPECT_EQ(dir.size(), 3u);
  EXPECT_EQ(dir.evictions(), 1u);
  EXPECT_EQ(dir.find("service:printer://c"), nullptr) << "LRU victim";
  EXPECT_NE(dir.find("service:clock://a"), nullptr);
  EXPECT_NE(dir.find("service:camera://d"), nullptr);
}

// Eviction takes the old end of the recency list; it must pick exactly the
// record a scan for the smallest last_used would, whatever mix of inserts,
// refreshes, wire touches, collects and withdrawals came before.
TEST(ServiceDirectory, EvictionVictimMatchesTheMinLastUsedOracle) {
  constexpr std::size_t kCap = 32;
  ServiceDirectory dir({.max_records = kCap, .type_buckets = 4});
  std::mt19937 rng(1405);
  const char* types[] = {"clock", "printer", "camera", "lamp"};
  auto url_of = [](unsigned i) {
    return "service:x://10.0.3." + std::to_string(i) + "/svc";
  };
  auto type_of = [&](unsigned i) { return types[i % 4]; };
  std::vector<unsigned> live;  // the URLs the directory must hold
  std::vector<const ServiceDirectory::Record*> scratch;
  std::uint64_t evictions = 0;

  for (int step = 0; step < 3000; ++step) {
    unsigned id = rng() % 96;
    std::string url = url_of(id);
    Bytes wire = wire_bytes("ADVERT " + url);
    auto now = at_s(step);
    bool known = std::find(live.begin(), live.end(), id) != live.end();
    switch (rng() % 5) {
      case 0:
      case 1: {  // advertisement: insert (evicting at the cap) or refresh
        unsigned victim = 0;
        bool evicts = !known && live.size() == kCap;
        if (evicts) {
          std::uint64_t oldest = UINT64_MAX;
          for (unsigned other : live) {
            const auto* record = dir.find(url_of(other));
            ASSERT_NE(record, nullptr);
            if (record->last_used < oldest) {
              oldest = record->last_used;
              victim = other;
            }
          }
        }
        ASSERT_TRUE(dir.record_advertisement(
            SdpId::kSlp, advert_stream(type_of(id), url, 100000), wire, now));
        if (evicts) {
          evictions += 1;
          EXPECT_EQ(dir.find(url_of(victim)), nullptr)
              << "step " << step << ": the min-last_used record goes";
          std::erase(live, victim);
        }
        if (!known) live.push_back(id);
        break;
      }
      case 2:  // the TranslationCache short-circuit re-arms through the wire
        EXPECT_EQ(dir.touch(SdpId::kSlp, wire, now), known);
        break;
      case 3:  // a browse LRU-touches every fresh record of one type
        dir.collect(type_of(id), now, scratch);
        break;
      default:  // a byebye tombstones the record
        EXPECT_EQ(dir.withdraw(SdpId::kSlp, byebye_stream(url)),
                  known ? 1u : 0u);
        std::erase(live, id);
        break;
    }
    ASSERT_EQ(dir.size(), live.size()) << "step " << step;
    ASSERT_EQ(dir.evictions(), evictions) << "step " << step;
  }
  for (unsigned id : live) EXPECT_NE(dir.find(url_of(id)), nullptr);
}

TEST(ServiceDirectory, TouchReArmsTheDeadlineThroughTheWireIndex) {
  ServiceDirectory dir;
  Bytes advert_wire = wire_bytes("SRVREG service:clock://a 10s");
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 10),
      advert_wire, at_s(0)));

  // The TranslationCache short-circuited the byte-identical repeat at t=8:
  // the unit never parsed it, but touch() must still re-arm the deadline.
  EXPECT_TRUE(dir.touch(SdpId::kSlp, advert_wire, at_s(8)));
  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(15), matches), 1u);
  EXPECT_EQ(dir.collect("clock", at_s(19), matches), 0u);

  // Unknown wire bytes touch nothing.
  EXPECT_FALSE(dir.touch(SdpId::kSlp, wire_bytes("some other frame"),
                         at_s(8)));
}

// --- Answer cache -----------------------------------------------------------

struct AnswerCacheFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 5};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));

  std::shared_ptr<net::UdpSocket> reply_socket = gateway.udp_socket(0);
  std::shared_ptr<net::UdpSocket> client_socket = client.udp_socket(7700);
  std::vector<Bytes> received;
  net::Endpoint requester{net::IpAddress(10, 0, 0, 9), 7700};

  void SetUp() override {
    client_socket->set_receive_handler(
        [this](const net::Datagram& d) { received.push_back(d.payload); });
  }

  TranslationCache::Frame reply_frame(std::string_view payload) {
    TranslationCache::Frame frame;
    frame.target = SdpId::kSlp;
    frame.socket = reply_socket;
    frame.to = requester;
    frame.payload = std::make_shared<const Bytes>(wire_bytes(payload));
    return frame;
  }
};

TEST_F(AnswerCacheFixture, ReplaysTheStoredFramesForTheIdenticalQuery) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");

  // Miss while nothing is stored.
  EXPECT_FALSE(dir.replay_answer(SdpId::kSlp, query, requester, at_s(0)));

  dir.open_answer(SdpId::kSlp, query, requester, /*session_id=*/11, at_s(0));
  dir.add_answer_frame(SdpId::kSlp, 11, reply_frame("SRVRPLY one clock"));
  EXPECT_EQ(dir.answer_cache_size(), 1u);

  EXPECT_TRUE(dir.replay_answer(SdpId::kSlp, query, requester, at_s(1)));
  scheduler.run_for(sim::millis(100));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(to_string(received[0]), "SRVRPLY one clock");
  EXPECT_EQ(dir.answer_replays(), 1u);

  // Same bytes from a different requester: a distinct key, no replay.
  net::Endpoint other{net::IpAddress(10, 0, 0, 8), 7700};
  EXPECT_FALSE(dir.replay_answer(SdpId::kSlp, query, other, at_s(1)));
  // Same requester, different bytes: no replay either.
  EXPECT_FALSE(dir.replay_answer(
      SdpId::kSlp, wire_bytes("SRVRQST service:clock xid=8"), requester,
      at_s(1)));
}

TEST_F(AnswerCacheFixture, AnyIndexMutationInvalidatesCachedAnswers) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");
  dir.open_answer(SdpId::kSlp, query, requester, 11, at_s(0));
  dir.add_answer_frame(SdpId::kSlp, 11, reply_frame("SRVRPLY stale"));
  ASSERT_TRUE(dir.replay_answer(SdpId::kSlp, query, requester, at_s(1)));

  // A new record arriving changes what the answer should contain.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://new", 600), {},
      at_s(2)));
  EXPECT_FALSE(dir.replay_answer(SdpId::kSlp, query, requester, at_s(3)))
      << "epoch bump must invalidate every cached answer";

  // Re-answer under the new epoch, then a withdrawal invalidates again.
  dir.open_answer(SdpId::kSlp, query, requester, 12, at_s(4));
  dir.add_answer_frame(SdpId::kSlp, 12, reply_frame("SRVRPLY fresh"));
  ASSERT_TRUE(dir.replay_answer(SdpId::kSlp, query, requester, at_s(5)));
  ASSERT_EQ(dir.withdraw(SdpId::kMdns, byebye_stream("service:clock://new")),
            1u);
  EXPECT_FALSE(dir.replay_answer(SdpId::kSlp, query, requester, at_s(6)));
}

// The answer cache is indexed by query key and by composing session, and
// evicts from the old end of a recency list. Against a model that keeps the
// answers in one vector, scans it for every operation and evicts the
// smallest last-use stamp, every operation must agree: which query
// replays, which frames it sends, and how many answers are held.
TEST_F(AnswerCacheFixture, AnswerCacheMatchesTheLinearScanOracle) {
  constexpr std::size_t kCap = 8;
  ServiceDirectory dir({.type_buckets = 4, .max_answers = kCap});

  struct ModelAnswer {
    SdpId sdp;
    std::string query;
    net::Endpoint requester;
    std::vector<std::string> frames;
    std::uint64_t session_id;
    std::uint64_t epoch;
    std::uint64_t last_used;
  };
  std::vector<ModelAnswer> model;
  std::uint64_t model_epoch = 0;
  std::uint64_t tick = 0;
  auto model_find = [&](SdpId sdp, const std::string& query,
                        const net::Endpoint& from) {
    return std::find_if(model.begin(), model.end(), [&](const auto& a) {
      return a.sdp == sdp && a.query == query && a.requester == from;
    });
  };

  std::mt19937 rng(2024);
  const SdpId sdps[] = {SdpId::kSlp, SdpId::kUpnp};
  const net::Endpoint requesters[] = {
      requester, {net::IpAddress(10, 0, 0, 9), 7701}};
  // Every (SDP, session id) that opened an answer so far.
  std::vector<std::pair<SdpId, std::uint64_t>> sessions;
  std::uint64_t replays = 0;
  std::uint64_t evictions = 0;

  for (int step = 0; step < 4000; ++step) {
    SdpId sdp = sdps[rng() % 2];
    const net::Endpoint& from = requesters[rng() % 2];
    std::string query = "QUERY " + std::to_string(rng() % 4);
    switch (rng() % 6) {
      case 0:
      case 1: {  // a query the cache could not replay opens an answer
        std::uint64_t session = 100 + static_cast<std::uint64_t>(step);
        sessions.emplace_back(sdp, session);
        dir.open_answer(sdp, wire_bytes(query), from, session, at_s(step));
        auto it = model_find(sdp, query, from);
        if (it == model.end()) {
          if (model.size() >= kCap) {
            evictions += 1;
            model.erase(std::min_element(
                model.begin(), model.end(), [](const auto& a, const auto& b) {
                  return a.last_used < b.last_used;
                }));
          }
          model.push_back({sdp, query, from, {}, 0, 0, 0});
          it = model.end() - 1;
        }
        it->frames.clear();
        it->session_id = session;
        it->epoch = model_epoch;
        it->last_used = ++tick;
        break;
      }
      case 2:
      case 3: {  // a composed reply frame for a recent (or unknown) session
        std::uint64_t session = 1;  // sometimes one that opened nothing
        if (!sessions.empty() && rng() % 8 != 0) {
          std::tie(sdp, session) =
              sessions[sessions.size() - 1 -
                       rng() % std::min<std::size_t>(sessions.size(), 3)];
        }
        std::string payload = "FRAME " + std::to_string(step);
        dir.add_answer_frame(sdp, session, reply_frame(payload));
        for (auto& a : model) {
          if (a.sdp == sdp && a.session_id == session &&
              a.epoch == model_epoch) {
            a.frames.push_back(payload);
            break;
          }
        }
        break;
      }
      case 4: {  // a repeated query: replay or miss
        received.clear();
        bool hit = dir.replay_answer(sdp, wire_bytes(query), from, at_s(step));
        scheduler.run_for(sim::millis(10));
        auto it = model_find(sdp, query, from);
        bool model_hit = it != model.end() && it->epoch == model_epoch &&
                         !it->frames.empty();
        ASSERT_EQ(hit, model_hit) << "step " << step;
        if (model_hit) {
          it->last_used = ++tick;
          replays += 1;
          std::vector<std::string> sent;  // every frame goes to `requester`
          for (const auto& bytes : received) sent.push_back(to_string(bytes));
          EXPECT_EQ(sent, it->frames) << "step " << step;
        }
        break;
      }
      default:  // an index mutation invalidates every cached answer
        if (rng() % 4 == 0) {
          dir.bump_generation();
          model_epoch += 1;
        }
        break;
    }
    ASSERT_EQ(dir.answer_cache_size(), model.size()) << "step " << step;
    ASSERT_EQ(dir.answer_replays(), replays) << "step " << step;
  }
  // The run exercised both the hit path and the eviction path.
  EXPECT_GT(replays, 40u);
  EXPECT_GT(evictions, 100u);
}

// --- End-to-end --------------------------------------------------------------

/// Regression (PR 9): bridged state used to expire only on sweep-on-touch —
/// a unit that never received another message after the deadline kept its
/// foreign-service mirror forever. The gateway's timer sweep must age it out
/// with NO inbound traffic after the advertisement.
TEST(DirectoryEndToEnd, IdleUnitBridgedStateExpiresWithoutFurtherTraffic) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 17};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.unit_options.expire_bridged_state = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  // One SLP registration with a 30-second lifetime, bridged into the mDNS
  // unit's foreign-service mirror...
  slp::SrvReg reg;
  reg.url_entry = {30, "service:clock:soap://10.0.0.2:4005/idle-clock"};
  reg.service_type = "service:clock";
  reg.attr_list = "(friendlyName=Idle Clock)";
  auto announcer = service.udp_socket(0);
  announcer->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     slp::encode(slp::Message(reg)));
  scheduler.run_for(sim::seconds(2));

  auto* mdns_unit = indiss.unit_as<MdnsUnit>(SdpId::kMdns);
  ASSERT_NE(mdns_unit, nullptr);
  ASSERT_EQ(mdns_unit->foreign_services().size(), 1u);

  // ...then total silence. Only the scheduler advances: past the 30s
  // lifetime plus the sweep period the mirror must be empty.
  scheduler.run_for(sim::seconds(60));
  EXPECT_TRUE(mdns_unit->foreign_services().empty())
      << "idle unit kept TTL-expired bridged state: the timer sweep did not "
         "run";
  EXPECT_GE(mdns_unit->stats().bridged_state_expired, 1u);
  indiss.stop();
}

/// With expire_bridged_state off (the default), the same silence must leave
/// the mirror untouched — the sweep never runs, fingerprints stay identical.
TEST(DirectoryEndToEnd, DefaultConfigNeverExpiresBridgedState) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 17};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  slp::SrvReg reg;
  reg.url_entry = {30, "service:clock:soap://10.0.0.2:4005/idle-clock"};
  reg.service_type = "service:clock";
  auto announcer = service.udp_socket(0);
  announcer->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     slp::encode(slp::Message(reg)));
  scheduler.run_for(sim::seconds(2));

  auto* mdns_unit = indiss.unit_as<MdnsUnit>(SdpId::kMdns);
  ASSERT_EQ(mdns_unit->foreign_services().size(), 1u);
  scheduler.run_for(sim::seconds(60));
  EXPECT_EQ(mdns_unit->foreign_services().size(), 1u);
  EXPECT_EQ(mdns_unit->stats().bridged_state_expired, 0u);
  indiss.stop();
}

namespace e2e {

constexpr std::string_view kClockUrl = "soap://10.0.0.2:4005/mdns-clock";
/// What the SLP composer puts on the wire: it always prefixes
/// "service:<type>:" — bridged and directory-answered replies alike.
constexpr std::string_view kSlpReplyUrl =
    "service:clock:soap://10.0.0.2:4005/mdns-clock";

mdns::ServiceInstance clock_instance() {
  mdns::ServiceInstance instance;
  instance.instance = "clock1";
  instance.service_type = "_clock._tcp";
  instance.port = 4005;
  instance.txt = {{"url", std::string(kClockUrl)}};
  return instance;
}

Bytes clock_query(std::uint16_t xid) {
  slp::SrvRqst request;
  request.header.xid = xid;
  request.service_type = "service:clock";
  return slp::encode(slp::Message(request));
}

/// URLs listed in a captured SrvRply, empty when the bytes are not one.
std::vector<std::string> rply_urls(const Bytes& payload) {
  std::vector<std::string> urls;
  auto message = slp::decode(payload);
  if (!message.has_value()) return urls;
  if (const auto* rply = std::get_if<slp::SrvRply>(&*message)) {
    for (const auto& entry : rply->url_entries) urls.push_back(entry.url);
  }
  return urls;
}

}  // namespace e2e

/// A native mDNS announcement indexes the service; an SLP browse is answered
/// by the gateway (SLP DA role) from the index; the goodbye tombstones the
/// record so the withdrawn service is never answered again.
TEST(DirectoryEndToEnd, SlpBrowseAnsweredFromIndexUntilByebyeTombstones) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 23};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  mdns::MdnsResponder responder(service);
  responder.publish(e2e::clock_instance());
  scheduler.run_for(sim::seconds(3));
  ASSERT_NE(indiss.directory()->find(e2e::kClockUrl), nullptr)
      << "the bridged announcement must populate the index";

  auto requester = client.udp_socket(0);
  std::vector<Bytes> replies;
  requester->set_receive_handler(
      [&](const net::Datagram& d) { replies.push_back(d.payload); });
  requester->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     e2e::clock_query(77));
  scheduler.run_for(sim::seconds(2));

  ASSERT_EQ(replies.size(), 1u);
  auto urls = e2e::rply_urls(replies[0]);
  ASSERT_EQ(urls.size(), 1u);
  EXPECT_EQ(urls[0], e2e::kSlpReplyUrl);
  EXPECT_EQ(indiss.directory()->stats(SdpId::kSlp).answered, 1u);

  // Goodbye: TTL-0 records withdraw the instance everywhere at once.
  responder.goodbye();
  scheduler.run_for(sim::seconds(2));
  EXPECT_EQ(indiss.directory()->find(e2e::kClockUrl), nullptr);
  EXPECT_GE(indiss.directory()->stats(SdpId::kMdns).withdrawals, 1u);

  // The repeat browse must not be answered from the index: whatever the
  // bridged path now produces, the withdrawn URL never appears.
  replies.clear();
  requester->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     e2e::clock_query(78));
  scheduler.run_for(sim::seconds(3));
  for (const auto& payload : replies) {
    for (const auto& url : e2e::rply_urls(payload)) {
      EXPECT_EQ(url.find("mdns-clock"), std::string::npos)
          << "withdrawn service answered after byebye: " << url;
    }
  }
  EXPECT_EQ(indiss.directory()->stats(SdpId::kSlp).answered, 1u)
      << "only the pre-byebye browse may be answered from the index";
  indiss.stop();
}

/// The acceptance storm: repeated identical browses are answered from the
/// index (>=95%) with zero query frames reaching the origin mDNS network.
TEST(DirectoryEndToEnd, RepeatedBrowseStormIsAnsweredWithZeroOriginFrames) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 29};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));
  net::Host& observer = network.add_host("obs", net::IpAddress(10, 0, 0, 8));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  mdns::MdnsResponder responder(service);
  responder.publish(e2e::clock_instance());
  scheduler.run_for(sim::seconds(3));
  ASSERT_NE(indiss.directory()->find(e2e::kClockUrl), nullptr);

  // Every DNS *question* on the origin group from here on is an escape: a
  // browse the gateway translated out instead of answering.
  auto origin_listener = observer.udp_socket(5353);
  origin_listener->join_group(net::IpAddress(224, 0, 0, 251));
  std::size_t origin_queries = 0;
  origin_listener->set_receive_handler([&](const net::Datagram& d) {
    auto message = mdns::decode(d.payload);
    if (message.has_value() && !message->is_response()) origin_queries += 1;
  });

  auto requester = client.udp_socket(0);
  std::vector<Bytes> replies;
  requester->set_receive_handler(
      [&](const net::Datagram& d) { replies.push_back(d.payload); });

  const int kQueries = 40;
  Bytes query = e2e::clock_query(1234);  // byte-identical repeats
  for (int i = 0; i < kQueries; ++i) {
    requester->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                       query);
    scheduler.run_for(sim::millis(500));
  }

  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kQueries));
  for (const auto& payload : replies) {
    EXPECT_EQ(payload, replies.front())
        << "replayed answers must be byte-identical to the composed one";
  }
  auto urls = e2e::rply_urls(replies.front());
  ASSERT_EQ(urls.size(), 1u);
  EXPECT_EQ(urls[0], e2e::kSlpReplyUrl);

  const auto& stats = indiss.directory()->stats(SdpId::kSlp);
  EXPECT_GE(stats.answered, static_cast<std::uint64_t>(kQueries * 95 / 100));
  EXPECT_EQ(stats.answered + stats.bridged,
            static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(origin_queries, 0u)
      << "an answered browse must cost the origin network zero frames";
  // All repeats after the first replay straight from the answer cache —
  // no session, no parse, no compose.
  EXPECT_GE(indiss.directory()->answer_replays(),
            static_cast<std::uint64_t>(kQueries - 1));
  EXPECT_LE(indiss.unit(SdpId::kSlp)->stats().messages_composed, 2u);
  indiss.stop();
}

/// Directory mode announces the gateway as an SLP DA so native UAs can
/// switch to unicast repository lookups (paper's DA role).
TEST(DirectoryEndToEnd, DirectoryModeMulticastsAnSlpDaAdvert) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 31};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& observer = network.add_host("obs", net::IpAddress(10, 0, 0, 8));

  auto slp_listener = observer.udp_socket(slp::kSlpPort);
  slp_listener->join_group(slp::kSlpMulticastGroup);
  std::size_t da_adverts = 0;
  slp_listener->set_receive_handler([&](const net::Datagram& d) {
    auto message = slp::decode(d.payload);
    if (message.has_value() &&
        std::holds_alternative<slp::DAAdvert>(*message)) {
      da_adverts += 1;
    }
  });

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::seconds(2));
  EXPECT_GE(da_adverts, 1u);
  indiss.stop();

  // Without directory mode the gateway must stay silent on the SLP group.
  da_adverts = 0;
  IndissConfig off_config;
  off_config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  Indiss off(gateway, off_config);
  off.start();
  scheduler.run_for(sim::seconds(2));
  EXPECT_EQ(da_adverts, 0u);
  off.stop();
}

}  // namespace
}  // namespace indiss::core
