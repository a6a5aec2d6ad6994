// The units' keyed table of bridged foreign services (core/units/
// foreign_table.hpp): the table's own index bookkeeping against a
// brute-force model, then the advertisement semantics the SLP and mDNS
// units build on it — refresh, withdrawal by URL or USN, TTL expiry and
// re-announcement after a rejoin.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/units/foreign_table.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace indiss::core {
namespace {

// --- The table against a brute-force model ----------------------------------

ForeignService make_service(std::string url, std::string usn,
                            transport::TimePoint expires_at) {
  ForeignService service;
  service.canonical_type = "clock";
  service.url = std::move(url);
  service.usn = std::move(usn);
  service.expires_at = expires_at;
  return service;
}

/// What the table must hold: entries in insertion order, as the plain
/// vector the table replaced kept them.
struct Model {
  std::vector<ForeignService> entries;

  ForeignService* find(const std::string& url) {
    for (auto& e : entries) {
      if (e.url == url) return &e;
    }
    return nullptr;
  }
  const ForeignService* oldest_with_usn(const std::string& usn) const {
    for (const auto& e : entries) {
      if (e.usn == usn) return &e;
    }
    return nullptr;
  }
};

void expect_same(const ForeignTable& table, Model& model) {
  ASSERT_EQ(table.services().size(), model.entries.size());
  for (const auto& entry : table.services()) {
    const ForeignService* expected = model.find(entry.url);
    ASSERT_NE(expected, nullptr) << entry.url;
    EXPECT_EQ(entry.usn, expected->usn);
    EXPECT_EQ(entry.expires_at, expected->expires_at) << entry.url;
    ASSERT_EQ(table.find(entry.url), &entry) << "URL index points elsewhere";
  }
}

TEST(ForeignTable, SeededOperationsMatchTheBruteForceModel) {
  std::mt19937 rng(20260514);
  ForeignTable table;
  Model model;
  auto url_of = [](unsigned i) {
    return "soap://10.0.7." + std::to_string(i) + ":4005/control";
  };
  auto usn_of = [](unsigned i) {
    return i == 0 ? std::string() : "uuid:device-" + std::to_string(i);
  };
  transport::TimePoint now = transport::seconds(1);

  for (int step = 0; step < 4000; ++step) {
    std::string url = url_of(rng() % 96);
    std::string usn = usn_of(rng() % 12);  // few USNs: long shared chains
    auto deadline = now + transport::seconds(1 + rng() % 40);
    switch (rng() % 6) {
      case 0:
      case 1:  // alive: first sight or refresh
        if (const ForeignService* known = table.find(url)) {
          table.rearm(*known, deadline);
          model.find(url)->expires_at = deadline;
        } else {
          table.insert(make_service(url, usn, deadline));
          model.entries.push_back(make_service(url, usn, deadline));
        }
        break;
      case 2: {  // withdrawal by URL
        bool had = model.find(url) != nullptr;
        EXPECT_EQ(table.erase(url), had);
        std::erase_if(model.entries,
                      [&](const ForeignService& e) { return e.url == url; });
        break;
      }
      case 3: {  // the oldest entry a USN names, then withdrawal by USN
        const ForeignService* expected = model.oldest_with_usn(usn);
        const ForeignService* got = table.find_by_usn(usn);
        ASSERT_EQ(got == nullptr, expected == nullptr || usn.empty());
        if (got != nullptr) {
          EXPECT_EQ(got->url, expected->url);
        }
        if (rng() % 2 == 0 && !usn.empty()) {
          auto removed = std::erase_if(
              model.entries,
              [&](const ForeignService& e) { return e.usn == usn; });
          EXPECT_EQ(table.erase_usn(usn), removed);
        }
        break;
      }
      case 4: {  // time passes; exactly the due entries expire
        now += transport::seconds(rng() % 6);
        std::vector<std::string> expired;
        std::size_t removed = table.expire(
            now, [&](const ForeignService& s) { expired.push_back(s.url); });
        std::vector<std::string> due;
        std::erase_if(model.entries, [&](const ForeignService& e) {
          bool gone = e.expires_at <= now;
          if (gone) due.push_back(e.url);
          return gone;
        });
        EXPECT_EQ(removed, due.size());
        std::sort(expired.begin(), expired.end());
        std::sort(due.begin(), due.end());
        EXPECT_EQ(expired, due);
        break;
      }
      default:
        EXPECT_EQ(table.find(url) != nullptr, model.find(url) != nullptr);
        break;
    }
    expect_same(table, model);
    if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << step;
  }
}

TEST(ForeignTable, ExpireIsANoOpWhileTheEarliestDeadlineIsAhead) {
  ForeignTable table;
  table.insert(make_service("soap://a", "", transport::seconds(10)));
  table.insert(make_service("soap://b", "", transport::seconds(20)));
  int calls = 0;
  auto count = [&](const ForeignService&) { ++calls; };
  EXPECT_EQ(table.expire(transport::seconds(9), count), 0u);
  EXPECT_EQ(table.expire(transport::seconds(10), count), 1u);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(table.services().size(), 1u);
  EXPECT_EQ(table.services()[0].url, "soap://b");
  // A re-arm to an earlier instant must pull the cached deadline back.
  table.rearm(*table.find("soap://b"), transport::seconds(12));
  EXPECT_EQ(table.expire(transport::seconds(12), count), 1u);
  EXPECT_EQ(table.services().size(), 0u);
}

// --- The units' advertisement semantics on top of it ------------------------

struct TestSlpUnit : SlpUnit {
  using SlpUnit::SlpUnit;
  using SlpUnit::expire_bridged_state;
  using SlpUnit::on_advertisement;
};

struct TestMdnsUnit : MdnsUnit {
  using MdnsUnit::MdnsUnit;
  using MdnsUnit::expire_bridged_state;
  using MdnsUnit::on_advertisement;
};

Session alive(std::string_view type, std::string_view url, long ttl_seconds,
              std::string_view usn = "",
              std::string_view friendly = "Table Clock") {
  Session session;
  session.id = 1;
  session.origin = Session::Origin::kPeer;
  session.set_var("kind", "alive");
  session.set_var("service_type", type);
  session.collected.push_back(Event(EventType::kControlStart));
  session.collected.push_back(Event(EventType::kServiceAlive));
  session.collected.push_back(
      Event(EventType::kServiceTypeIs, {{"type", type}}));
  session.collected.push_back(Event(
      EventType::kResTtl, {{"seconds", std::to_string(ttl_seconds)}}));
  if (!usn.empty()) {
    session.collected.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  }
  session.collected.push_back(Event(
      EventType::kServiceAttr, {{"key", "friendlyName"}, {"value", friendly}}));
  session.collected.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  session.collected.push_back(Event(EventType::kControlStop));
  return session;
}

Session byebye(std::string_view type, std::string_view url,
               std::string_view usn = "") {
  Session session;
  session.id = 2;
  session.origin = Session::Origin::kPeer;
  session.set_var("kind", "byebye");
  session.set_var("service_type", type);
  session.collected.push_back(Event(EventType::kControlStart));
  session.collected.push_back(Event(EventType::kServiceByeBye));
  if (!usn.empty()) {
    session.collected.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  }
  if (!url.empty()) {
    session.collected.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  }
  session.collected.push_back(Event(EventType::kControlStop));
  return session;
}

std::vector<std::string> urls_of(const std::vector<ForeignService>& services) {
  std::vector<std::string> urls;
  for (const auto& s : services) urls.push_back(s.url);
  std::sort(urls.begin(), urls.end());
  return urls;
}

constexpr std::string_view kUrlA = "soap://10.0.0.2:4005/table-a";
constexpr std::string_view kUrlB = "soap://10.0.0.2:4005/table-b";
constexpr std::string_view kUrlC = "soap://10.0.0.2:4005/table-c";

struct UnitFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  TestSlpUnit slp{host};
  TestMdnsUnit mdns{host};

  /// Feeds one peer session to both units.
  void advertise(Session session) {
    slp.on_advertisement(session);
    mdns.on_advertisement(session);
    scheduler.run_for(sim::millis(1));
  }
  void advance(transport::Duration d) { scheduler.run_for(d); }
};

TEST_F(UnitFixture, RefreshRearmsTheDeadlineOnly) {
  advertise(alive("clock", kUrlA, 60, "uuid:a", "First Name"));
  advance(transport::seconds(10));
  transport::TimePoint refreshed_at = scheduler.now();
  advertise(alive("clock", kUrlA, 90, "uuid:other", "Second Name"));

  for (const auto* services : {&slp.foreign_services(),
                               &mdns.foreign_services()}) {
    ASSERT_EQ(services->size(), 1u);
    const ForeignService& s = services->front();
    EXPECT_EQ(s.expires_at, refreshed_at + transport::seconds(90));
    EXPECT_EQ(s.usn, "uuid:a") << "a refresh must not rewrite identity";
    ASSERT_EQ(s.attributes.size(), 1u);
    EXPECT_EQ(s.attributes[0].second, "First Name");
  }
}

TEST_F(UnitFixture, MdnsRefreshUnderAnotherTypeDoesNotRearm) {
  advertise(alive("clock", kUrlA, 60));
  transport::TimePoint first_deadline =
      mdns.foreign_services().front().expires_at;
  advance(transport::seconds(10));
  advertise(alive("printer", kUrlA, 60));
  EXPECT_EQ(mdns.foreign_services().front().expires_at, first_deadline)
      << "mDNS re-arms only the same-typed entry";
  EXPECT_EQ(mdns.foreign_services().front().canonical_type, "clock");
  EXPECT_EQ(slp.foreign_services().front().expires_at,
            scheduler.now() - sim::millis(1) + transport::seconds(60))
      << "SLP re-arms whatever the type";
  EXPECT_EQ(mdns.announcements_sent(), 1u);
}

TEST_F(UnitFixture, UrlByebyeRemovesItsEntry) {
  advertise(alive("clock", kUrlA, 60));
  advertise(alive("clock", kUrlB, 60));
  std::uint64_t sent = mdns.announcements_sent();
  advertise(byebye("clock", kUrlA));
  std::vector<std::string> left{std::string(kUrlB)};
  EXPECT_EQ(urls_of(slp.foreign_services()), left);
  EXPECT_EQ(urls_of(mdns.foreign_services()), left);
  EXPECT_EQ(mdns.announcements_sent(), sent + 1) << "one goodbye";
  advertise(byebye("clock", kUrlA));
  EXPECT_EQ(mdns.announcements_sent(), sent + 1)
      << "an unknown URL withdraws nothing";
}

TEST_F(UnitFixture, UsnOnlyByebyeRemovesEveryUrlSharingTheUsn) {
  advertise(alive("clock", kUrlA, 60, "uuid:shared"));
  advertise(alive("clock", kUrlB, 60, "uuid:other"));
  advertise(alive("clock", kUrlC, 60, "uuid:shared"));
  std::uint64_t sent = mdns.announcements_sent();

  advertise(byebye("clock", "", "uuid:shared"));
  std::vector<std::string> only_b{std::string(kUrlB)};
  EXPECT_EQ(urls_of(slp.foreign_services()), only_b)
      << "SLP forgets every entry the USN names at once";
  // mDNS resolves the USN to one instance per goodbye, oldest first, as its
  // withdrawal names exactly one bridged instance on the wire.
  EXPECT_EQ(urls_of(mdns.foreign_services()),
            (std::vector<std::string>{std::string(kUrlB), std::string(kUrlC)}));
  advertise(byebye("clock", "", "uuid:shared"));
  EXPECT_EQ(urls_of(mdns.foreign_services()), only_b);
  EXPECT_EQ(mdns.announcements_sent(), sent + 2) << "one goodbye per URL";
}

TEST_F(UnitFixture, ExpiryRemovesExactlyTheDueEntries) {
  advertise(alive("clock", kUrlA, 10));
  advertise(alive("clock", kUrlB, 20));
  advertise(alive("clock", kUrlC, 30));
  advance(transport::seconds(5));
  advertise(alive("clock", kUrlA, 10));  // re-armed to ~15 s
  EXPECT_EQ(slp.expire_bridged_state(scheduler.now()), 0u);
  EXPECT_EQ(mdns.expire_bridged_state(scheduler.now()), 0u);

  advance(transport::seconds(12));  // ~17 s: only A (15 s) is due
  std::vector<std::string> b_and_c{std::string(kUrlB), std::string(kUrlC)};
  EXPECT_EQ(slp.expire_bridged_state(scheduler.now()), 1u);
  EXPECT_EQ(mdns.expire_bridged_state(scheduler.now()), 1u);
  EXPECT_EQ(urls_of(slp.foreign_services()), b_and_c);
  EXPECT_EQ(urls_of(mdns.foreign_services()), b_and_c);

  advance(transport::seconds(20));  // ~37 s: B and C are due
  EXPECT_EQ(slp.expire_bridged_state(scheduler.now()), 2u);
  EXPECT_EQ(mdns.expire_bridged_state(scheduler.now()), 2u);
  EXPECT_TRUE(slp.foreign_services().empty());
  EXPECT_TRUE(mdns.foreign_services().empty());
}

TEST_F(UnitFixture, MdnsRejoinAfterExpiryAnnouncesAgain) {
  advertise(alive("clock", kUrlA, 10));
  advertise(alive("clock", kUrlA, 10));
  EXPECT_EQ(mdns.announcements_sent(), 1u) << "a refresh stays silent";
  advance(transport::seconds(11));
  ASSERT_EQ(mdns.expire_bridged_state(scheduler.now()), 1u);
  advertise(alive("clock", kUrlA, 10));
  EXPECT_EQ(mdns.announcements_sent(), 2u)
      << "a service that rejoins after expiry is announced again";
  EXPECT_EQ(mdns.foreign_services().size(), 1u);
}

}  // namespace
}  // namespace indiss::core
