// The cross-SDP interoperability matrix: every ordered pair of the four
// supported SDPs (SLP, UPnP, Jini, mDNS/DNS-SD) — 12 directed pairs — runs
// as one parameterized scenario: a native client of protocol A must discover
// a service announced natively on protocol B through a gateway-deployed
// INDISS (§4.2: "it is not mandatory for INDISS to be deployed on the client
// or service host").
//
// This systematizes what interop_test.cpp samples by hand: that file keeps
// the deployment-location variants and exact URL-shape assertions for the
// paper's SLP<->UPnP scenarios; this matrix guarantees no pair regresses as
// protocols are added.
//
// Per-pair mechanics:
//  - Requesters drive native discovery (SLP SrvRqst, SSDP M-SEARCH, Jini
//    registrar lookup, DNS-SD browse) and assert the announcer's endpoint
//    marker shows up in the discovered access URL.
//  - Announcers advertise natively (SLP registration answered on request,
//    UPnP alive burst, Jini join, mDNS announce).
//  - Jini clients only ever talk to a registrar, so pairs with a Jini
//    requester rely on INDISS translating the foreign advertisement into a
//    registrar registration; for SLP (which never advertises unsolicited)
//    the context manager's active probe (Fig 6) bridges the gap.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/indiss.hpp"
#include "core/shard/sharded_gateway.hpp"
#include "jini/client.hpp"
#include "jini/lookup.hpp"
#include "mdns/dns.hpp"
#include "mdns/dnssd.hpp"
#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "slp/wire.hpp"
#include "upnp/control_point.hpp"
#include "upnp/device.hpp"

namespace indiss::core {
namespace {

enum class Proto { kSlp, kUpnp, kJini, kMdns };

SdpId sdp_of(Proto p) {
  switch (p) {
    case Proto::kSlp: return SdpId::kSlp;
    case Proto::kUpnp: return SdpId::kUpnp;
    case Proto::kJini: return SdpId::kJini;
    case Proto::kMdns: return SdpId::kMdns;
  }
  return SdpId::kSlp;
}

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::kSlp: return "Slp";
    case Proto::kUpnp: return "Upnp";
    case Proto::kJini: return "Jini";
    case Proto::kMdns: return "Mdns";
  }
  return "?";
}

struct Pair {
  Proto requester;
  Proto announcer;
  /// 1 = a plain Indiss gateway; >1 = a ShardedGateway in deterministic
  /// virtual-shard mode (docs/sharding.md) — the matrix must pass unchanged
  /// when the pipeline is sharded.
  std::size_t shards = 1;
  /// Directory mode (docs/directory.md): queries the service index can
  /// answer never reach the origin network — discovery and withdrawal
  /// behavior must be indistinguishable from the bridged path.
  bool directory = false;
};

std::vector<Pair> all_directed_pairs(std::size_t shards,
                                     bool directory = false) {
  std::vector<Pair> pairs;
  for (Proto a : {Proto::kSlp, Proto::kUpnp, Proto::kJini, Proto::kMdns}) {
    for (Proto b : {Proto::kSlp, Proto::kUpnp, Proto::kJini, Proto::kMdns}) {
      if (a != b) pairs.push_back(Pair{a, b, shards, directory});
    }
  }
  return pairs;
}

/// The gateway under test: one Indiss, or a ShardedGateway splitting the
/// same configuration across N virtual shards. The matrix body only needs
/// start / probe / registrar-known, so the wrapper stays minimal.
class GatewayHarness {
 public:
  GatewayHarness(net::Host& host, const IndissConfig& config,
                 std::size_t shards) {
    if (shards <= 1) {
      single_ = std::make_unique<Indiss>(host, config);
    } else {
      shard::ShardedConfig sharded_config;
      sharded_config.shards = shards;
      sharded_config.indiss = config;
      sharded_ = std::make_unique<shard::ShardedGateway>(host, sharded_config);
    }
  }

  void start() {
    if (single_ != nullptr) {
      single_->start();
    } else {
      sharded_->start();
    }
  }

  void trigger_active_probe() {
    if (single_ != nullptr) {
      single_->trigger_active_probe();
    } else {
      sharded_->trigger_active_probe();
    }
  }

  /// With shards, registrar announcements replicate: every shard's JiniUnit
  /// must have learned it before bridging can work anywhere.
  [[nodiscard]] bool registrar_known() {
    if (single_ != nullptr) {
      auto* unit = single_->unit_as<JiniUnit>(SdpId::kJini);
      return unit != nullptr && unit->known_registrar().has_value();
    }
    for (std::size_t i = 0; i < sharded_->shard_count(); ++i) {
      auto* unit = sharded_->shard(i).unit_as<JiniUnit>(SdpId::kJini);
      if (unit == nullptr || !unit->known_registrar().has_value()) return false;
    }
    return true;
  }

  /// Unit session counters summed over every unit of every shard.
  [[nodiscard]] Unit::Stats unit_stats() {
    Unit::Stats total;
    for_each_unit([&](Unit& unit) { total += unit.stats(); });
    return total;
  }
  [[nodiscard]] std::size_t open_sessions() {
    std::size_t open = 0;
    for_each_unit([&](Unit& unit) { open += unit.open_sessions(); });
    return open;
  }

 private:
  template <typename F>
  void for_each_unit(F&& f) {
    const std::size_t shards = single_ != nullptr ? 1 : sharded_->shard_count();
    for (std::size_t i = 0; i < shards; ++i) {
      Indiss& indiss = single_ != nullptr ? *single_ : sharded_->shard(i);
      for (SdpId sdp :
           {SdpId::kSlp, SdpId::kUpnp, SdpId::kJini, SdpId::kMdns}) {
        if (Unit* unit = indiss.unit(sdp)) f(*unit);
      }
    }
  }

  std::unique_ptr<Indiss> single_;
  std::unique_ptr<shard::ShardedGateway> sharded_;
};

/// A substring of the discovered access URL that uniquely identifies the
/// announcer's native endpoint. For UPnP it is the device's host:port: a
/// request-driven translation hands over the absolutized control URL, while
/// an advertisement-driven one may only carry the description LOCATION —
/// both point at the device's endpoint.
std::string marker_for(Proto announcer) {
  switch (announcer) {
    case Proto::kSlp: return "slp-clock";
    case Proto::kUpnp: return "10.0.0.2:4004";
    case Proto::kJini: return "jini-clock";
    case Proto::kMdns: return "mdns-clock";
  }
  return "?";
}

class InteropMatrix : public ::testing::TestWithParam<Pair> {
 protected:
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 5};
  net::Host& client_host =
      network.add_host("client", net::IpAddress(10, 0, 0, 1));
  net::Host& service_host =
      network.add_host("service", net::IpAddress(10, 0, 0, 2));
  net::Host& gateway_host =
      network.add_host("gateway", net::IpAddress(10, 0, 0, 3));
  net::Host& registrar_host =
      network.add_host("reggie", net::IpAddress(10, 0, 0, 9));

  // Announcer actors (only the parameterized one is created).
  std::unique_ptr<slp::ServiceAgent> slp_sa;
  std::unique_ptr<upnp::RootDevice> upnp_device;
  std::unique_ptr<jini::LookupService> registrar;
  std::unique_ptr<jini::JiniServiceProvider> jini_provider;
  std::unique_ptr<mdns::MdnsResponder> mdns_responder;

  void start_registrar() {
    jini::LookupConfig config;
    config.announcement_interval = sim::millis(200);
    registrar = std::make_unique<jini::LookupService>(registrar_host, config);
  }

  void start_announcer(Proto announcer) {
    switch (announcer) {
      case Proto::kSlp: {
        slp_sa = std::make_unique<slp::ServiceAgent>(service_host);
        slp::ServiceRegistration reg;
        reg.url = "service:clock:soap://10.0.0.2:4005/slp-clock";
        reg.attributes.set("friendlyName", "SLP Clock");
        slp_sa->register_service(reg);
        break;
      }
      case Proto::kUpnp: {
        upnp_device = std::make_unique<upnp::RootDevice>(
            service_host, upnp::make_clock_device(), 4004);
        upnp_device->start();
        break;
      }
      case Proto::kJini: {
        jini::ServiceItem item;
        item.id = jini::ServiceId{7, 7};
        item.service_type = "clock";
        item.attributes = {{"url", "soap://10.0.0.2:4005/jini-clock"},
                           {"friendlyName", "Jini Clock"}};
        jini_provider =
            std::make_unique<jini::JiniServiceProvider>(service_host, item);
        jini_provider->join();
        break;
      }
      case Proto::kMdns: {
        mdns_responder = std::make_unique<mdns::MdnsResponder>(service_host);
        mdns::ServiceInstance instance;
        instance.instance = "clock1";
        instance.service_type = "_clock._tcp";
        instance.port = 4006;
        instance.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"},
                        {"friendlyName", "Bonjour Clock"}};
        mdns_responder->publish(std::move(instance));
        break;
      }
    }
  }

  /// Natively withdraws the advertisement `start_announcer` made: SLP
  /// deregistration (multicast SrvDeReg in DA-less mode), UPnP ssdp:byebye
  /// burst, Jini lease cancellation, mDNS TTL-0 goodbye.
  void withdraw_announcer(Proto announcer) {
    switch (announcer) {
      case Proto::kSlp:
        ASSERT_TRUE(slp_sa->deregister_service(
            "service:clock:soap://10.0.0.2:4005/slp-clock"));
        break;
      case Proto::kUpnp:
        upnp_device->stop();
        break;
      case Proto::kJini:
        jini_provider->leave();
        break;
      case Proto::kMdns:
        mdns_responder->goodbye();
        break;
    }
  }

  /// Runs the native discovery of `requester` and returns every access URL
  /// it produced.
  std::vector<std::string> run_requester(Proto requester) {
    std::vector<std::string> urls;
    switch (requester) {
      case Proto::kSlp: {
        slp::UserAgent ua(client_host);
        ua.find_services("service:clock", "", nullptr,
                         [&](const std::vector<slp::SearchResult>& results) {
                           for (const auto& result : results) {
                             urls.push_back(result.entry.url);
                           }
                         });
        scheduler.run_for(sim::seconds(3));
        break;
      }
      case Proto::kUpnp: {
        upnp::ControlPoint cp(client_host);
        std::vector<upnp::DiscoveredDevice> devices;
        cp.search("urn:schemas-upnp-org:device:clock:1", nullptr,
                  [&](const upnp::DiscoveredDevice& device) {
                    devices.push_back(device);
                  },
                  nullptr);
        scheduler.run_for(sim::seconds(3));
        for (const auto& device : devices) {
          if (!device.description.has_value()) continue;
          for (const auto& service : device.description->services) {
            urls.push_back(service.control_url);
          }
        }
        break;
      }
      case Proto::kJini: {
        jini::JiniClient client(client_host);
        jini::ServiceTemplate tmpl;
        tmpl.service_type = "clock";
        std::vector<jini::ServiceItem> items;
        client.lookup(tmpl, [&](const std::vector<jini::ServiceItem>& found) {
          items = found;
        });
        scheduler.run_for(sim::seconds(3));
        for (const auto& item : items) {
          for (const auto& [key, value] : item.attributes) {
            if (key == "url") urls.push_back(value);
          }
        }
        break;
      }
      case Proto::kMdns: {
        mdns::MdnsBrowser browser(client_host);
        std::vector<mdns::BrowseResult> results;
        browser.browse("_clock._tcp",
                       [&](const std::vector<mdns::BrowseResult>& found) {
                         results = found;
                       });
        scheduler.run_for(sim::seconds(3));
        for (const auto& result : results) urls.push_back(result.url());
        break;
      }
    }
    return urls;
  }
};

TEST_P(InteropMatrix, RequestOnADiscoversServiceAnnouncedOnB) {
  const Pair pair = GetParam();

  // A registrar is Jini's repository — required whenever Jini participates.
  const bool jini_involved =
      pair.requester == Proto::kJini || pair.announcer == Proto::kJini;
  if (jini_involved) {
    start_registrar();
    scheduler.run_for(sim::millis(10));
  }

  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kSlp);
  config.enabled_sdps.insert(SdpId::kUpnp);
  if (jini_involved) config.enabled_sdps.insert(SdpId::kJini);
  config.enabled_sdps.insert(SdpId::kMdns);
  config.enable_directory = pair.directory;
  GatewayHarness gateway(gateway_host, config, pair.shards);
  gateway.start();
  // Let the gateway settle (and, with Jini, hear a registrar announcement).
  scheduler.run_for(sim::millis(500));
  if (jini_involved) {
    ASSERT_TRUE(gateway.registrar_known())
        << "gateway must have learned the registrar before bridging";
  }

  start_announcer(pair.announcer);
  scheduler.run_for(sim::seconds(2));

  if (pair.requester == Proto::kJini && pair.announcer == Proto::kSlp) {
    // SLP services never advertise unsolicited; the Fig 6 active probe
    // re-announces them so the Jini unit can register them natively.
    gateway.trigger_active_probe();
    scheduler.run_for(sim::seconds(2));
  }

  std::vector<std::string> urls = run_requester(pair.requester);

  const std::string marker = marker_for(pair.announcer);
  bool found = false;
  for (const auto& url : urls) {
    if (url.find(marker) != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << proto_name(pair.requester) << " client found "
                     << urls.size() << " URL(s), none containing '" << marker
                     << "' announced via " << proto_name(pair.announcer);
}

// The withdrawal half of the matrix (ROADMAP open item): after the announcer
// natively retracts its advertisement (byebye / TTL-0 goodbye / SrvDeReg /
// lease cancel), a fresh discovery on every other SDP must come up empty —
// which requires the gateway to propagate the withdrawal (cancel bridged
// registrar leases, retract impersonations) rather than serve stale state.
TEST_P(InteropMatrix, WithdrawalOnBPropagatesToRequesterOnA) {
  const Pair pair = GetParam();

  const bool jini_involved =
      pair.requester == Proto::kJini || pair.announcer == Proto::kJini;
  if (jini_involved) {
    start_registrar();
    scheduler.run_for(sim::millis(10));
  }

  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kSlp);
  config.enabled_sdps.insert(SdpId::kUpnp);
  if (jini_involved) config.enabled_sdps.insert(SdpId::kJini);
  config.enabled_sdps.insert(SdpId::kMdns);
  config.enable_directory = pair.directory;
  GatewayHarness gateway(gateway_host, config, pair.shards);
  gateway.start();
  scheduler.run_for(sim::millis(500));

  start_announcer(pair.announcer);
  scheduler.run_for(sim::seconds(2));
  if (pair.requester == Proto::kJini && pair.announcer == Proto::kSlp) {
    gateway.trigger_active_probe();
    scheduler.run_for(sim::seconds(2));
  }

  // Precondition: the service is discoverable before the withdrawal (same
  // assertion as the discovery half, so a withdrawal pass can't pass
  // vacuously).
  const std::string marker = marker_for(pair.announcer);
  bool found_before = false;
  for (const auto& url : run_requester(pair.requester)) {
    if (url.find(marker) != std::string::npos) found_before = true;
  }
  ASSERT_TRUE(found_before)
      << "withdrawal test needs the service discoverable first";

  withdraw_announcer(pair.announcer);
  scheduler.run_for(sim::seconds(2));  // let the byebye propagate

  std::vector<std::string> urls = run_requester(pair.requester);
  for (const auto& url : urls) {
    EXPECT_EQ(url.find(marker), std::string::npos)
        << proto_name(pair.requester) << " client still finds '" << url
        << "' after the " << proto_name(pair.announcer) << " withdrawal";
  }
}

// Session lifecycle (docs/events.md): a session retires as soon as its
// transaction completes, not session_timeout (10 s) later. Once B's
// advertisement has been translated for A and the network has been quiet for
// a few milliseconds, no unit holds a session.
TEST_P(InteropMatrix, AdvertisementSessionsRetireOnceTranslated) {
  const Pair pair = GetParam();
  const bool jini_involved =
      pair.requester == Proto::kJini || pair.announcer == Proto::kJini;
  if (jini_involved) {
    start_registrar();
    scheduler.run_for(sim::millis(10));
  }

  IndissConfig config;
  config.enabled_sdps = {sdp_of(pair.requester), sdp_of(pair.announcer)};
  config.enable_directory = pair.directory;
  GatewayHarness gateway(gateway_host, config, pair.shards);
  gateway.start();
  scheduler.run_for(sim::millis(500));
  if (jini_involved) {
    ASSERT_TRUE(gateway.registrar_known());
  }

  if (pair.announcer == Proto::kSlp) {
    // A DA-less SLP SA never advertises; its advertisement is the multicast
    // registration an SA sends to a directory agent.
    slp::SrvReg reg;
    reg.header.flags = slp::kFlagFresh;
    reg.url_entry.lifetime_seconds = 300;
    reg.url_entry.url = "service:clock:soap://10.0.0.2:4005/slp-clock";
    reg.service_type = "service:clock";
    reg.attr_list = "(friendlyName=SLP Clock)";
    auto socket = service_host.udp_socket(0);
    socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                    slp::encode(slp::Message(reg)));
  } else {
    start_announcer(pair.announcer);
  }
  scheduler.run_for(sim::seconds(2));
  const std::uint64_t opened = gateway.unit_stats().sessions_opened;

  // Silence every native actor, then let the last translation land.
  slp_sa.reset();
  upnp_device.reset();
  jini_provider.reset();
  mdns_responder.reset();
  registrar.reset();
  scheduler.run_for(sim::millis(20));

  const Unit::Stats stats = gateway.unit_stats();
  EXPECT_GT(opened, 0u) << "the advertisement must reach the gateway";
  EXPECT_EQ(stats.sessions_completed, stats.sessions_opened);
  EXPECT_EQ(gateway.open_sessions(), 0u)
      << "completed sessions must not wait for the session timeout";
}

// Focused wire-level check of goodbye propagation: a UPnP byebye must come
// out of the gateway as an mDNS TTL-0 goodbye naming the same bridged
// instance the alive announced (matching by USN — the byebye carries no
// LOCATION).
TEST_F(InteropMatrix, UpnpByebyeEmergesAsMdnsGoodbye) {
  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kMdns);
  Indiss indiss(gateway_host, config);
  indiss.start();
  scheduler.run_for(sim::millis(100));

  auto listener = client_host.udp_socket(5353);
  listener->join_group(net::IpAddress(224, 0, 0, 251));
  std::vector<std::string> announced;
  std::vector<std::string> withdrawn;
  listener->set_receive_handler([&](const net::Datagram& d) {
    auto message = mdns::decode(d.payload);
    if (!message.has_value() || !message->is_response()) return;
    for (const auto& record : message->answers) {
      if (record.type != mdns::kTypePtr) continue;
      (record.ttl == 0 ? withdrawn : announced).push_back(record.target);
    }
  });

  start_announcer(Proto::kUpnp);
  scheduler.run_for(sim::seconds(2));
  ASSERT_FALSE(announced.empty()) << "alive must bridge into an announcement";

  withdraw_announcer(Proto::kUpnp);
  scheduler.run_for(sim::seconds(2));
  ASSERT_FALSE(withdrawn.empty()) << "byebye must bridge into a goodbye";
  EXPECT_EQ(withdrawn.front(), announced.front())
      << "the goodbye must name the instance the announcement created";
  EXPECT_TRUE(indiss.unit_as<MdnsUnit>(SdpId::kMdns)->foreign_services().empty());
}

/// One full run of the mDNS-announcer / raw-SLP-requester scenario: the
/// same three byte-identical SrvRqst frames, with the origin (mDNS) network
/// observed for forwarded queries once the announcement has settled.
struct ByteCompatRun {
  Bytes first_reply;
  std::size_t replies = 0;
  std::size_t origin_queries = 0;
  std::size_t answered = 0;
};

ByteCompatRun run_mdns_announcer_slp_requester(bool directory) {
  ByteCompatRun run;
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 41};
  net::Host& client_host =
      network.add_host("client", net::IpAddress(10, 0, 0, 1));
  net::Host& service_host =
      network.add_host("service", net::IpAddress(10, 0, 0, 2));
  net::Host& gateway_host =
      network.add_host("gateway", net::IpAddress(10, 0, 0, 3));
  net::Host& observer_host =
      network.add_host("observer", net::IpAddress(10, 0, 0, 8));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.enable_directory = directory;
  Indiss indiss(gateway_host, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  mdns::MdnsResponder responder(service_host);
  mdns::ServiceInstance instance;
  instance.instance = "clock1";
  instance.service_type = "_clock._tcp";
  instance.port = 4006;
  instance.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"},
                  {"friendlyName", "Bonjour Clock"}};
  responder.publish(std::move(instance));
  scheduler.run_for(sim::seconds(3));

  // Installed only after the announcement burst: every further question on
  // the origin group is a browse the gateway forwarded instead of answering.
  auto observer = observer_host.udp_socket(5353);
  observer->join_group(net::IpAddress(224, 0, 0, 251));
  observer->set_receive_handler([&](const net::Datagram& d) {
    auto message = mdns::decode(d.payload);
    if (message.has_value() && !message->is_response()) ++run.origin_queries;
  });

  slp::SrvRqst request;
  request.header.xid = 321;
  request.service_type = "service:clock";
  const Bytes query = slp::encode(slp::Message(request));

  auto requester = client_host.udp_socket(7700);
  requester->set_receive_handler([&](const net::Datagram& d) {
    auto message = slp::decode(d.payload);
    if (!message.has_value() || !std::holds_alternative<slp::SrvRply>(*message))
      return;
    if (run.replies++ == 0) run.first_reply = d.payload;
  });
  for (int i = 0; i < 3; ++i) {
    requester->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                       query);
    scheduler.run_for(sim::seconds(1));
  }

  run.answered = indiss.directory() != nullptr
                     ? indiss.directory()->stats(SdpId::kSlp).answered
                     : 0;
  return run;
}

// The directory-answered variant of the matrix's byte-level contract: the
// SrvRply the index produces must be byte-identical to the one the bridged
// path produces for the same query, and in directory mode the browses must
// generate zero origin-side frames.
TEST(InteropDirectoryByteCompat, DirectoryAnswerMatchesBridgedReplyBytes) {
  ByteCompatRun bridged = run_mdns_announcer_slp_requester(false);
  ByteCompatRun answered = run_mdns_announcer_slp_requester(true);

  ASSERT_GT(bridged.replies, 0u) << "bridged path must produce a reply";
  ASSERT_GT(answered.replies, 0u) << "directory path must produce a reply";
  EXPECT_EQ(answered.first_reply, bridged.first_reply)
      << "a directory answer must be byte-compatible with the bridged reply";

  EXPECT_EQ(bridged.answered, 0u);
  EXPECT_GT(bridged.origin_queries, 0u)
      << "bridged browses must reach the origin (proves the observer works)";
  EXPECT_GE(answered.answered, answered.replies)
      << "directory mode must answer from the index";
  EXPECT_EQ(answered.origin_queries, 0u)
      << "directory-answered browses must never reach the origin network";
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderedPairs, InteropMatrix, ::testing::ValuesIn(all_directed_pairs(1)),
    [](const ::testing::TestParamInfo<Pair>& info) {
      return std::string(proto_name(info.param.requester)) + "Finds" +
             proto_name(info.param.announcer);
    });

// The same 12 directed pairs through a 2-way sharded gateway (virtual-shard
// mode: deterministic, single-threaded). Interop must be indistinguishable
// from the unsharded gateway — the broadcast policy for requests/withdrawals
// and per-shard registrar learning are exactly what this exercises.
INSTANTIATE_TEST_SUITE_P(
    AllOrderedPairsVirtualShards2, InteropMatrix,
    ::testing::ValuesIn(all_directed_pairs(2)),
    [](const ::testing::TestParamInfo<Pair>& info) {
      return std::string(proto_name(info.param.requester)) + "Finds" +
             proto_name(info.param.announcer) + "Sharded";
    });

// The same 12 directed pairs with --directory on: queries the index can
// answer never cross to the origin network, yet discovery results and
// withdrawal propagation (tombstones, not just impersonation retraction)
// must be indistinguishable from the bridged path.
INSTANTIATE_TEST_SUITE_P(
    AllOrderedPairsDirectory, InteropMatrix,
    ::testing::ValuesIn(all_directed_pairs(1, /*directory=*/true)),
    [](const ::testing::TestParamInfo<Pair>& info) {
      return std::string(proto_name(info.param.requester)) + "Finds" +
             proto_name(info.param.announcer) + "Directory";
    });

}  // namespace
}  // namespace indiss::core
