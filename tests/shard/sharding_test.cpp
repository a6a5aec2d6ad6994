// Shard routing and inline shard-set tests (docs/sharding.md): byte-identical
// wires always map to the same shard, the classifier sends advertisements to
// one shard and control traffic to all, the ShardedGateway's merged
// statistics equal the per-shard sums and stay readable after stop() in
// both forms, and rate limiting happens once, at the front monitor.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/shard/router.hpp"
#include "core/shard/sharded_gateway.hpp"
#include "mdns/dns.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "slp/wire.hpp"
#include "upnp/ssdp.hpp"

#if defined(__linux__)
#include "live/event_loop.hpp"
#include "live/sharded.hpp"
#endif

namespace indiss::core::shard {
namespace {

Bytes slp_registration(int device) {
  slp::SrvReg reg;
  reg.url_entry = {300, "service:clock:soap://10.0.1." +
                            std::to_string(device % 250) + ":4005/dev" +
                            std::to_string(device)};
  reg.service_type = "service:clock";
  reg.attr_list = "(friendlyName=Dev " + std::to_string(device) + ")";
  return slp::encode(slp::Message(reg));
}

Bytes slp_request() {
  slp::SrvRqst request;
  request.service_type = "service:clock";
  return slp::encode(slp::Message(request));
}

Bytes slp_deregistration(int device) {
  slp::SrvDeReg dereg;
  dereg.url_entry = {0, "service:clock:soap://10.0.1." +
                            std::to_string(device % 250) + ":4005/dev" +
                            std::to_string(device)};
  return slp::encode(slp::Message(dereg));
}

Bytes upnp_notify(upnp::Notify::Kind kind) {
  upnp::Notify notify;
  notify.kind = kind;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:Dev7::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.1.7:4004/description.xml";
  return to_bytes(notify.to_http().serialize());
}

Bytes upnp_msearch() {
  upnp::SearchRequest request;
  request.st = "ssdp:all";
  return to_bytes(request.to_http().serialize());
}

Bytes mdns_message(bool response, std::uint32_t ttl) {
  mdns::DnsMessage message;
  if (response) message.flags = mdns::kFlagResponse;
  if (response) {
    mdns::DnsRecord ptr;
    ptr.name = "_clock._tcp.local";
    ptr.type = mdns::kTypePtr;
    ptr.ttl = ttl;
    ptr.target = "dev7._clock._tcp.local";
    message.answers.push_back(ptr);
  } else {
    mdns::DnsQuestion question;
    question.name = "_clock._tcp.local";
    message.questions.push_back(question);
  }
  return mdns::encode(message);
}

net::Datagram make_datagram(Bytes payload, std::uint16_t source_port) {
  net::Datagram datagram;
  datagram.source = {net::IpAddress(10, 0, 1, 50), source_port};
  datagram.payload = std::move(payload);
  datagram.multicast = true;
  return datagram;
}

TEST(ShardRouting, ByteIdenticalWiresAlwaysMapToTheSameShard) {
  for (int device = 0; device < 32; ++device) {
    Bytes wire = slp_registration(device);
    Bytes copy = wire;  // distinct buffer, identical bytes
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      std::size_t index = shard_for(wire, shards);
      EXPECT_LT(index, shards);
      EXPECT_EQ(shard_for(copy, shards), index);
      EXPECT_EQ(shard_for(wire, shards), index);  // repeat call, same answer
    }
  }
}

TEST(ShardRouting, DistinctWiresSpreadAcrossShards) {
  std::set<std::size_t> seen;
  for (int device = 0; device < 200; ++device) {
    seen.insert(shard_for(slp_registration(device), 4));
  }
  // fnv1a64 over distinct payloads must reach every shard; a constant or
  // near-constant mapping would serialize the whole storm onto one core.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardRouting, ClassifierHashesAdvertisements) {
  EXPECT_EQ(classify(SdpId::kSlp,
                     make_datagram(slp_registration(1), 40001)),
            Route::kHashed);
  EXPECT_EQ(classify(SdpId::kUpnp,
                     make_datagram(upnp_notify(upnp::Notify::Kind::kAlive),
                                   40001)),
            Route::kHashed);
  EXPECT_EQ(classify(SdpId::kMdns,
                     make_datagram(mdns_message(true, 120), 40001)),
            Route::kHashed);
}

TEST(ShardRouting, ClassifierBroadcastsRequestsAndWithdrawals) {
  // Requests: every shard may hold the state that answers them.
  EXPECT_EQ(classify(SdpId::kSlp, make_datagram(slp_request(), 40001)),
            Route::kBroadcast);
  EXPECT_EQ(classify(SdpId::kUpnp, make_datagram(upnp_msearch(), 40001)),
            Route::kBroadcast);
  EXPECT_EQ(classify(SdpId::kMdns,
                     make_datagram(mdns_message(false, 0), 40001)),
            Route::kBroadcast);
  // Withdrawals: different bytes from the advertisement, so hashing could
  // strand the impersonated state on another shard.
  EXPECT_EQ(classify(SdpId::kSlp,
                     make_datagram(slp_deregistration(1), 40001)),
            Route::kBroadcast);
  EXPECT_EQ(classify(SdpId::kUpnp,
                     make_datagram(upnp_notify(upnp::Notify::Kind::kByeBye),
                                   40001)),
            Route::kBroadcast);
  EXPECT_EQ(classify(SdpId::kMdns,
                     make_datagram(mdns_message(true, 0), 40001)),
            Route::kBroadcast);
  // Jini announcement traffic carries the registrar every shard needs.
  EXPECT_EQ(classify(SdpId::kJini, make_datagram(Bytes{1, 2, 3}, 40001)),
            Route::kBroadcast);
  // Truncated/garbage SLP replicates too (cannot prove it is an advert).
  EXPECT_EQ(classify(SdpId::kSlp, make_datagram(Bytes{}, 40001)),
            Route::kBroadcast);
}

struct VirtualShardFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& gateway_host =
      network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& device_host =
      network.add_host("dev", net::IpAddress(10, 0, 1, 50));

  ShardedConfig make_config(std::size_t shards) {
    ShardedConfig config;
    config.shards = shards;
    config.indiss.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp};
    return config;
  }

  void send_slp(const Bytes& wire) {
    auto socket = device_host.udp_socket(0);
    socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                    wire);
    scheduler.run_for(sim::seconds(30));  // past translate + settle windows
  }
};

TEST_F(VirtualShardFixture, AdvertisementLandsOnExactlyOneShard) {
  ShardedGateway gateway(gateway_host, make_config(2));
  gateway.start();
  scheduler.run_for(sim::millis(10));

  Bytes wire = slp_registration(7);
  std::size_t expected = gateway.shard_for(wire);
  send_slp(wire);
  send_slp(wire);  // byte-identical repeat: same shard, cache hit

  std::uint64_t parsed_total = 0;
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    const Unit* unit = gateway.shard(i).unit(SdpId::kSlp);
    ASSERT_NE(unit, nullptr);
    if (i == expected) {
      EXPECT_EQ(unit->stats().messages_parsed, 1u) << "shard " << i;
      EXPECT_EQ(unit->stats().cache_short_circuits, 1u) << "shard " << i;
    } else {
      EXPECT_EQ(unit->stats().messages_parsed, 0u) << "shard " << i;
    }
    parsed_total += unit->stats().messages_parsed;
  }
  EXPECT_EQ(parsed_total, 1u);
  EXPECT_EQ(gateway.datagrams_dispatched(), 2u);
  EXPECT_EQ(gateway.datagrams_replicated(), 0u);
  EXPECT_EQ(gateway.front_monitor().datagrams_seen(), 2u);
  EXPECT_TRUE(gateway.front_monitor().has_detected(SdpId::kSlp));
}

TEST_F(VirtualShardFixture, RequestIsReplicatedToEveryShard) {
  ShardedGateway gateway(gateway_host, make_config(2));
  gateway.start();
  scheduler.run_for(sim::millis(10));

  send_slp(slp_request());

  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    const Unit* unit = gateway.shard(i).unit(SdpId::kSlp);
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->stats().messages_parsed, 1u) << "shard " << i;
  }
  EXPECT_EQ(gateway.datagrams_dispatched(), 1u);
  EXPECT_EQ(gateway.datagrams_replicated(), 1u);
}

// The satellite fix for shard-safe statistics: counters stay plain per-shard
// members, and the gateway-level accessors merge them at read time. The
// merged view must equal the per-shard sums exactly.
TEST_F(VirtualShardFixture, MergedStatsEqualPerShardSums) {
  // Directory mode, so every shard's index has counters to merge too.
  ShardedConfig config = make_config(2);
  config.indiss.enable_directory = true;
  ShardedGateway gateway(gateway_host, config);
  gateway.start();
  scheduler.run_for(sim::millis(10));

  // Distinct registrations spread over the hash; repeats generate hits.
  for (int device = 0; device < 6; ++device) {
    send_slp(slp_registration(device));
  }
  for (int device = 0; device < 6; ++device) {
    send_slp(slp_registration(device));
  }

  Unit::Stats expected_unit;
  TranslationCache::SdpStats expected_cache;
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    expected_unit += gateway.shard(i).unit(SdpId::kSlp)->stats();
    expected_cache += gateway.shard(i).translation_cache()->stats(SdpId::kSlp);
  }
  Unit::Stats merged = gateway.unit_stats(SdpId::kSlp);
  EXPECT_EQ(merged.messages_parsed, expected_unit.messages_parsed);
  EXPECT_EQ(merged.cache_short_circuits, expected_unit.cache_short_circuits);
  EXPECT_EQ(merged.sessions_opened, expected_unit.sessions_opened);
  EXPECT_EQ(merged.streams_dispatched, expected_unit.streams_dispatched);

  TranslationCache::SdpStats cache = gateway.translation_stats(SdpId::kSlp);
  EXPECT_EQ(cache.hits, expected_cache.hits);
  EXPECT_EQ(cache.misses, expected_cache.misses);
  EXPECT_EQ(cache.frames_replayed, expected_cache.frames_replayed);

  // And the totals are what the traffic implies: 6 first-time translations,
  // 6 byte-identical repeats short-circuited, spread across both shards.
  EXPECT_EQ(merged.messages_parsed, 6u);
  EXPECT_EQ(merged.cache_short_circuits, 6u);
  EXPECT_EQ(cache.hits, 6u);
  EXPECT_GT(gateway.shard(0).unit(SdpId::kSlp)->stats().messages_parsed, 0u);
  EXPECT_GT(gateway.shard(1).unit(SdpId::kSlp)->stats().messages_parsed, 0u);

  // Control traffic, replicated to both shards: each shard holds some clock
  // records, so each answers the request from its own index; the withdrawal
  // tombstones the one record its owning shard holds.
  send_slp(slp_request());
  send_slp(slp_deregistration(0));
  ServiceDirectory::SdpStats expected_directory;
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    expected_directory += gateway.shard(i).directory()->stats(SdpId::kSlp);
  }
  ServiceDirectory::SdpStats directory = gateway.directory_stats(SdpId::kSlp);
  EXPECT_EQ(directory.answered, expected_directory.answered);
  EXPECT_EQ(directory.bridged, expected_directory.bridged);
  EXPECT_EQ(directory.records_stored, expected_directory.records_stored);
  EXPECT_EQ(directory.withdrawals, expected_directory.withdrawals);
  EXPECT_EQ(directory.records_stored, 6u);
  EXPECT_EQ(directory.answered, 2u);
  EXPECT_EQ(directory.withdrawals, 1u);
}

// stop() must not take the statistics with it in either form. The threaded
// form joins its shard threads and leaves their gateways inert; the inline
// form stops its shards, which tears their units down, and each shard keeps
// the counters its units held at that moment.
TEST_F(VirtualShardFixture, MergedStatsStayReadableAfterStopInBothForms) {
  constexpr int kDevices = 6;
  ShardedGateway gateway(gateway_host, make_config(2));
  gateway.start();
  scheduler.run_for(sim::millis(10));
  for (int device = 0; device < kDevices; ++device) {
    send_slp(slp_registration(device));
  }
  Unit::Stats running = gateway.unit_stats(SdpId::kSlp);
  ASSERT_EQ(running.messages_parsed, static_cast<std::uint64_t>(kDevices));
  gateway.stop();
  EXPECT_EQ(gateway.shard(0).unit(SdpId::kSlp), nullptr) << "units torn down";
  Unit::Stats stopped = gateway.unit_stats(SdpId::kSlp);
  EXPECT_EQ(stopped.messages_parsed, running.messages_parsed);
  EXPECT_EQ(stopped.sessions_opened, running.sessions_opened);
  EXPECT_EQ(stopped.streams_dispatched, running.streams_dispatched);
  EXPECT_EQ(gateway.unit_stats(SdpId::kUpnp).messages_parsed, 0u);
  // A restart begins a fresh count.
  gateway.start();
  EXPECT_EQ(gateway.unit_stats(SdpId::kSlp).messages_parsed, 0u);
  gateway.stop();

#if defined(__linux__)
  // The threaded form, fed the same registrations from loopback.
  live::EventLoop loop;
  live::LiveShardConfig config;
  config.shards = 2;
  config.scan_ports = false;  // traffic enters through dispatch() only
  config.live.name = "stopstats";
  config.indiss.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp};
  live::LiveShardPool pool(loop, config);
  pool.start();
  for (int device = 0; device < kDevices; ++device) {
    net::Datagram datagram = make_datagram(slp_registration(device), 40001);
    datagram.source.address = net::IpAddress(127, 0, 0, 1);
    pool.dispatch(SdpId::kSlp, datagram);
  }
  for (int i = 0;
       i < 1000 && pool.ingress_consumed() != pool.ingress_accepted(); ++i) {
    loop.run_for(transport::millis(5));
  }
  loop.run_for(transport::millis(100));  // the units' translate_delay
  pool.stop();
  EXPECT_EQ(pool.unit_stats(SdpId::kSlp).messages_parsed,
            static_cast<std::uint64_t>(kDevices));
#endif
}

// Rate limiting is the front monitor's job in every form: a sharded gateway
// sheds a flood once, before fan-out, exactly as an unsharded one does. A
// per-shard limit would give one source a separate bucket on every shard.
TEST_F(VirtualShardFixture, RateLimitShedsAtTheFrontLikeAnUnshardedGateway) {
  ShardedConfig config = make_config(2);
  config.indiss.monitor.rate_limit_per_sec = 5.0;  // burst: 10 datagrams
  // Distinct registrations from one source, all arriving at one instant.
  auto flood = [&] {
    auto socket = device_host.udp_socket(0);
    for (int device = 0; device < 40; ++device) {
      socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                      slp_registration(device));
    }
    scheduler.run_for(sim::seconds(30));
  };

  std::uint64_t unsharded_shed = 0;
  {
    Indiss indiss(gateway_host, config.indiss);
    indiss.start();
    scheduler.run_for(sim::millis(10));
    flood();
    unsharded_shed = indiss.monitor().stats().rate_limited;
  }
  ASSERT_GT(unsharded_shed, 0u);

  ShardedGateway gateway(gateway_host, config);
  gateway.start();
  scheduler.run_for(sim::millis(10));
  flood();
  EXPECT_EQ(gateway.front_monitor().stats().rate_limited, unsharded_shed);
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    EXPECT_EQ(gateway.shard(i).monitor().stats().rate_limited, 0u)
        << "shard " << i;
    // The admitted registrations hashed across both shards.
    EXPECT_GT(gateway.shard(i).unit(SdpId::kSlp)->stats().messages_parsed, 0u)
        << "shard " << i;
  }
}

}  // namespace
}  // namespace indiss::core::shard
