// UPnP stack tests: SSDP message round trips, description documents, root
// device behaviour and control-point discovery.
#include <gtest/gtest.h>

#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "upnp/control_point.hpp"
#include "upnp/description.hpp"
#include "upnp/device.hpp"
#include "upnp/http_client.hpp"
#include "upnp/http_server.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::upnp {
namespace {

TEST(Ssdp, SearchRequestRoundTrip) {
  SearchRequest request;
  request.st = "urn:schemas-upnp-org:device:clock:1";
  request.mx = 2;
  auto parsed = parse_ssdp(to_bytes(request.to_http().serialize()));
  ASSERT_TRUE(parsed.has_value());
  auto* req = std::get_if<SearchRequest>(&*parsed);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->st, request.st);
  EXPECT_EQ(req->mx, 2);
}

TEST(Ssdp, SearchResponseRoundTrip) {
  SearchResponse response;
  response.st = "upnp:clock";
  response.usn = "uuid:ClockDevice::upnp:clock";
  response.location = "http://128.93.8.112:4004/description.xml";
  response.max_age_seconds = 900;
  auto parsed = parse_ssdp(to_bytes(response.to_http().serialize()));
  ASSERT_TRUE(parsed.has_value());
  auto* rsp = std::get_if<SearchResponse>(&*parsed);
  ASSERT_NE(rsp, nullptr);
  EXPECT_EQ(rsp->location, response.location);
  EXPECT_EQ(rsp->max_age_seconds, 900);
}

TEST(Ssdp, NotifyAliveAndByeByeRoundTrip) {
  Notify alive;
  alive.kind = Notify::Kind::kAlive;
  alive.nt = "urn:schemas-upnp-org:device:clock:1";
  alive.usn = "uuid:X::" + alive.nt;
  alive.location = "http://10.0.0.2:4004/description.xml";
  auto parsed = parse_ssdp(to_bytes(alive.to_http().serialize()));
  auto* a = std::get_if<Notify>(&*parsed);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, Notify::Kind::kAlive);
  EXPECT_EQ(a->location, alive.location);

  Notify bye = alive;
  bye.kind = Notify::Kind::kByeBye;
  auto parsed2 = parse_ssdp(to_bytes(bye.to_http().serialize()));
  auto* b = std::get_if<Notify>(&*parsed2);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->kind, Notify::Kind::kByeBye);
}

TEST(Ssdp, RejectsNonSsdpTraffic) {
  EXPECT_FALSE(parse_ssdp(to_bytes("GET / HTTP/1.1\r\n\r\n")).has_value());
  EXPECT_FALSE(parse_ssdp(to_bytes("binary\x01\x02garbage")).has_value());
}

TEST(Description, XmlRoundTripPreservesEverything) {
  DeviceDescription device = make_clock_device();
  auto xml = device.to_xml();
  auto parsed = DeviceDescription::from_xml(xml);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, device);
}

TEST(Description, RejectsMissingMandatoryFields) {
  EXPECT_FALSE(DeviceDescription::from_xml("<root><device/></root>")
                   .has_value());
  EXPECT_FALSE(DeviceDescription::from_xml("not xml").has_value());
}

TEST(Description, UsnForms) {
  auto device = make_clock_device("uuid:X");
  EXPECT_EQ(device.usn_for("uuid:X"), "uuid:X");
  EXPECT_EQ(device.usn_for(device.device_type),
            "uuid:X::" + device.device_type);
}

struct UpnpFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 1};
  net::Host& client_host = network.add_host("cp", net::IpAddress(10, 0, 0, 1));
  net::Host& device_host = network.add_host("dev", net::IpAddress(10, 0, 0, 2));
};

TEST_F(UpnpFixture, DeviceAnswersMatchingSearch) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::millis(10));  // let the alive burst drain

  ControlPoint cp(client_host);
  std::vector<SearchResponse> responses;
  cp.search("urn:schemas-upnp-org:device:clock:1",
            [&](const SearchResponse& r) { responses.push_back(r); }, nullptr,
            nullptr);
  scheduler.run_for(sim::seconds(1));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].location,
            "http://10.0.0.2:4004/description.xml");
  EXPECT_EQ(device.msearches_seen(), 1u);
}

TEST_F(UpnpFixture, SearchResponseTakesAboutStackDelay) {
  // Fig 7's UPnP reference: device-side M-SEARCH handling dominates.
  RootDevice device(device_host, make_clock_device(), 4004);
  device.profile().msearch_handling = sim::millis(30);
  device.start();
  scheduler.run_for(sim::millis(10));

  ControlPoint cp(client_host);
  sim::SimTime started = scheduler.now();
  sim::SimTime answered{};
  cp.search("ssdp:all",
            [&](const SearchResponse&) { answered = scheduler.now(); },
            nullptr, nullptr);
  scheduler.run_for(sim::seconds(1));
  ASSERT_GT(answered.count(), 0);
  double ms = sim::to_millis(answered - started);
  EXPECT_GT(ms, 29.0);
  EXPECT_LT(ms, 35.0);
}

TEST_F(UpnpFixture, NonMatchingTargetIgnored) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::millis(10));
  ControlPoint cp(client_host);
  int responses = 0;
  cp.search("urn:schemas-upnp-org:device:printer:1",
            [&](const SearchResponse&) { ++responses; }, nullptr, nullptr);
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(responses, 0);
  EXPECT_EQ(device.responses_sent(), 0u);
}

TEST_F(UpnpFixture, ControlPointFetchesDescription) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::millis(10));
  ControlPoint cp(client_host);
  std::optional<DiscoveredDevice> found;
  cp.search("ssdp:all", nullptr,
            [&](const DiscoveredDevice& d) { found = d; }, nullptr);
  scheduler.run_for(sim::seconds(2));
  ASSERT_TRUE(found.has_value());
  ASSERT_TRUE(found->description.has_value());
  EXPECT_EQ(found->description->friendly_name, "CyberGarage Clock Device");
  ASSERT_EQ(found->description->services.size(), 1u);
  EXPECT_EQ(found->description->services[0].control_url,
            "/service/timer/control");
}

TEST_F(UpnpFixture, PassiveListeningHearsAliveAndByeBye) {
  ControlPoint cp(client_host);
  std::vector<std::string> alive_usns;
  std::vector<std::string> byebye_usns;
  cp.enable_passive_listening(
      [&](const DiscoveredDevice& d) { alive_usns.push_back(d.response.usn); },
      [&](const Notify& n) { byebye_usns.push_back(n.usn); });

  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::seconds(1));
  EXPECT_FALSE(alive_usns.empty());
  device.stop();
  scheduler.run_for(sim::seconds(1));
  EXPECT_FALSE(byebye_usns.empty());
}

TEST_F(UpnpFixture, StoppedDeviceIsSilent) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::millis(10));
  device.stop();
  scheduler.run_for(sim::millis(10));

  ControlPoint cp(client_host);
  int responses = 0;
  cp.search("ssdp:all", [&](const SearchResponse&) { ++responses; }, nullptr,
            nullptr);
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(responses, 0);
}

TEST_F(UpnpFixture, SearchCompleteDeliversAllDevices) {
  RootDevice d1(device_host, make_clock_device("uuid:A"), 4004);
  net::Host& h2 = network.add_host("dev2", net::IpAddress(10, 0, 0, 3));
  RootDevice d2(h2, make_clock_device("uuid:B"), 4004);
  d1.start();
  d2.start();
  scheduler.run_for(sim::millis(10));

  ControlPoint cp(client_host);
  std::vector<DiscoveredDevice> all;
  cp.search("ssdp:all", nullptr, nullptr,
            [&](const std::vector<DiscoveredDevice>& devices) {
              all = devices;
            });
  scheduler.run_for(sim::seconds(2));
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(UpnpFixture, HttpGetAgainstDeviceServer) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  std::optional<http::HttpMessage> response;
  http_get(client_host,
           *Uri::parse("http://10.0.0.2:4004/description.xml"),
           [&](std::optional<http::HttpMessage> r) { response = std::move(r); });
  scheduler.run_for(sim::seconds(1));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_TRUE(DeviceDescription::from_xml(response->body).has_value());
}

TEST_F(UpnpFixture, HttpGet404ForUnknownPath) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  std::optional<http::HttpMessage> response;
  http_get(client_host, *Uri::parse("http://10.0.0.2:4004/nope"),
           [&](std::optional<http::HttpMessage> r) { response = std::move(r); });
  scheduler.run_for(sim::seconds(1));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
}

// An exact route wins over a prefix route, the longest matching prefix
// wins among prefixes, and a path nothing matches answers 404.
TEST_F(UpnpFixture, HttpServerRoutesExactPathsThenLongestPrefix) {
  HttpServer server(device_host, 4010);
  auto body = [](std::string text) {
    return [text](const http::HttpMessage&) {
      auto response = http::HttpMessage::response(200, "OK");
      response.body = text;
      return response;
    };
  };
  server.route("/a/exact", body("exact"));
  server.route_prefix("/a/", body("a"));
  server.route_prefix("/a/b/", body("ab"));
  EXPECT_EQ(server.route_count(), 3u);

  auto get = [&](const std::string& path) {
    std::optional<http::HttpMessage> response;
    http_get(client_host, *Uri::parse("http://10.0.0.2:4010" + path),
             [&](std::optional<http::HttpMessage> r) {
               response = std::move(r);
             });
    scheduler.run_for(sim::seconds(1));
    if (!response.has_value()) return std::string("<no response>");
    return response->status == 200 ? response->body
                                   : std::to_string(response->status);
  };
  EXPECT_EQ(get("/a/exact"), "exact");
  EXPECT_EQ(get("/a/exactly"), "a");
  EXPECT_EQ(get("/a/b/c"), "ab");
  EXPECT_EQ(get("/a"), "404");
  EXPECT_EQ(get("/z"), "404");
}

TEST_F(UpnpFixture, HttpGetConnectionRefusedReportsFailure) {
  bool called = false;
  std::optional<http::HttpMessage> response;
  http_get(client_host, *Uri::parse("http://10.0.0.2:4004/description.xml"),
           [&](std::optional<http::HttpMessage> r) {
             called = true;
             response = std::move(r);
           });
  scheduler.run_for(sim::seconds(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(response.has_value());
}

}  // namespace
}  // namespace indiss::upnp
