// Impersonated UPnP devices (paper §2.4): a foreign service bridged into
// UPnP is served as a device. SSDP search responses and NOTIFY alive/byebye
// name it, and its LOCATION serves a generated description document.
//
// The golden frames below were recorded from the implementation that kept a
// DeviceDescription and an HTTP route per device. The unit now keeps one
// compact record per device and renders frames and documents on demand;
// every byte on the wire must stay the same.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/units/upnp_unit.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {
namespace {

constexpr std::uint16_t kHttpPort = 8080;
constexpr std::string_view kClockUrl =
    "service:clock:soap://10.0.0.2:4005/golden-clock";
constexpr std::string_view kPrinterUrl = "service:printer:lpr://10.0.0.4:515/q";
constexpr std::string_view kScannerUrl =
    "service:scanner:http://10.0.0.5:80/a?b=1&c=<2>";

// --- Goldens ----------------------------------------------------------------

constexpr std::string_view kClockAlive =
    "NOTIFY * HTTP/1.1\r\n"
    "HOST: 239.255.255.250:1900\r\n"
    "NT: urn:schemas-upnp-org:device:clock:1\r\n"
    "NTS: ssdp:alive\r\n"
    "USN: uuid:indiss-1::urn:schemas-upnp-org:device:clock:1\r\n"
    "CACHE-CONTROL: max-age=1800\r\n"
    "LOCATION: http://10.0.0.3:8080/indiss/1/description.xml\r\n"
    "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
    "\r\n";

constexpr std::string_view kPrinterAlive =
    "NOTIFY * HTTP/1.1\r\n"
    "HOST: 239.255.255.250:1900\r\n"
    "NT: urn:schemas-upnp-org:device:printer:1\r\n"
    "NTS: ssdp:alive\r\n"
    "USN: uuid:indiss-2::urn:schemas-upnp-org:device:printer:1\r\n"
    "CACHE-CONTROL: max-age=1800\r\n"
    "LOCATION: http://10.0.0.3:8080/indiss/2/description.xml\r\n"
    "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
    "\r\n";

constexpr std::string_view kClockByeBye =
    "NOTIFY * HTTP/1.1\r\n"
    "HOST: 239.255.255.250:1900\r\n"
    "NT: urn:schemas-upnp-org:device:clock:1\r\n"
    "NTS: ssdp:byebye\r\n"
    "USN: uuid:indiss-1::urn:schemas-upnp-org:device:clock:1\r\n"
    "\r\n";

constexpr std::string_view kClockSearchResponse =
    "HTTP/1.1 200 OK\r\n"
    "CACHE-CONTROL: max-age=1800\r\n"
    "EXT: \r\n"
    "LOCATION: http://10.0.0.3:8080/indiss/1/description.xml\r\n"
    "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
    "ST: urn:schemas-upnp-org:device:clock:1\r\n"
    "USN: uuid:indiss-1::urn:schemas-upnp-org:device:clock:1\r\n"
    "Content-Length: 0\r\n"
    "\r\n";

constexpr std::string_view kClockDocument =
    "HTTP/1.1 200 OK\r\n"
    "CONTENT-TYPE: text/xml\r\n"
    "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
    "Content-Length: 888\r\n"
    "\r\n"
    "<?xml version=\"1.0\"?>\n"
    "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
    "  <specVersion>\n"
    "    <major>1</major>\n"
    "    <minor>0</minor>\n"
    "  </specVersion>\n"
    "  <device>\n"
    "    <deviceType>urn:schemas-upnp-org:device:clock:1</deviceType>\n"
    "    <friendlyName>Golden Clock</friendlyName>\n"
    "    <manufacturer>INDISS</manufacturer>\n"
    "    <modelDescription>Foreign clock service bridged by INDISS"
    "</modelDescription>\n"
    "    <modelName>clock</modelName>\n"
    "    <UDN>uuid:indiss-1</UDN>\n"
    "    <serviceList>\n"
    "      <service>\n"
    "        <serviceType>urn:schemas-upnp-org:service:clock:1</serviceType>\n"
    "        <serviceId>urn:upnp-org:serviceId:clock</serviceId>\n"
    "        <SCPDURL>/indiss/1/description.xml</SCPDURL>\n"
    "        <controlURL>service:clock:soap://10.0.0.2:4005/golden-clock"
    "</controlURL>\n"
    "        <eventSubURL>service:clock:soap://10.0.0.2:4005/golden-clock"
    "</eventSubURL>\n"
    "      </service>\n"
    "    </serviceList>\n"
    "  </device>\n"
    "</root>\n";

// No friendlyName advertised: the document names the bridged type.
constexpr std::string_view kPrinterDocument =
    "HTTP/1.1 200 OK\r\n"
    "CONTENT-TYPE: text/xml\r\n"
    "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
    "Content-Length: 886\r\n"
    "\r\n"
    "<?xml version=\"1.0\"?>\n"
    "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
    "  <specVersion>\n"
    "    <major>1</major>\n"
    "    <minor>0</minor>\n"
    "  </specVersion>\n"
    "  <device>\n"
    "    <deviceType>urn:schemas-upnp-org:device:printer:1</deviceType>\n"
    "    <friendlyName>INDISS bridged printer</friendlyName>\n"
    "    <manufacturer>INDISS</manufacturer>\n"
    "    <modelDescription>Foreign printer service bridged by INDISS"
    "</modelDescription>\n"
    "    <modelName>printer</modelName>\n"
    "    <UDN>uuid:indiss-2</UDN>\n"
    "    <serviceList>\n"
    "      <service>\n"
    "        <serviceType>urn:schemas-upnp-org:service:printer:1"
    "</serviceType>\n"
    "        <serviceId>urn:upnp-org:serviceId:printer</serviceId>\n"
    "        <SCPDURL>/indiss/2/description.xml</SCPDURL>\n"
    "        <controlURL>service:printer:lpr://10.0.0.4:515/q</controlURL>\n"
    "        <eventSubURL>service:printer:lpr://10.0.0.4:515/q</eventSubURL>\n"
    "      </service>\n"
    "    </serviceList>\n"
    "  </device>\n"
    "</root>\n";

// XML-special characters in the advertised name and URL.
constexpr std::string_view kScannerAlive =
    "NOTIFY * HTTP/1.1\r\n"
    "HOST: 239.255.255.250:1900\r\n"
    "NT: urn:schemas-upnp-org:device:scanner:1\r\n"
    "NTS: ssdp:alive\r\n"
    "USN: uuid:indiss-3::urn:schemas-upnp-org:device:scanner:1\r\n"
    "CACHE-CONTROL: max-age=1800\r\n"
    "LOCATION: http://10.0.0.3:8080/indiss/3/description.xml\r\n"
    "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
    "\r\n";

constexpr std::string_view kScannerTypedSearchResponse =
    "HTTP/1.1 200 OK\r\n"
    "CACHE-CONTROL: max-age=1800\r\n"
    "EXT: \r\n"
    "LOCATION: http://10.0.0.3:8080/indiss/3/description.xml\r\n"
    "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
    "ST: urn:schemas-upnp-org:device:scanner:1\r\n"
    "USN: uuid:indiss-3::urn:schemas-upnp-org:device:scanner:1\r\n"
    "Content-Length: 0\r\n"
    "\r\n";

constexpr std::string_view kScannerDocument =
    "HTTP/1.1 200 OK\r\n"
    "CONTENT-TYPE: text/xml\r\n"
    "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
    "Content-Length: 953\r\n"
    "\r\n"
    "<?xml version=\"1.0\"?>\n"
    "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
    "  <specVersion>\n"
    "    <major>1</major>\n"
    "    <minor>0</minor>\n"
    "  </specVersion>\n"
    "  <device>\n"
    "    <deviceType>urn:schemas-upnp-org:device:scanner:1</deviceType>\n"
    "    <friendlyName>Tom &amp; Jerry&apos;s &quot;scan&quot; &lt;3&gt;"
    "</friendlyName>\n"
    "    <manufacturer>INDISS</manufacturer>\n"
    "    <modelDescription>Foreign scanner service bridged by INDISS"
    "</modelDescription>\n"
    "    <modelName>scanner</modelName>\n"
    "    <UDN>uuid:indiss-3</UDN>\n"
    "    <serviceList>\n"
    "      <service>\n"
    "        <serviceType>urn:schemas-upnp-org:service:scanner:1"
    "</serviceType>\n"
    "        <serviceId>urn:upnp-org:serviceId:scanner</serviceId>\n"
    "        <SCPDURL>/indiss/3/description.xml</SCPDURL>\n"
    "        "
    "<controlURL>service:scanner:http://10.0.0.5:80/a?b=1&amp;c=&lt;2&gt;"
    "</controlURL>\n"
    "        "
    "<eventSubURL>service:scanner:http://10.0.0.5:80/a?b=1&amp;c=&lt;2&gt;"
    "</eventSubURL>\n"
    "      </service>\n"
    "    </serviceList>\n"
    "  </device>\n"
    "</root>\n";

constexpr std::string_view kNotFound =
    "HTTP/1.1 404 Not Found\r\n"
    "Content-Length: 0\r\n"
    "\r\n";

// --- Fixture ----------------------------------------------------------------

struct TestUpnpUnit : UpnpUnit {
  using UpnpUnit::UpnpUnit;
  using UpnpUnit::compose_native_reply;
  using UpnpUnit::expire_bridged_state;
  using UpnpUnit::on_advertisement;
};

/// A peer advertisement (alive or byebye) as deliver_advertisement hands it
/// to the unit.
Session peer_session(std::string_view kind, std::string_view type,
                     std::string_view url, std::string_view friendly_name,
                     std::string_view ttl = "60") {
  Session session;
  session.id = 1;
  session.origin = Session::Origin::kPeer;
  session.set_var("kind", kind);
  session.set_var("service_type", type);
  session.collected.push_back(Event(EventType::kControlStart));
  session.collected.push_back(Event(kind == "byebye"
                                        ? EventType::kServiceByeBye
                                        : EventType::kServiceAlive));
  session.collected.push_back(
      Event(EventType::kServiceTypeIs, {{"type", type}}));
  session.collected.push_back(Event(EventType::kResTtl, {{"seconds", ttl}}));
  if (!friendly_name.empty()) {
    session.collected.push_back(
        Event(EventType::kServiceAttr,
              {{"key", "friendlyName"}, {"value", friendly_name}}));
  }
  session.collected.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  session.collected.push_back(Event(EventType::kControlStop));
  return session;
}

/// A native unicast M-SEARCH from the control point, answered from a
/// translated foreign reply stream.
Session search_session(std::string_view st, std::string_view type,
                       std::string_view url) {
  Session session = peer_session("alive", type, url, "");
  session.origin = Session::Origin::kNative;
  session.set_var("st", st);
  session.set_var("src_addr", "10.0.0.1");
  session.set_var("src_port", "41000");
  session.set_var("src_local", "0");
  session.set_var("net", "unicast");
  return session;
}

struct ImpersonationTest : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& control_point =
      network.add_host("cp", net::IpAddress(10, 0, 0, 1));
  std::vector<std::string> multicast;  // SSDP frames heard on the group
  std::vector<std::string> unicast;    // search responses to the client
  std::shared_ptr<transport::UdpSocket> group_socket;
  std::shared_ptr<transport::UdpSocket> client_socket;

  void SetUp() override {
    group_socket = control_point.open_udp(upnp::kSsdpPort);
    group_socket->join_group(upnp::kSsdpMulticastGroup);
    group_socket->set_receive_handler([this](const net::Datagram& d) {
      multicast.push_back(to_string(d.payload));
    });
    client_socket = control_point.open_udp(41000);
    client_socket->set_receive_handler([this](const net::Datagram& d) {
      unicast.push_back(to_string(d.payload));
    });
  }

  static UpnpUnitConfig config(bool active) {
    UpnpUnitConfig c;
    c.http_port = kHttpPort;
    c.active_advertising = active;
    return c;
  }

  /// Raw bytes the gateway's description server answers for `path`.
  std::string get(const std::string& path) {
    auto socket = control_point.connect_tcp(
        net::Endpoint{gateway.address(), kHttpPort});
    if (socket == nullptr) return "<refused>";
    std::string got;
    socket->set_data_handler([&](BytesView data) { got += to_string(data); });
    socket->send(to_bytes("GET " + path +
                          " HTTP/1.1\r\nHOST: 10.0.0.3:8080\r\n\r\n"));
    scheduler.run_for(sim::millis(100));
    socket->close();
    scheduler.run_for(sim::millis(10));  // the FIN releases both ends
    return got;
  }
};

// --- Wire bytes -------------------------------------------------------------

TEST_F(ImpersonationTest, FramesAndDocumentsMatchGoldens) {
  TestUpnpUnit unit(gateway, config(/*active=*/true));
  Session alive = peer_session("alive", "clock", kClockUrl, "Golden Clock");
  unit.on_advertisement(alive);
  Session search = search_session("ssdp:all", "clock", kClockUrl);
  unit.compose_native_reply(search);
  Session printer = peer_session("alive", "printer", kPrinterUrl, "");
  unit.on_advertisement(printer);
  scheduler.run_for(sim::millis(10));

  ASSERT_EQ(multicast.size(), 2u);
  EXPECT_EQ(multicast[0], kClockAlive);
  EXPECT_EQ(multicast[1], kPrinterAlive);
  ASSERT_EQ(unicast.size(), 1u);
  EXPECT_EQ(unicast[0], kClockSearchResponse);
  EXPECT_EQ(get("/indiss/1/description.xml"), kClockDocument);
  EXPECT_EQ(get("/indiss/2/description.xml"), kPrinterDocument);

  Session scanner = peer_session("alive", "scanner", kScannerUrl,
                                 "Tom & Jerry's \"scan\" <3>");
  unit.on_advertisement(scanner);
  Session typed = search_session("urn:schemas-upnp-org:device:scanner:1",
                                 "scanner", kScannerUrl);
  unit.compose_native_reply(typed);
  scheduler.run_for(sim::millis(10));
  EXPECT_EQ(multicast.back(), kScannerAlive);
  EXPECT_EQ(unicast.back(), kScannerTypedSearchResponse);
  EXPECT_EQ(get("/indiss/3/description.xml"), kScannerDocument);

  Session bye = peer_session("byebye", "clock", kClockUrl, "");
  unit.on_advertisement(bye);
  scheduler.run_for(sim::millis(10));
  EXPECT_EQ(multicast.back(), kClockByeBye);
}

// The context manager's active-mode re-announcement renders the same alive
// frames the first advertisement sent.
TEST_F(ImpersonationTest, AnnounceForeignServicesRepeatsTheAliveFrames) {
  TestUpnpUnit unit(gateway, config(/*active=*/false));
  Session alive = peer_session("alive", "clock", kClockUrl, "Golden Clock");
  unit.on_advertisement(alive);
  scheduler.run_for(sim::millis(10));
  EXPECT_TRUE(multicast.empty()) << "passive mode announces nothing";
  unit.announce_foreign_services();
  scheduler.run_for(sim::millis(10));
  ASSERT_EQ(multicast.size(), 1u);
  EXPECT_EQ(multicast[0], kClockAlive);
}

TEST_F(ImpersonationTest, UnknownAndMalformedDevicePathsAnswer404) {
  TestUpnpUnit unit(gateway, config(/*active=*/false));
  Session alive = peer_session("alive", "clock", kClockUrl, "Golden Clock");
  unit.on_advertisement(alive);
  for (const char* path :
       {"/indiss/99/description.xml", "/indiss/01/description.xml",
        "/indiss/1/description.xmlx", "/indiss/1/", "/indiss/",
        "/indiss/x/description.xml", "/indiss/18446744073709551616/a",
        "/description.xml"}) {
    EXPECT_EQ(get(path), kNotFound) << path;
  }
  EXPECT_EQ(get("/indiss/1/description.xml"), kClockDocument);
}

// --- Withdrawal and expiry --------------------------------------------------

TEST_F(ImpersonationTest, GetAfterByeByeAnswers404) {
  TestUpnpUnit unit(gateway, config(/*active=*/true));
  Session alive = peer_session("alive", "clock", kClockUrl, "Golden Clock");
  unit.on_advertisement(alive);
  scheduler.run_for(sim::millis(10));
  ASSERT_EQ(get("/indiss/1/description.xml"), kClockDocument);

  Session bye = peer_session("byebye", "clock", kClockUrl, "");
  unit.on_advertisement(bye);
  scheduler.run_for(sim::millis(10));
  EXPECT_EQ(unit.impersonated_devices(), 0u);
  EXPECT_EQ(get("/indiss/1/description.xml"), kNotFound);
}

TEST_F(ImpersonationTest, GetAfterTtlExpiryAnswers404) {
  TestUpnpUnit unit(gateway, config(/*active=*/false));
  Session clock = peer_session("alive", "clock", kClockUrl, "Golden Clock",
                               /*ttl=*/"60");
  Session printer = peer_session("alive", "printer", kPrinterUrl, "",
                                 /*ttl=*/"600");
  unit.on_advertisement(clock);
  unit.on_advertisement(printer);
  ASSERT_EQ(get("/indiss/1/description.xml"), kClockDocument);

  // Nothing is due yet: the sweep returns at once.
  EXPECT_EQ(unit.expire_bridged_state(gateway.now()), 0u);
  scheduler.run_for(sim::seconds(61));
  EXPECT_EQ(unit.expire_bridged_state(gateway.now()), 1u);
  EXPECT_EQ(unit.impersonated_devices(), 1u);
  EXPECT_EQ(get("/indiss/1/description.xml"), kNotFound);
  EXPECT_EQ(get("/indiss/2/description.xml"), kPrinterDocument);

  scheduler.run_for(sim::seconds(540));
  EXPECT_EQ(unit.expire_bridged_state(gateway.now()), 1u);
  EXPECT_EQ(unit.impersonated_devices(), 0u);
  EXPECT_EQ(get("/indiss/2/description.xml"), kNotFound);
}

// A refresh re-arms a deadline past the cached earliest one: the sweep that
// comes due at the stale instant removes nothing, and the refreshed device
// still expires on its own deadline.
TEST_F(ImpersonationTest, RefreshOutlivesTheCachedEarliestDeadline) {
  TestUpnpUnit unit(gateway, config(/*active=*/false));
  Session clock = peer_session("alive", "clock", kClockUrl, "", "60");
  unit.on_advertisement(clock);
  scheduler.run_for(sim::seconds(30));
  unit.on_advertisement(clock);  // now due at 90 s
  scheduler.run_for(sim::seconds(31));
  EXPECT_EQ(unit.expire_bridged_state(gateway.now()), 0u);
  EXPECT_EQ(unit.impersonated_devices(), 1u);
  scheduler.run_for(sim::seconds(30));
  EXPECT_EQ(unit.expire_bridged_state(gateway.now()), 1u);
  EXPECT_EQ(unit.impersonated_devices(), 0u);
}

// Churn leaves nothing behind: every withdraw/re-announce cycle serves the
// device under a fresh index, retires the old one, and the route table
// holds the one /indiss/ prefix route throughout.
TEST_F(ImpersonationTest, WithdrawReannounceCyclesStayFlat) {
  TestUpnpUnit unit(gateway, config(/*active=*/true));
  Session alive = peer_session("alive", "clock", kClockUrl, "Golden Clock");
  Session bye = peer_session("byebye", "clock", kClockUrl, "");
  Session printer = peer_session("alive", "printer", kPrinterUrl, "");
  unit.on_advertisement(printer);  // a bystander that stays served
  ASSERT_NE(unit.description_server(), nullptr);
  const std::size_t routes = unit.description_server()->route_count();
  EXPECT_EQ(routes, 1u);

  for (int cycle = 0; cycle < 1000; ++cycle) {
    unit.on_advertisement(alive);
    ASSERT_EQ(unit.impersonated_devices(), 2u);
    unit.on_advertisement(bye);
    ASSERT_EQ(unit.impersonated_devices(), 1u);
    ASSERT_EQ(unit.description_server()->route_count(), routes);
    if (cycle % 128 == 0) scheduler.run_for(sim::millis(10));
  }
  unit.on_advertisement(alive);  // device 1002
  scheduler.run_for(sim::millis(10));
  EXPECT_EQ(unit.impersonated_devices(), 2u);
  EXPECT_EQ(unit.description_server()->route_count(), routes);
  EXPECT_EQ(get("/indiss/1001/description.xml"), kNotFound);
  std::string bystander = get("/indiss/1/description.xml");
  EXPECT_NE(bystander.find("<UDN>uuid:indiss-1</UDN>"), std::string::npos);
  EXPECT_NE(bystander.find("<modelName>printer</modelName>"),
            std::string::npos);
  std::string last = get("/indiss/1002/description.xml");
  EXPECT_NE(last.find("<UDN>uuid:indiss-1002</UDN>"), std::string::npos);
  EXPECT_NE(last.find("<friendlyName>Golden Clock</friendlyName>"),
            std::string::npos);
}

}  // namespace
}  // namespace indiss::core
