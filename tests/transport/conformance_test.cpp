// Transport-conformance suite: the contract both backends must satisfy
// (transport/transport.hpp), run against the simulated LAN and the live
// epoll backend over loopback. Anything the units rely on — ephemeral
// binds, multicast join/fan-out, self-loop suppression, timer handle
// semantics, synchronous ECONNREFUSED — is pinned here so the two backends
// cannot drift apart.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "live/event_loop.hpp"
#include "live/transport.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "transport/transport.hpp"

namespace indiss {
namespace {

Bytes payload_of(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

/// One node under test plus the way to make its time pass. The sim backend
/// advances virtual time; the live backend burns real wall-clock (the suite
/// keeps windows in the tens of milliseconds).
class Backend {
 public:
  virtual ~Backend() = default;
  virtual transport::Transport& node() = 0;
  virtual void run_for(transport::Duration d) = 0;
};

class SimBackend : public Backend {
 public:
  SimBackend()
      : network_(scheduler_),
        host_(network_.add_host("node", net::IpAddress(10, 0, 0, 1))) {}
  transport::Transport& node() override { return host_; }
  void run_for(transport::Duration d) override { scheduler_.run_for(d); }

 private:
  sim::Scheduler scheduler_;
  net::Network network_;
  net::Host& host_;
};

class LiveBackend : public Backend {
 public:
  LiveBackend() : transport_(loop_) {}
  transport::Transport& node() override { return transport_; }
  void run_for(transport::Duration d) override { loop_.run_for(d); }

 private:
  live::EventLoop loop_;
  live::LiveTransport transport_;
};

class ConformanceTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string_view(GetParam()) == "sim") {
      backend_ = std::make_unique<SimBackend>();
    } else {
      backend_ = std::make_unique<LiveBackend>();
    }
  }

  transport::Transport& node() { return backend_->node(); }
  void run_for(transport::Duration d) { backend_->run_for(d); }

  std::unique_ptr<Backend> backend_;
};

// Ephemeral binds are exclusive: among many sockets held at once no port is
// handed out twice, so a reply to one bridged request can never reach the
// socket of another.
TEST_P(ConformanceTest, EphemeralUdpBindsDistinctNonzeroPorts) {
  constexpr int kSockets = 256;
  std::vector<std::shared_ptr<transport::UdpSocket>> sockets;
  std::vector<int> received(kSockets, 0);
  std::set<std::uint16_t> ports;
  for (int i = 0; i < kSockets; ++i) {
    auto socket = node().open_udp(0);
    EXPECT_NE(socket->local_endpoint().port, 0);
    EXPECT_EQ(socket->local_endpoint().address, node().address());
    ports.insert(socket->local_endpoint().port);
    socket->set_receive_handler(
        [&received, i](const net::Datagram&) { received[i] += 1; });
    sockets.push_back(std::move(socket));
  }
  EXPECT_EQ(ports.size(), static_cast<std::size_t>(kSockets))
      << "an ephemeral port was bound twice";

  const int target = kSockets / 2;
  auto sender = node().open_udp(0);
  sender->send_to(sockets[target]->local_endpoint(), payload_of("reply"));
  run_for(transport::millis(50));
  for (int i = 0; i < kSockets; ++i) {
    EXPECT_EQ(received[i], i == target ? 1 : 0) << "socket " << i;
  }

  EXPECT_FALSE(sockets[0]->closed());
  sockets[0]->close();
  EXPECT_TRUE(sockets[0]->closed());
}

TEST_P(ConformanceTest, UdpUnicastDeliversOnNode) {
  auto a = node().open_udp(0);
  auto b = node().open_udp(0);
  std::vector<net::Datagram> got;
  b->set_receive_handler(
      [&](const net::Datagram& d) { got.push_back(d); });

  a->send_to(b->local_endpoint(), payload_of("hello"));
  run_for(transport::millis(50));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].source, a->local_endpoint());
  EXPECT_FALSE(got[0].multicast);
  EXPECT_EQ(got[0].payload, payload_of("hello"));
}

TEST_P(ConformanceTest, MulticastJoinFansOutToEveryMemberButNotSender) {
  const net::IpAddress group(239, 255, 77, 77);
  const std::uint16_t port = 45454;

  auto r1 = node().open_udp(port);
  r1->join_group(group);
  auto r2 = node().open_udp(port);
  r2->join_group(group);
  auto sender = node().open_udp(0);

  std::vector<net::Datagram> got1;
  std::vector<net::Datagram> got2;
  r1->set_receive_handler([&](const net::Datagram& d) { got1.push_back(d); });
  r2->set_receive_handler([&](const net::Datagram& d) { got2.push_back(d); });

  sender->send_to(net::Endpoint{group, port}, payload_of("announce"));
  run_for(transport::millis(50));

  ASSERT_EQ(got1.size(), 1u);
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_TRUE(got1[0].multicast);
  EXPECT_EQ(got1[0].destination, (net::Endpoint{group, port}));
  EXPECT_EQ(got1[0].source, sender->local_endpoint());
  EXPECT_EQ(got2[0].payload, payload_of("announce"));

  // After leaving, group traffic stops arriving.
  r2->leave_group(group);
  sender->send_to(net::Endpoint{group, port}, payload_of("again"));
  run_for(transport::millis(50));
  EXPECT_EQ(got1.size(), 2u);
  EXPECT_EQ(got2.size(), 1u);
}

TEST_P(ConformanceTest, MulticastSendNeverLoopsBackToSender) {
  const net::IpAddress group(239, 255, 77, 78);
  const std::uint16_t port = 45455;

  auto socket = node().open_udp(port);
  socket->join_group(group);
  std::vector<net::Datagram> got;
  socket->set_receive_handler(
      [&](const net::Datagram& d) { got.push_back(d); });

  socket->send_to(net::Endpoint{group, port}, payload_of("self"));
  run_for(transport::millis(50));

  EXPECT_TRUE(got.empty());
}

TEST_P(ConformanceTest, OneShotTimersFireInDeadlineOrder) {
  std::vector<int> order;
  auto late = node().schedule(transport::millis(20), [&]() {
    order.push_back(2);
  });
  auto early = node().schedule(transport::millis(5), [&]() {
    order.push_back(1);
  });
  EXPECT_TRUE(late.pending());
  EXPECT_TRUE(early.pending());

  run_for(transport::millis(60));

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  // Fired handles go inert: not pending, and cancel() is a no-op.
  EXPECT_FALSE(late.pending());
  late.cancel();
}

TEST_P(ConformanceTest, CancelledTimerNeverFires) {
  int fired = 0;
  auto handle = node().schedule(transport::millis(10), [&]() { fired += 1; });
  handle.cancel();
  EXPECT_FALSE(handle.pending());

  run_for(transport::millis(40));
  EXPECT_EQ(fired, 0);
}

TEST_P(ConformanceTest, PeriodicTimerRepeatsUntilCancelled) {
  int ticks = 0;
  auto handle =
      node().schedule_periodic(transport::millis(10), [&]() { ticks += 1; });

  run_for(transport::millis(35));
  EXPECT_GE(ticks, 2);
  EXPECT_LE(ticks, 4);

  handle.cancel();
  int at_cancel = ticks;
  run_for(transport::millis(30));
  EXPECT_EQ(ticks, at_cancel);
}

TEST_P(ConformanceTest, ConnectToClosedPortReturnsNull) {
  auto listener = node().listen_tcp(0);
  std::uint16_t port = listener->port();
  ASSERT_NE(port, 0);
  listener->close();
  run_for(transport::millis(10));

  auto socket = node().connect_tcp(net::Endpoint{node().address(), port});
  EXPECT_EQ(socket, nullptr);
}

TEST_P(ConformanceTest, TcpRoundTripAndCloseNotification) {
  auto listener = node().listen_tcp(0);
  std::shared_ptr<transport::TcpSocket> server;
  listener->set_accept_handler(
      [&](std::shared_ptr<transport::TcpSocket> socket) {
        server = std::move(socket);
      });

  auto client =
      node().connect_tcp(net::Endpoint{node().address(), listener->port()});
  ASSERT_NE(client, nullptr);
  run_for(transport::millis(50));
  ASSERT_NE(server, nullptr);

  Bytes server_got;
  bool server_closed = false;
  server->set_data_handler([&](BytesView data) {
    server_got.insert(server_got.end(), data.begin(), data.end());
  });
  server->set_close_handler([&]() { server_closed = true; });
  Bytes client_got;
  client->set_data_handler([&](BytesView data) {
    client_got.insert(client_got.end(), data.begin(), data.end());
  });

  client->send(payload_of("ping"));
  run_for(transport::millis(50));
  EXPECT_EQ(server_got, payload_of("ping"));

  server->send(payload_of("pong"));
  run_for(transport::millis(50));
  EXPECT_EQ(client_got, payload_of("pong"));

  client->close();
  run_for(transport::millis(50));
  EXPECT_TRUE(server_closed);
  EXPECT_FALSE(client->open());
}

// A receive handler may close its own socket; the backend must neither run
// it again nor destroy it while it runs (live drops it once it returns).
TEST_P(ConformanceTest, UdpHandlerMayCloseItsOwnSocket) {
  auto socket = node().open_udp(0);
  int received = 0;
  socket->set_receive_handler(
      [&received, raw = socket.get()](const net::Datagram&) {
        received += 1;
        raw->close();
      });
  auto sender = node().open_udp(0);
  sender->send_to(socket->local_endpoint(), payload_of("first"));
  sender->send_to(socket->local_endpoint(), payload_of("second"));
  run_for(transport::millis(50));
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(socket->closed());
}

// Handlers that capture their own socket, as the UPnP HTTP server's
// connections do, must not keep it alive once it closes — whether it closes
// itself from inside its data handler or the peer hangs up. The ASan job
// leak-checks this case.
TEST_P(ConformanceTest, TcpHandlersCapturingTheirSocketAreReleasedOnClose) {
  auto listener = node().listen_tcp(0);
  std::vector<std::weak_ptr<transport::TcpSocket>> accepted;
  listener->set_accept_handler(
      [&](std::shared_ptr<transport::TcpSocket> socket) {
        accepted.push_back(socket);
        socket->set_data_handler([socket](BytesView data) {
          if (Bytes(data.begin(), data.end()) == payload_of("bye")) {
            socket->close();
          }
        });
        socket->set_close_handler([socket]() {});
      });
  const net::Endpoint server{node().address(), listener->port()};

  auto server_closes = node().connect_tcp(server);
  auto client_closes = node().connect_tcp(server);
  ASSERT_NE(server_closes, nullptr);
  ASSERT_NE(client_closes, nullptr);
  run_for(transport::millis(50));
  ASSERT_EQ(accepted.size(), 2u);
  for (const auto& socket : accepted) EXPECT_FALSE(socket.expired());

  server_closes->send(payload_of("bye"));
  client_closes->close();
  run_for(transport::millis(50));
  for (const auto& socket : accepted) {
    EXPECT_TRUE(socket.expired()) << "closed socket kept alive by its handler";
  }
}

// The UDP twin: a receive handler that captures its own socket must not
// keep it alive once it closes — whether it closes itself from inside the
// handler or its owner closes it.
TEST_P(ConformanceTest, UdpHandlersCapturingTheirSocketAreReleasedOnClose) {
  auto closes_itself = node().open_udp(0);
  closes_itself->set_receive_handler(
      [socket = closes_itself](const net::Datagram&) { socket->close(); });
  auto owner_closes = node().open_udp(0);
  owner_closes->set_receive_handler(
      [socket = owner_closes](const net::Datagram&) {});
  const net::Endpoint target = closes_itself->local_endpoint();
  std::weak_ptr<transport::UdpSocket> self_closed = closes_itself;
  std::weak_ptr<transport::UdpSocket> owner_closed = owner_closes;
  closes_itself.reset();
  owner_closes->close();
  owner_closes.reset();
  EXPECT_TRUE(owner_closed.expired())
      << "closed socket kept alive by its handler";
  ASSERT_FALSE(self_closed.expired());  // open: its handler holds it

  auto sender = node().open_udp(0);
  sender->send_to(target, payload_of("bye"));
  run_for(transport::millis(50));
  EXPECT_TRUE(self_closed.expired())
      << "closed socket kept alive by its handler";
}

TEST_P(ConformanceTest, TimeAdvancesAcrossRun) {
  transport::TimePoint before = node().now();
  run_for(transport::millis(20));
  EXPECT_GE(node().now() - before, transport::millis(20));
}

INSTANTIATE_TEST_SUITE_P(Backends, ConformanceTest,
                         ::testing::Values("sim", "live"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace indiss
