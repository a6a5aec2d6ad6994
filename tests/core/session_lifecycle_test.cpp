// Session lifecycle (docs/events.md): a session lives exactly as long as its
// transaction. A completed session retires once the task that completed it
// returns — it stays findable while FSM actions and the entry task still
// hold it — its timeout timer is cancelled, and its object is recycled. A
// transaction that never completes (a search nobody answers) keeps its
// session and client socket until session_timeout, then closes exactly once.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/event_bus.hpp"
#include "core/unit.hpp"
#include "core/units/slp_unit.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"

namespace indiss::core {
namespace {

SharedStream advert_stream() {
  auto stream = std::make_shared<EventStream>();
  stream->push_back(Event(EventType::kControlStart));
  stream->push_back(Event(EventType::kServiceAlive));
  stream->push_back(Event(EventType::kControlStop));
  return stream;
}

// A unit whose FSM completes a session on SDP_C_STOP and, in the same
// transition, records what it can still see of the session it completed.
struct LifecycleUnit : Unit {
  explicit LifecycleUnit(net::Host& host, UnitOptions options = {})
      : Unit(SdpId::kSlp, host, options) {
    fsm_.add_tuple(fsm_.start(), EventType::kControlStop, any(), "done",
                   {Unit::complete(),
                    [](Unit& unit, const Event&, Session& session) {
                      auto& self = static_cast<LifecycleUnit&>(unit);
                      Session* found = self.find_session(session.id);
                      self.findable_after_complete =
                          found == &session && found->done;
                    }});
  }

  Session& open() { return open_session(Session::Origin::kPeer); }
  void finish(Session& session) {
    feed_event(session, Event(EventType::kControlStart));
    feed_event(session, Event(EventType::kControlStop));
  }

  void compose_native_request(Session&) override {}
  void compose_native_reply(Session&) override {}
  void on_session_complete(Session&) override { completions += 1; }

  bool findable_after_complete = false;
  int completions = 0;
};

struct LifecycleFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 1};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 1));
};

TEST_F(LifecycleFixture, CompletedSessionRetiresWhenItsTaskReturns) {
  EventBus bus;
  LifecycleUnit origin(gateway);
  LifecycleUnit unit(gateway);
  bus.subscribe(origin);
  bus.subscribe(unit);

  // Delivery runs as a unit entry task; the session completes inside it.
  bus.publish(origin, 1, advert_stream());
  scheduler.run_for(sim::millis(1));

  EXPECT_TRUE(unit.findable_after_complete)
      << "a session must stay findable while its task still runs";
  EXPECT_EQ(unit.stats().sessions_completed, 1u);
  EXPECT_EQ(unit.open_sessions(), 0u);
  EXPECT_EQ(unit.find_session(1), nullptr) << "retired once the task returned";

  // The cancelled timeout never fires: on_session_complete ran exactly once.
  scheduler.run_for(unit.options().session_timeout + sim::seconds(1));
  EXPECT_EQ(unit.completions, 1);
}

TEST_F(LifecycleFixture, IdsStayMonotonicWhileSessionObjectsAreRecycled) {
  LifecycleUnit unit(gateway);
  Session& first = unit.open();
  const Session* first_address = &first;
  EXPECT_EQ(first.id, 1u);
  unit.finish(first);

  Session& second = unit.open();  // retires the first, reuses its object
  EXPECT_EQ(second.id, 2u);
  EXPECT_EQ(&second, first_address);
  EXPECT_FALSE(second.done);
  EXPECT_TRUE(second.collected.empty());
  EXPECT_EQ(unit.find_session(1), nullptr);
  EXPECT_EQ(unit.find_session(2), &second);
}

// max_open_sessions bounds in-flight sessions only: completed transactions
// retire at once and never push a live one out.
TEST_F(LifecycleFixture, CompletedSessionsNeverCountAgainstTheCap) {
  UnitOptions options;
  options.max_open_sessions = 2;
  LifecycleUnit unit(gateway, options);
  for (int i = 0; i < 8; ++i) unit.finish(unit.open());
  Session& pending_a = unit.open();
  Session& pending_b = unit.open();
  EXPECT_EQ(unit.stats().sessions_evicted, 0u);
  EXPECT_EQ(unit.open_sessions(), 2u);
  EXPECT_EQ(unit.find_session(pending_a.id), &pending_a);
  EXPECT_EQ(unit.find_session(pending_b.id), &pending_b);

  unit.open();  // a third in-flight session evicts the oldest
  EXPECT_EQ(unit.stats().sessions_evicted, 1u);
  EXPECT_EQ(unit.open_sessions(), 2u);
}

struct CountingSlpUnit : SlpUnit {
  using SlpUnit::SlpUnit;
  void on_session_complete(Session& session) override {
    completions += 1;
    SlpUnit::on_session_complete(session);  // closes the client socket
  }
  int completions = 0;
};

// A foreign request the SLP unit bridges as a multicast SrvRqst that no SLP
// agent answers: the transaction never completes.
TEST_F(LifecycleFixture, UnansweredSearchHoldsItsSessionUntilTheTimeout) {
  // Where the unit's SrvRqst comes from: its per-session client socket.
  auto agent = client.udp_socket(slp::kSlpPort);
  agent->join_group(slp::kSlpMulticastGroup);
  std::optional<net::Endpoint> client_socket;
  agent->set_receive_handler(
      [&](const net::Datagram& d) { client_socket = d.source; });

  EventBus bus;
  LifecycleUnit origin(gateway);
  CountingSlpUnit slp(gateway);
  bus.subscribe(origin);
  bus.subscribe(slp);

  auto request = std::make_shared<EventStream>();
  request->push_back(Event(EventType::kControlStart));
  request->push_back(Event(EventType::kServiceRequest));
  request->push_back(Event(EventType::kServiceTypeIs, {{"type", "nobody"}}));
  request->push_back(Event(EventType::kControlStop));
  bus.publish(origin, 1, request);

  const auto timeout = slp.options().session_timeout;
  scheduler.run_for(timeout / 2);
  ASSERT_TRUE(client_socket.has_value()) << "the unit must have searched";
  EXPECT_EQ(slp.open_sessions(), 1u) << "an unanswered search stays open";
  EXPECT_EQ(slp.completions, 0);

  scheduler.run_for(timeout);
  EXPECT_EQ(slp.open_sessions(), 0u);
  EXPECT_EQ(slp.completions, 1) << "closed by the timeout, exactly once";
  EXPECT_EQ(slp.stats().sessions_completed, 0u);

  // The client socket closed with the session: nothing is delivered to it.
  const std::uint64_t delivered = network.stats().udp_deliveries;
  auto late = client.udp_socket(0);
  late->send_to(*client_socket, Bytes{0x02});
  scheduler.run_for(sim::millis(10));
  EXPECT_EQ(network.stats().udp_deliveries, delivered);

  scheduler.run_for(timeout * 2);
  EXPECT_EQ(slp.completions, 1);
}

}  // namespace
}  // namespace indiss::core
