// UDP socket on the simulated network: bind, join/leave multicast groups,
// send, and a receive callback. INDISS's monitor component is built on
// exactly this interface — "subscription and listening are solely IP
// features" (paper §2.1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "transport/transport.hpp"

namespace indiss::net {

class Host;
class Network;

class UdpSocket : public transport::UdpSocket {
 public:
  using ReceiveHandler = transport::UdpSocket::ReceiveHandler;

  UdpSocket(Host& host, std::uint16_t port);
  ~UdpSocket() override;

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  [[nodiscard]] Host& host() { return host_; }
  [[nodiscard]] const Host& host() const { return host_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Endpoint local_endpoint() const override;
  [[nodiscard]] const std::set<IpAddress>& groups() const { return groups_; }

  void join_group(IpAddress group) override;
  void leave_group(IpAddress group) override;

  void send_to(const Endpoint& to, Bytes payload) override;

  /// At most one handler; replacing is allowed (e.g. a unit re-wiring its
  /// socket on SDP_C_SOCKET_SWITCH).
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

  void close() override;
  [[nodiscard]] bool closed() const override { return closed_; }

  /// Called by the Network when a datagram reaches this socket.
  void deliver(const Datagram& datagram);

  /// Liveness flag shared with in-flight deliveries so a datagram scheduled
  /// before close() is dropped instead of dereferencing a dead socket.
  [[nodiscard]] std::shared_ptr<bool> liveness() const { return alive_; }

 private:
  void drop_handler();

  Host& host_;
  std::uint16_t port_;
  std::uint64_t id_;
  std::set<IpAddress> groups_;
  ReceiveHandler handler_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool closed_ = false;
  bool dispatching_ = false;
};

}  // namespace indiss::net
