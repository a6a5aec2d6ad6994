#include "net/udp.hpp"

#include "net/host.hpp"
#include "net/network.hpp"

namespace indiss::net {

UdpSocket::UdpSocket(Host& host, std::uint16_t port)
    : host_(host),
      port_(port == 0 ? host.next_ephemeral_port() : port),
      id_(host.network().allocate_socket_id()) {
  host_.network().udp_register(this);
}

UdpSocket::~UdpSocket() { close(); }

Endpoint UdpSocket::local_endpoint() const {
  return Endpoint{host_.address(), port_};
}

void UdpSocket::join_group(IpAddress group) {
  if (closed_ || !group.is_multicast()) return;
  if (groups_.insert(group).second) {
    host_.network().udp_join_group(this, group);
  }
}

void UdpSocket::leave_group(IpAddress group) {
  if (groups_.erase(group) > 0) {
    host_.network().udp_leave_group(this, group);
  }
}

void UdpSocket::send_to(const Endpoint& to, Bytes payload) {
  if (closed_) return;
  host_.network().udp_send(*this, to, std::move(payload));
}

void UdpSocket::close() {
  if (closed_) return;
  closed_ = true;
  *alive_ = false;
  for (IpAddress group : groups_) {
    host_.network().udp_leave_group(this, group);
  }
  groups_.clear();
  host_.network().udp_unregister(this);
  if (!dispatching_) drop_handler();
}

// A closed socket drops its handler, whose captures may own this socket.
// The handler is destroyed last: it may hold the final reference.
void UdpSocket::drop_handler() {
  ReceiveHandler dropped;
  dropped.swap(handler_);
}

void UdpSocket::deliver(const Datagram& datagram) {
  if (closed_ || !handler_) return;
  // The handler may close this socket; close() then leaves the running
  // handler alone and it is dropped here.
  dispatching_ = true;
  handler_(datagram);
  dispatching_ = false;
  if (closed_) drop_handler();
}

}  // namespace indiss::net
