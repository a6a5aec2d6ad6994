// The generator's socket layer: plain BSD sockets on 127.0.0.1/lo plus one
// epoll set, independent of the gateway's live backend so that the
// generator's per-request cost does not move when src/live changes.
#pragma once

#include <netinet/in.h>
#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// 127.0.0.1 in host byte order.
inline constexpr std::uint32_t kLoopback = 0x7F000001u;

/// Host-order IPv4 for dotted a.b.c.d.
constexpr std::uint32_t ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                             std::uint8_t d) {
  return (std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
         (std::uint32_t{c} << 8) | std::uint32_t{d};
}
inline constexpr std::uint32_t kSlpGroup = ipv4(239, 255, 255, 253);
inline constexpr std::uint32_t kSsdpGroup = ipv4(239, 255, 255, 250);
inline constexpr std::uint32_t kMdnsGroup = ipv4(224, 0, 0, 251);
inline constexpr std::uint16_t kSlpPort = 427;
inline constexpr std::uint16_t kSsdpPort = 1900;
inline constexpr std::uint16_t kMdnsPort = 5353;

/// A non-blocking UDP socket bound to INADDR_ANY:`port` (0 = ephemeral,
/// never shared with another socket; well-known ports are shared),
/// multicast egress pinned to lo with loopback on, joined to `group` when
/// nonzero. Throws std::runtime_error on failure.
int open_udp(std::uint16_t port, std::uint32_t group = 0);
/// The bound local port of a socket.
std::uint16_t local_port(int fd);
/// One sendto; returns false when the kernel refused it.
bool send_udp(int fd, std::uint32_t ip, std::uint16_t port, const void* data,
              std::size_t len);

/// Non-blocking connect to 127.0.0.1:`port`; -1 on immediate failure.
int tcp_connect(std::uint16_t port);
/// Closes with an RST (SO_LINGER 0) so the generator's client side leaves
/// no TIME_WAIT entries behind at high connection rates.
void close_abortive(int fd);

/// epoll with a nanosecond timeout (epoll_pwait2).
class Poller {
 public:
  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, std::uint32_t events, std::uint64_t tag);
  void modify(int fd, std::uint32_t events, std::uint64_t tag);
  void remove(int fd);
  /// Waits up to `timeout_ns` (0 = poll) and returns the ready events.
  int wait(std::int64_t timeout_ns);
  [[nodiscard]] const epoll_event& event(int i) const { return events_[i]; }

 private:
  int fd_ = -1;
  std::vector<epoll_event> events_;
};

/// Raises the open-file limit to its hard maximum (the gateway accepts a
/// TCP connection per UPnP description GET).
void raise_fd_limit();

}  // namespace perfbench
