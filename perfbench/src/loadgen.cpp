#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <net/if.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl");
  }
}

sockaddr_in make_addr(std::uint32_t ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ip);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

int open_udp(std::uint16_t port, std::uint32_t group) {
  int fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket");
  if (port != 0) {
    // Well-known ports are shared with the gateway's monitor. Ephemeral
    // sockets stay exclusive: with SO_REUSEADDR a bind to port 0 may be
    // handed a port another socket already holds.
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }
  int rcvbuf = 4 << 20;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr = make_addr(INADDR_ANY, port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    fail("bind");
  }
  ip_mreqn egress{};
  egress.imr_address.s_addr = htonl(kLoopback);
  egress.imr_ifindex = static_cast<int>(if_nametoindex("lo"));
  setsockopt(fd, IPPROTO_IP, IP_MULTICAST_IF, &egress, sizeof(egress));
  unsigned char loop = 1;
  setsockopt(fd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop));
  unsigned char ttl = 1;
  setsockopt(fd, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl));
  if (group != 0) {
    ip_mreqn join{};
    join.imr_multiaddr.s_addr = htonl(group);
    join.imr_address.s_addr = htonl(kLoopback);
    join.imr_ifindex = egress.imr_ifindex;
    if (setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &join, sizeof(join)) <
        0) {
      close(fd);
      fail("IP_ADD_MEMBERSHIP");
    }
  }
  set_nonblocking(fd);
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail("getsockname");
  }
  return ntohs(addr.sin_port);
}

bool send_udp(int fd, std::uint32_t ip, std::uint16_t port, const void* data,
              std::size_t len) {
  sockaddr_in to = make_addr(ip, port);
  return sendto(fd, data, len, 0, reinterpret_cast<sockaddr*>(&to),
                sizeof(to)) == static_cast<ssize_t>(len);
}

int tcp_connect(std::uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = make_addr(kLoopback, port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    close(fd);
    return -1;
  }
  return fd;
}

void close_abortive(int fd) {
  linger lin{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  close(fd);
}

Poller::Poller() : events_(256) {
  fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (fd_ < 0) fail("epoll_create1");
}

Poller::~Poller() {
  if (fd_ >= 0) close(fd_);
}

void Poller::add(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) < 0) fail("epoll_ctl add");
}

void Poller::modify(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev) < 0) fail("epoll_ctl mod");
}

void Poller::remove(int fd) { epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr); }

int Poller::wait(std::int64_t timeout_ns) {
  if (timeout_ns < 0) timeout_ns = 0;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  int n = epoll_pwait2(fd_, events_.data(), static_cast<int>(events_.size()),
                       &ts, nullptr);
  if (n < 0) {
    if (errno == EINTR) return 0;
    fail("epoll_pwait2");
  }
  return n;
}

void raise_fd_limit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 && limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

}  // namespace perfbench
