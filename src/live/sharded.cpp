#include "live/sharded.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <utility>

namespace indiss::live {
namespace detail {

ShardRuntimes::Runtime::Runtime(const LiveConfig& live,
                                std::size_t ring_capacity)
    : transport(loop, live),
      ring(ring_capacity),
      wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

ShardRuntimes::Runtime::~Runtime() {
  if (wake_fd >= 0) ::close(wake_fd);
}

ShardRuntimes::ShardRuntimes(EventLoop& dispatcher_loop,
                             const LiveShardConfig& config) {
  LiveConfig front_config = config.live;
  front_config.name += "-front";
  front_transport_ =
      std::make_unique<LiveTransport>(dispatcher_loop, front_config);
  for (std::size_t i = 0; i < std::max<std::size_t>(config.shards, 1); ++i) {
    LiveConfig shard_transport = config.live;
    shard_transport.name += "#" + std::to_string(i);
    shard_transport.seed = config.live.seed + 1 + i;
    runtimes_.push_back(
        std::make_unique<Runtime>(shard_transport, config.ring_capacity));
    shard_hosts_.push_back(&runtimes_.back()->transport);
  }
}

}  // namespace detail

LiveShardPool::LiveShardPool(EventLoop& dispatcher_loop,
                             LiveShardConfig config)
    : ShardRuntimes(dispatcher_loop, config),
      ShardedGateway(*front_transport_, shard_hosts_, std::move(config)) {}

LiveShardPool::~LiveShardPool() { stop(); }

// Everything a shard thread will touch is wired here, on the dispatcher
// thread, before that thread exists: the shard's Indiss has started (its
// unit sockets registered with the shard loop and the shared own-endpoint
// set), and the wakeup handler is the thread's only entry point for work.
void LiveShardPool::start_delivery() {
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    Runtime* rt = runtimes_[i].get();
    core::Indiss* indiss = &shard(i);
    rt->loop.watch(rt->wake_fd, EPOLLIN, [rt, indiss](std::uint32_t) {
      eventfd_t count = 0;
      eventfd_read(rt->wake_fd, &count);
      core::shard::IngressItem item;
      while (rt->ring.poll(item)) indiss->ingest(item.sdp, item.datagram);
    });
    rt->thread = std::thread([rt]() { rt->loop.run(); });
  }
}

// stop() is cross-thread safe (atomic flag); the eventfd write pops the loop
// out of epoll_wait so it notices promptly. join() is the happens-before
// edge that makes every shard counter readable from here. The shards'
// Indiss instances stay constructed (their loops are dead, so they are
// inert) — tearing them down here would destroy the unit registries and
// with them the statistics the caller is about to merge.
void LiveShardPool::stop_delivery() {
  for (auto& rt : runtimes_) {
    rt->loop.stop();
    eventfd_write(rt->wake_fd, 1);
  }
  for (auto& rt : runtimes_) {
    if (rt->thread.joinable()) rt->thread.join();
    rt->loop.unwatch(rt->wake_fd);
  }
}

void LiveShardPool::deliver(std::size_t index, core::SdpId sdp,
                            const net::Datagram& datagram) {
  Runtime& rt = *runtimes_[index];
  if (rt.ring.offer(core::shard::IngressItem{sdp, datagram})) {
    eventfd_write(rt.wake_fd, 1);
  }
}

std::uint64_t LiveShardPool::ring_total(
    std::uint64_t (Ring::*counter)() const) const {
  std::uint64_t total = 0;
  for (const auto& rt : runtimes_) total += (rt->ring.*counter)();
  return total;
}

}  // namespace indiss::live
