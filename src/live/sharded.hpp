// The sharded translation pipeline, threaded form (docs/sharding.md).
//
// The shard set itself — front Monitor, scan-less Indiss shards, routing,
// dispatch counters, merged statistics — is core::shard::ShardedGateway.
// This class adds only the threading. The dispatcher event loop (the
// caller's — indissd's main loop) owns the front transport whose Monitor
// binds the IANA well-known ports. Each shard runs on its own thread with
// its own EventLoop (epoll + timer wheel) and LiveTransport (egress sockets,
// traffic stats, RNG); a routed datagram is offered into the shard's MPSC
// ingress ring and an eventfd write wakes the shard. Shard threads share
// only the OwnEndpoints set and the rings; each shard's egress goes straight
// out its own sockets, so there is no egress funnel to contend on.
//
// Threading contract:
//   - Construction, start(), and stop() happen on the dispatcher thread.
//     All shard-loop fd registrations happen before the thread spawns.
//   - dispatch() runs on the dispatcher thread only.
//   - Cross-thread communication is ring + eventfd, nothing else.
//   - stop() joins the shard threads but leaves their gateways constructed
//     (inert); destruction finishes the teardown. Merged statistics
//     accessors and shard(i) are valid only after stop() — the join is the
//     happens-before edge that makes the shards' plain counters safe to
//     read (docs/sharding.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/shard/ingress_ring.hpp"
#include "core/shard/router.hpp"
#include "core/shard/sharded_gateway.hpp"
#include "live/event_loop.hpp"
#include "live/transport.hpp"

namespace indiss::live {

/// shards, scan_ports and indiss as for the inline form.
struct LiveShardConfig : core::shard::ShardedConfig {
  /// Per-shard ingress ring capacity; overflow drops (never blocks the
  /// dispatcher's receive path).
  std::size_t ring_capacity = 4096;
  /// Template for the front transport and every shard transport. Shard i
  /// gets name "<name>#i" and seed+1+i.
  LiveConfig live;
};

namespace detail {

/// The transports the shard set runs on, built before it (base-from-member):
/// the dispatcher's front transport plus what each shard thread owns.
struct ShardRuntimes {
  struct Runtime {
    Runtime(const LiveConfig& live, std::size_t ring_capacity);
    ~Runtime();

    EventLoop loop;
    LiveTransport transport;
    core::shard::IngressRing<core::shard::IngressItem> ring;
    int wake_fd = -1;
    std::thread thread;
  };

  ShardRuntimes(EventLoop& dispatcher_loop, const LiveShardConfig& config);

  std::unique_ptr<LiveTransport> front_transport_;
  // unique_ptr: the shard set and the shard threads hold their addresses.
  std::vector<std::unique_ptr<Runtime>> runtimes_;
  std::vector<transport::Transport*> shard_hosts_;
};

}  // namespace detail

class LiveShardPool : private detail::ShardRuntimes,
                      public core::shard::ShardedGateway {
 public:
  LiveShardPool(EventLoop& dispatcher_loop, LiveShardConfig config = {});
  ~LiveShardPool() override;

  [[nodiscard]] LiveTransport& front_transport() { return *front_transport_; }

  // --- Cross-thread progress counters (safe while running) -----------------

  /// Ring entries accepted / handed to shards so far, summed. accepted ==
  /// consumed means every queued item has been picked up.
  [[nodiscard]] std::uint64_t ingress_accepted() const {
    return ring_total(&Ring::accepted);
  }
  [[nodiscard]] std::uint64_t ingress_consumed() const {
    return ring_total(&Ring::consumed);
  }
  [[nodiscard]] std::uint64_t ring_dropped() const {
    return ring_total(&Ring::dropped);
  }
  /// Per-shard views of the same counters (the daemon's summary).
  [[nodiscard]] std::uint64_t shard_consumed(std::size_t index) const {
    return runtimes_[index]->ring.consumed();
  }
  [[nodiscard]] std::uint64_t shard_dropped(std::size_t index) const {
    return runtimes_[index]->ring.dropped();
  }

 private:
  using Ring = core::shard::IngressRing<core::shard::IngressItem>;

  void deliver(std::size_t index, core::SdpId sdp,
               const net::Datagram& datagram) override;
  void start_delivery() override;
  void stop_delivery() override;

  std::uint64_t ring_total(std::uint64_t (Ring::*counter)() const) const;
};

}  // namespace indiss::live
