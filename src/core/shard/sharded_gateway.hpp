// The sharded translation pipeline's shard set (docs/sharding.md).
//
// One front-end Monitor scans the IANA correspondence table and carries the
// node's ingress defenses, so a flooding source is rate-limited once, before
// its datagrams fan out. Its detection handler classifies each datagram
// (core/shard/router.hpp) and routes it to one shard (advertisements, by
// wire hash) or to every shard (control traffic). Each shard is a full
// scan-less Indiss instance — its own unit set, EventBus, sessions, and
// TranslationCache — sharing only the internally-synchronized OwnEndpoints
// loop-filter set.
//
// Constructed directly, this is the deterministic single-threaded form:
// every shard runs on the caller's transport and a routed datagram is
// ingested inline, in shard order, so against the sim transport every
// tier-1 test stays reproducible — same arrival order, same scheduler
// interleaving, no threads. The threaded form (live::LiveShardPool) derives
// from it and changes only where each shard's transport comes from and how
// a routed datagram reaches its shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/indiss.hpp"
#include "core/monitor.hpp"
#include "core/shard/router.hpp"
#include "core/translation_cache.hpp"
#include "core/types.hpp"
#include "core/unit.hpp"
#include "transport/transport.hpp"

namespace indiss::core::shard {

struct ShardedConfig {
  std::size_t shards = 2;
  /// When false the front monitor binds nothing and callers feed traffic
  /// through dispatch() directly (tests, benches).
  bool scan_ports = true;
  /// Template for every shard instance (enabled_sdps, unit options, cache
  /// config). Its monitor config goes to the front monitor; each shard's
  /// scan_ports/own_endpoints/monitor fields are overwritten.
  IndissConfig indiss;
};

class ShardedGateway {
 public:
  explicit ShardedGateway(transport::Transport& transport,
                          ShardedConfig config = {});
  virtual ~ShardedGateway();

  ShardedGateway(const ShardedGateway&) = delete;
  ShardedGateway& operator=(const ShardedGateway&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Routes one datagram: hash-routed to its owning shard, or replicated to
  /// every shard for control traffic.
  void dispatch(SdpId sdp, const net::Datagram& datagram);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Where a wire would hash-route (stability tests, benches).
  [[nodiscard]] std::size_t shard_for(BytesView wire) const {
    return shard::shard_for(wire, shards_.size());
  }
  /// A shard's gateway. In the threaded form only safe to touch while its
  /// thread is quiesced (before start() or after stop()).
  [[nodiscard]] Indiss& shard(std::size_t index) { return *shards_[index]; }
  /// The scanning/dispatching monitor (detections, datagrams_seen).
  [[nodiscard]] Monitor& front_monitor() { return *front_monitor_; }

  /// One active probe sweep on every shard; state gating keeps each
  /// service's re-advertisement single. Threaded form: only while quiesced.
  void trigger_active_probe() {
    for (auto& shard : shards_) shard->trigger_active_probe();
  }

  // --- Merged (read-time) statistics ---------------------------------------
  //
  // Per-shard counters are plain members owned by the shard's scheduler
  // thread; these accessors sum them at read time without locks. Valid from
  // the dispatching thread in the inline form; in the threaded form only
  // once the shard threads are quiesced (docs/sharding.md). Both forms keep
  // them readable after stop(): the threaded form leaves its joined shards
  // inert, the inline form stops its shards, which keep their units' final
  // counters.

  [[nodiscard]] Unit::Stats unit_stats(SdpId sdp) const {
    return merged([sdp](Indiss& shard) { return shard.unit_stats(sdp); });
  }
  [[nodiscard]] TranslationCache::SdpStats translation_stats(SdpId sdp) const {
    return merged([sdp](Indiss& shard) {
      return shard.monitor().translation_stats(sdp);
    });
  }
  /// Adverts land in their hash-owning shard's directory, so the sum is the
  /// gateway-wide answered-vs-bridged picture (docs/directory.md).
  [[nodiscard]] ServiceDirectory::SdpStats directory_stats(SdpId sdp) const {
    return merged([sdp](Indiss& shard) {
      return shard.monitor().directory_stats(sdp);
    });
  }
  [[nodiscard]] mdns::ProbeStats probe_stats() const {
    return merged([](Indiss& shard) { return shard.probe_stats(); });
  }
  /// Datagrams routed (each broadcast counts once).
  [[nodiscard]] std::uint64_t datagrams_dispatched() const {
    return dispatched_;
  }
  /// Extra deliveries created by broadcasts beyond the first copy.
  [[nodiscard]] std::uint64_t datagrams_replicated() const {
    return replicated_;
  }

 protected:
  /// The threaded form: the front monitor runs on `front`, shard i on
  /// `*shard_hosts[i]`.
  ShardedGateway(transport::Transport& front,
                 const std::vector<transport::Transport*>& shard_hosts,
                 ShardedConfig config);

  /// Hands one routed datagram to shard `index`. Inline form: ingest it now.
  virtual void deliver(std::size_t index, SdpId sdp,
                       const net::Datagram& datagram) {
    shards_[index]->ingest(sdp, datagram);
  }
  /// start() calls this once every shard has started, before the front
  /// monitor begins scanning. Inline form: nothing to do.
  virtual void start_delivery() {}
  /// stop() calls this once the front monitor has stopped. Inline form:
  /// stops every shard. An override's class must call stop() in its own
  /// destructor; the base destructor's stop() no longer reaches it.
  virtual void stop_delivery() {
    for (auto& shard : shards_) shard->stop();
  }

 private:
  /// Sums one statistic over the shards (zeroed where a shard lacks it).
  template <typename Read>
  std::invoke_result_t<Read, Indiss&> merged(Read read) const {
    std::invoke_result_t<Read, Indiss&> sum{};
    for (const auto& shard : shards_) sum += read(*shard);
    return sum;
  }

  ShardedConfig config_;
  std::shared_ptr<OwnEndpoints> own_endpoints_;
  std::unique_ptr<Monitor> front_monitor_;
  std::vector<std::unique_ptr<Indiss>> shards_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t replicated_ = 0;
  bool running_ = false;
};

}  // namespace indiss::core::shard
