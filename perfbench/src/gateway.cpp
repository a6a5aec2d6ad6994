#include "gateway.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>

#include "core/indiss.hpp"
#include "live/event_loop.hpp"
#include "live/sharded.hpp"
#include "live/transport.hpp"
#include "util.hpp"

namespace perfbench {

namespace core = indiss::core;
namespace live = indiss::live;
namespace transport = indiss::transport;

namespace {

constexpr core::SdpId kSdps[] = {core::SdpId::kSlp, core::SdpId::kUpnp,
                                 core::SdpId::kMdns};
/// How often the gateway loop publishes its snapshot counters and checks
/// for stop/recording requests: often while set-up paces itself on them,
/// rarely afterwards, so the benchmark's own wake-ups add little to the
/// gateway CPU time it measures.
constexpr auto kSnapshotFast = transport::millis(1);
constexpr auto kSnapshotSlow = transport::millis(25);

/// The benchmark's snapshot task: runs `body`, then re-arms itself on the
/// fast or slow period.
struct SnapshotTask {
  transport::Transport& host;
  const std::atomic<bool>& fast;
  std::function<void()> body;

  void arm() {
    host.schedule(fast.load() ? kSnapshotFast : kSnapshotSlow, [this]() {
      body();
      arm();
    });
  }
};

live::LiveConfig loopback_config() {
  live::LiveConfig config;
  config.name = "perfbench-gw";
  config.address = indiss::net::IpAddress(127, 0, 0, 1);
  config.interface = "lo";
  return config;
}

core::IndissConfig gateway_config(bool directory) {
  core::IndissConfig config;
  config.enabled_sdps = {core::SdpId::kSlp, core::SdpId::kUpnp,
                         core::SdpId::kMdns};
  config.enable_directory = directory;
  return config;
}

double collect_p50(core::ServiceDirectory& directory,
                   const std::vector<std::string>& types,
                   transport::TimePoint now) {
  std::vector<const core::ServiceDirectory::Record*> out;
  std::vector<double> us;
  us.reserve(types.size());
  for (const auto& type : types) {
    std::int64_t start = now_ns();
    directory.collect(type, now, out);
    us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return median_of(std::move(us));
}

}  // namespace

GatewayHost::GatewayHost(GatewayOptions options)
    : options_(std::move(options)) {
  if (options_.trace && options_.shards <= 1) {
    tracer_ = std::make_unique<Tracer>(options_.trace_frames);
  }
}

GatewayHost::~GatewayHost() { stop(); }

void GatewayHost::start() {
  thread_ = std::thread([this]() { run(); });
  while (state_.load() == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
  if (state_.load() == 2) {
    thread_.join();
    throw std::runtime_error("gateway failed to start: " + error_);
  }
}

void GatewayHost::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
}

void GatewayHost::set_recording(bool on) {
  want_recording_.store(on ? 1 : 0);
  while (recording_.load() != (on ? 1 : 0) && thread_.joinable() &&
         !stop_.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void GatewayHost::run() {
  pin_thread(false);
  try {
    live::EventLoop loop;
    std::uint64_t snapshot_ticks = 0;
    auto apply_requests = [&]() {
      ++snapshot_ticks;

      int want = want_recording_.exchange(-1);
      if (want >= 0 && tracer_ != nullptr) {
        tracer_->set_recording(want == 1);
        recording_.store(want);
      } else if (want >= 0) {
        recording_.store(want);
      }
      if (stop_.load()) loop.stop();
    };

    if (options_.shards >= 2) {
      live::LiveShardConfig pool_config;
      pool_config.shards = options_.shards;
      pool_config.live = loopback_config();
      pool_config.indiss = gateway_config(options_.directory);
      live::LiveShardPool pool(loop, pool_config);
      pool.start();
      SnapshotTask snapshot{pool.front_transport(), fast_, [&]() {
        seen_.store(pool.front_monitor().stats().seen);
        std::uint64_t accepted = pool.ingress_accepted();
        std::uint64_t consumed = pool.ingress_consumed();
        std::uint64_t backlog = accepted > consumed ? accepted - consumed : 0;
        if (backlog > backlog_max_.load()) backlog_max_.store(backlog);
        apply_requests();
      }};
      snapshot.arm();
      state_.store(1);
      std::uint64_t tasks = loop.run();
      pool.stop();

      GatewayReport& r = report_;
      r.monitor = pool.front_monitor().stats();
      for (core::SdpId sdp : kSdps) {
        r.units += pool.unit_stats(sdp);
        r.cache += pool.translation_stats(sdp);
        auto d = pool.directory_stats(sdp);
        r.directory_answered += d.answered;
        r.directory_bridged += d.bridged;
      }
      r.dispatched = pool.datagrams_dispatched();
      r.replicated = pool.datagrams_replicated();
      r.ring_dropped = pool.ring_dropped();
      for (std::size_t i = 0; i < pool.shard_count(); ++i) {
        r.shard_consumed.push_back(pool.shard_consumed(i));
        core::Indiss& shard = pool.shard(i);
        if (auto* dir = shard.directory()) {
          r.directory_records += dir->size();
          r.directory_replays += dir->answer_replays();
        }
      }
      r.timer_tasks = tasks - std::min<std::uint64_t>(tasks, snapshot_ticks);
      return;
    }

    live::LiveTransport live_transport(loop, loopback_config());
    std::unique_ptr<TracingTransport> tracing;
    transport::Transport* host = &live_transport;
    if (tracer_ != nullptr) {
      tracing = std::make_unique<TracingTransport>(live_transport, *tracer_);
      host = tracing.get();
    }
    core::Indiss indiss(*host, gateway_config(options_.directory));
    indiss.start();
    // Scheduled on the undecorated transport: the benchmark's own task stays
    // out of the trace.
    SnapshotTask snapshot{live_transport, fast_, [&]() {
      seen_.store(indiss.monitor().stats().seen);
      if (auto* dir = indiss.directory()) records_.store(dir->size());
      apply_requests();
    }};
    snapshot.arm();
    state_.store(1);
    std::uint64_t tasks = loop.run();
    if (tracer_ != nullptr) tracer_->set_recording(false);

    GatewayReport& r = report_;
    r.monitor = indiss.monitor().stats();
    for (core::SdpId sdp : kSdps) {
      if (core::Unit* unit = indiss.unit(sdp)) r.units += unit->stats();
      r.cache += indiss.monitor().translation_stats(sdp);
      auto d = indiss.monitor().directory_stats(sdp);
      r.directory_answered += d.answered;
      r.directory_bridged += d.bridged;
    }
    r.bus = indiss.bus().stats();
    if (auto* dir = indiss.directory()) {
      r.directory_records = dir->size();
      r.directory_replays = dir->answer_replays();
      r.directory_collect_us_p50 =
          collect_p50(*dir, options_.collect_types, live_transport.now());
    }
    r.timer_tasks = tasks - std::min<std::uint64_t>(tasks, snapshot_ticks);
    indiss.stop();
  } catch (const std::exception& e) {
    error_ = e.what();
    state_.store(2);
  }
}

}  // namespace perfbench
