// The gateway under test, deployed as `indissd --loopback` deploys it: one
// core::Indiss (or a live::LiveShardPool for --shards N) on a
// live::EventLoop with LiveTransport on 127.0.0.1/lo, SLP + UPnP + mDNS,
// IndissConfig defaults otherwise. It runs on its own thread; the generator
// thread only reads the published snapshot counters while it runs, and the
// full statistics after stop() has joined the thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/event_bus.hpp"
#include "core/monitor.hpp"
#include "core/translation_cache.hpp"
#include "core/unit.hpp"
#include "trace.hpp"

namespace perfbench {

struct GatewayOptions {
  bool directory = false;
  /// 1 = core::Indiss; >= 2 = live::LiveShardPool with this many shards.
  std::size_t shards = 1;
  /// Wrap the gateway's transport in the tracing decorator (unsharded only:
  /// the shard pool builds its transports internally).
  bool trace = false;
  /// Frames the decorator recognises (frame_hash -> request id).
  std::unordered_map<std::uint64_t, std::uint32_t> trace_frames;
  /// Canonical types whose directory collect() is timed after the run.
  std::vector<std::string> collect_types;
};

/// Everything read from the gateway once its loop has stopped.
struct GatewayReport {
  indiss::core::Monitor::Stats monitor;
  indiss::core::Unit::Stats units;  // summed over SLP, UPnP, mDNS
  indiss::core::TranslationCache::SdpStats cache;  // summed over SDPs
  indiss::core::EventBus::Stats bus;  // unsharded only
  std::uint64_t directory_answered = 0;
  std::uint64_t directory_bridged = 0;
  std::uint64_t directory_records = 0;
  std::uint64_t directory_replays = 0;
  double directory_collect_us_p50 = 0;
  // Shard pool (zero when unsharded).
  std::uint64_t dispatched = 0;
  std::uint64_t replicated = 0;
  std::uint64_t ring_dropped = 0;
  std::vector<std::uint64_t> shard_consumed;
  /// Timer task bodies the gateway loop ran (EventLoop::run), excluding the
  /// benchmark's own snapshot task.
  std::uint64_t timer_tasks = 0;
};

class GatewayHost {
 public:
  explicit GatewayHost(GatewayOptions options);
  ~GatewayHost();
  GatewayHost(const GatewayHost&) = delete;
  GatewayHost& operator=(const GatewayHost&) = delete;

  /// Spawns the gateway thread and returns once the gateway has bound its
  /// ports and joined its groups. Throws when the gateway failed to start.
  void start();
  /// Stops the loop, gathers the report and joins the thread.
  void stop();

  /// Snapshot counters are refreshed every 1 ms while fast (set-up paces
  /// itself on them), every 25 ms otherwise.
  void set_snapshot_fast(bool fast) { fast_.store(fast); }

  // --- Snapshot counters, refreshed by the gateway loop ---------------------
  [[nodiscard]] std::uint64_t seen() const { return seen_.load(); }
  [[nodiscard]] std::uint64_t directory_records() const {
    return records_.load();
  }
  /// Largest ring backlog (accepted - consumed) sampled so far.
  [[nodiscard]] std::uint64_t backlog_max() const {
    return backlog_max_.load();
  }
  /// Asks the gateway thread to switch span recording on or off at its next
  /// snapshot tick; returns once it has.
  void set_recording(bool on);

  [[nodiscard]] const GatewayReport& report() const { return report_; }
  /// The tracer (null unless options.trace). Safe to read after stop().
  [[nodiscard]] const Tracer* tracer() const { return tracer_.get(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void run();

  GatewayOptions options_;
  std::unique_ptr<Tracer> tracer_;
  GatewayReport report_;
  std::string error_;
  std::atomic<int> state_{0};  // 0 starting, 1 running, 2 failed
  std::atomic<bool> stop_{false};
  std::atomic<bool> fast_{true};
  std::atomic<int> want_recording_{-1};
  std::atomic<int> recording_{0};
  std::atomic<std::uint64_t> seen_{0};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> backlog_max_{0};
  // Last: the gateway thread uses every member above.
  std::thread thread_;
};

}  // namespace perfbench
