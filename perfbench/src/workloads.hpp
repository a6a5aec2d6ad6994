// The workloads and the single-thread generator that drives them.
//
// The generator plays every native client and service with frames encoded
// once at set-up by the repository's own encoders, sends them open-loop on
// a seeded schedule over real loopback multicast, chases UPnP descriptions
// over TCP, and checks every frame the gateway emits (checker.hpp) against
// the input that caused it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gateway.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Offered load before measuring; the default outlasts the gateway's
  /// 10 s session timeout, so measurement starts in the steady state.
  double warmup_seconds = 12;
  bool trace = false;
  /// Negative self-test: inject one deliberately wrong frame that the
  /// checker must count as a failure.
  bool inject_wrong = false;
  /// Traced runs write their spans here as TSV when set.
  std::string spans_path;
};

struct LatencySummary {
  double p50_us = 0;
  double p99_us = 0;
  std::size_t samples = 0;
};

struct RunResult {
  /// Gateway configuration in words (stamped into every result).
  std::string gateway_config;
  /// "bridge" (announce workloads) or "lookup".
  std::string primary;

  // --- End to end (measured phase) --------------------------------------------
  std::vector<double> setup_s;  // one per set-up repetition
  double offered_rate = 0;      // sends per second
  LatencySummary bridge;
  LatencySummary lookup;
  /// Outputs the inputs must cause (counted at send, so the same on every
  /// run of a seed).
  std::uint64_t bridge_expected = 0;
  /// Translation-cache replays that arrived; checked, but never required.
  std::uint64_t bridge_replays = 0;
  std::uint64_t bridge_missed = 0;
  std::uint64_t lookups = 0;
  std::uint64_t lookups_failed = 0;
  /// Failed lookups by cause (only causes that occurred).
  std::map<std::string, std::uint64_t> failed_by;
  /// Outputs that matched no input or named the wrong service (whole run).
  std::uint64_t wrong = 0;
  std::vector<std::string> wrong_examples;
  double gateway_cpu_us_per_msg = 0;
  double rss_growth_mb = 0;

  // --- Harness ----------------------------------------------------------------
  double late_us_p99 = 0;
  double loadgen_cpu_util = 0;
  bool generator_behind = false;
  std::uint64_t datagrams_sent = 0;       // all UDP sends, run instance
  std::uint64_t datagrams_to_groups = 0;  // multicast sends the monitor sees
  /// The gateway's own multicast sends, as heard on the groups: they loop
  /// back into its monitor, which filters them.
  std::uint64_t gateway_multicast = 0;
  std::uint64_t rcvbuf_drops = 0;          // on the gateway's monitor sockets
  std::uint64_t generator_drops = 0;       // on the generator's own sockets
  /// Accept-queue overflows on the host (the gateway's HTTP listener is the
  /// only one the run connects to).
  std::uint64_t listen_overflows = 0;
  std::int64_t unexplained_datagrams = 0;

  // --- Traced run ----------------------------------------------------------------
  double trace_overhead_ratio = 0;

  // --- Per-layer inputs -------------------------------------------------------
  GatewayReport gateway;
  std::uint64_t backlog_max = 0;
  double shard_route_ns = 0;
  double slp_decode_ns = 0;
  double ssdp_parse_ns = 0;
  double description_parse_us = 0;
  double mdns_decode_ns = 0;
  std::map<std::string, double> layer;  // derived per-layer metrics
};

/// Runs one workload end to end. Throws std::runtime_error on a harness
/// failure (gateway did not start, set-up did not converge).
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
