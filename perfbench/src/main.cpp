// perfbench_indiss: the live wire-to-wire benchmark of the INDISS gateway.
//
//   perfbench_indiss --workload NAME --seed N --seconds S --trace 0|1
//                    [--inject-wrong] [--spans FILE.tsv] [--warmup S]
//
// Runs one workload against a gateway deployed as `indissd --loopback`
// deploys it, prints a human-readable report (every metric by name, unit
// and sample count), a `# report {...}` line holding the full result with
// its context stamp, and, as the last line, the result object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. The exit code is 0 only when every output checked out.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The per-layer metrics a traced run emits, with their units.
/// BENCHMARK.json's per_layer list names these.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"monitor.seen_per_sent", "ratio"},
    {"monitor.own_filtered_per_msg", "1/msg"},
    {"monitor.rate_limited", "count"},
    {"unit.ingest_us_p50", "us"},
    {"unit.ingest_us_p99", "us"},
    {"unit.ingest_allocs_per_msg", "allocs/msg"},
    {"unit.deferred_us_p50", "us"},
    {"unit.deferred_tasks_per_msg", "1/msg"},
    {"unit.deferred_allocs_per_task", "allocs/task"},
    {"unit.parsed_per_msg", "1/msg"},
    {"unit.composed_per_msg", "1/msg"},
    {"unit.sessions_evicted", "count"},
    {"unit.events_ignored_per_msg", "1/msg"},
    {"event_bus.deliveries_per_publish", "1/publish"},
    {"event_bus.replies_dropped", "count"},
    {"translation_cache.hit_ratio", "ratio"},
    {"translation_cache.replayed_per_hit", "1/hit"},
    {"directory.answered_ratio", "ratio"},
    {"directory.replay_ratio", "ratio"},
    {"directory.records", "count"},
    {"directory.collect_us_p50", "us"},
    {"shard.replication_ratio", "ratio"},
    {"shard.imbalance", "ratio"},
    {"shard.ring_dropped", "count"},
    {"shard.backlog_max", "count"},
    {"shard.route_ns", "ns"},
    {"live.send_us_p50", "us"},
    {"live.sends_per_msg", "1/msg"},
    {"live.tx_bytes_per_msg", "B/msg"},
    {"live.timer_late_us_p99", "us"},
    {"live.timer_tasks_per_msg", "1/msg"},
    {"live.tcp_connects_per_lookup", "1/lookup"},
    {"live.rcvbuf_drops", "count"},
    {"slp.decode_ns", "ns"},
    {"upnp.ssdp_parse_ns", "ns"},
    {"upnp.description_parse_us", "us"},
    {"mdns.decode_ns", "ns"},
    {"loadgen.late_us_p99", "us"},
    {"loadgen.cpu_util", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.attributed_ratio", "ratio"},
    {"trace.dropped_spans", "count"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--inject-wrong] [--spans FILE.tsv] [--warmup S]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--inject-wrong") {
      config.inject_wrong = true;
      continue;
    }
    if (value == nullptr) return usage(argv[0]);
    ++i;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--warmup") {
      config.warmup_seconds = std::strtod(value, nullptr);
    } else if (arg == "--spans") {
      config.spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.workload.empty() || config.seconds <= 0 ||
      config.warmup_seconds < 0) {
    return usage(argv[0]);
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to record from a %s build (Release "
                 "only)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  RunResult r;
  try {
    r = perfbench::run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }

  // --- Context stamp ----------------------------------------------------------
  utsname uts{};
  uname(&uts);
  std::string context =
      "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"cpu_model\": \"" + json_escape(cpu_model()) +
      "\", \"kernel\": \"" + json_escape(uts.release) +
      "\", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) +
      "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"workload\": \"" +
      config.workload + "\", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + number(config.seconds) +
      ", \"trace\": " + (config.trace ? "1" : "0") +
      ", \"gateway_config\": \"" + json_escape(r.gateway_config) +
      "\", \"offered_rate_per_s\": " + number(r.offered_rate) + "}";

  // --- End-to-end metrics -----------------------------------------------------
  const bool lookups = r.primary == "lookup";
  const perfbench::LatencySummary& lat = lookups ? r.lookup : r.bridge;
  double setup = perfbench::median_of(r.setup_s);
  const std::vector<Metric> e2e = {
      {"setup_s", "s", setup},
      {"gateway_cpu_us_per_msg", "us", r.gateway_cpu_us_per_msg},
      {"rss_growth_mb", "MB", r.rss_growth_mb},
  };

  std::uint64_t attempted = lookups ? r.lookups : r.bridge_expected;
  std::uint64_t failed =
      (lookups ? r.lookups_failed : r.bridge_missed) + r.wrong;
  double fail_ratio =
      attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  bool correct = r.wrong == 0 && attempted > 0 && fail_ratio <= 0.001;

  // --- Human-readable report -------------------------------------------------------
  std::printf("# context %s\n", context.c_str());
  std::printf("# workload %s: %s, offered %.1f/s (open loop)\n",
              config.workload.c_str(), r.gateway_config.c_str(),
              r.offered_rate);
  const char* prefix = lookups ? "lookup" : "bridge";
  std::printf("%-34s %14.3f s    (median of %zu set-ups)\n", "setup_s", setup,
              r.setup_s.size());
  std::printf("%-34s %14.3f us   (n=%zu)\n",
              (std::string(prefix) + "_p50_us").c_str(), lat.p50_us, lat.samples);
  std::printf("%-34s %14.3f us   (n=%zu)\n",
              (std::string(prefix) + "_p99_us").c_str(), lat.p99_us, lat.samples);
  std::printf("%-34s %14.6f ratio (%llu of %llu)\n",
              lookups ? "lookup_fail_ratio" : "bridge_miss_ratio", fail_ratio,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%-34s %14.3f us\n", "gateway_cpu_us_per_msg",
              r.gateway_cpu_us_per_msg);
  std::printf("%-34s %14.3f MB\n", "rss_growth_mb", r.rss_growth_mb);
  std::printf(
      "# accounting: sent_to_groups=%llu gateway_multicast=%llu "
      "monitor.seen=%llu monitor.filtered=%llu rate_limited=%llu "
      "rcvbuf_drops=%llu ring_dropped=%llu unexplained=%lld\n",
      static_cast<unsigned long long>(r.datagrams_to_groups),
      static_cast<unsigned long long>(r.gateway_multicast),
      static_cast<unsigned long long>(r.gateway.monitor.seen),
      static_cast<unsigned long long>(r.gateway.monitor.filtered),
      static_cast<unsigned long long>(r.gateway.monitor.rate_limited),
      static_cast<unsigned long long>(r.rcvbuf_drops),
      static_cast<unsigned long long>(r.gateway.ring_dropped),
      static_cast<long long>(r.unexplained_datagrams));
  std::string failed_by;
  for (const auto& [cause, n] : r.failed_by) {
    failed_by += (failed_by.empty() ? "" : ", ") + ("\"" + cause + "\": ") +
                 std::to_string(n);
  }
  std::printf("# failed lookups by cause: {%s}; generator socket drops=%llu, "
              "listen overflows=%llu\n",
              failed_by.c_str(),
              static_cast<unsigned long long>(r.generator_drops),
              static_cast<unsigned long long>(r.listen_overflows));
  std::printf("# translation cache: hits=%llu misses=%llu replayed=%llu "
              "(replays checked on the wire: %llu)\n",
              static_cast<unsigned long long>(r.gateway.cache.hits),
              static_cast<unsigned long long>(r.gateway.cache.misses),
              static_cast<unsigned long long>(r.gateway.cache.frames_replayed),
              static_cast<unsigned long long>(r.bridge_replays));
  std::printf("# generator: late_us_p99=%.1f cpu_util=%.3f%s\n", r.late_us_p99,
              r.loadgen_cpu_util,
              r.generator_behind
                  ? " (BEHIND: the latencies above measured the generator)"
                  : "");
  for (const auto& why : r.wrong_examples) {
    std::printf("# wrong/missed: %s\n", why.c_str());
  }
  if (config.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      std::printf("%-34s %14.4f %s\n", m.name, r.layer.at(m.name), m.unit);
    }
  }

  // --- Full report line and the result object -----------------------------------
  std::string metrics;
  auto add = [&](const std::string& name, const std::string& unit,
                 double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (config.trace) {
    for (const LayerMetric& m : kLayerMetrics) add(m.name, m.unit, r.layer.at(m.name));
  } else {
    for (const Metric& m : e2e) add(m.name, m.unit, m.value);
  }
  std::string samples = "{\"latency\": " + std::to_string(lat.samples) +
                        ", \"setup\": " + std::to_string(r.setup_s.size()) + "}";
  std::string setups;
  for (double v : r.setup_s) setups += (setups.empty() ? "" : ", ") + number(v);
  std::printf(
      "# report {\"context\": %s, \"samples\": %s, \"setup_s\": [%s], "
      "\"latency_us\": {\"p50\": %s, \"p99\": %s}, \"fail_ratio\": %s, "
      "\"wrong\": %llu, \"generator_behind\": %s, \"unexplained_datagrams\": "
      "%lld, \"monitor_drops\": %llu, \"ring_dropped\": %llu, "
      "\"failed_by\": {%s}, \"bridge_replays\": %llu, \"generator_drops\": %llu, "
      "\"listen_overflows\": %llu, \"metrics\": {%s}}\n",
      context.c_str(), samples.c_str(), setups.c_str(),
      number(lat.p50_us).c_str(), number(lat.p99_us).c_str(),
      number(fail_ratio).c_str(),
      static_cast<unsigned long long>(r.wrong),
      r.generator_behind ? "true" : "false",
      static_cast<long long>(r.unexplained_datagrams),
      static_cast<unsigned long long>(r.rcvbuf_drops),
      static_cast<unsigned long long>(r.gateway.ring_dropped),
      failed_by.c_str(), static_cast<unsigned long long>(r.bridge_replays),
      static_cast<unsigned long long>(r.generator_drops),
      static_cast<unsigned long long>(r.listen_overflows), metrics.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
