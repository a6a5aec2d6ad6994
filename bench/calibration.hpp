// Calibration of the simulated testbed against the paper's §4.3 setup
// (OpenSLP + CyberLink for Java on two PIV workstations, 10 Mb/s LAN).
//
// The calibrated parameters and what they model:
//   - OpenSLP client stack:  0.30 ms request preparation + 0.30 ms reply
//     parsing; SA handling 0.02 ms. With ~60-byte SLP datagrams on a
//     10 Mb/s wire this lands native SLP->SLP at ~0.7 ms (Fig 7).
//   - CyberLink-like device stack: 39 ms M-SEARCH handling (MX-derived
//     response scheduling + JVM-era processing) and 25.5 ms to serve
//     description.xml over HTTP. Native UPnP->UPnP search = ~40 ms (Fig 7).
//   - TCP: 8.5 ms handshake + 3.0 ms per segment (Nagle/delayed-ACK-era
//     costs); this is what separates Fig 9a (80 ms, description fetched
//     across the LAN) from Fig 8 (65 ms, fetched over loopback).
//   - INDISS itself: 2 µs per message of translation cost
//     (UnitOptions::translate_delay; the real cost is measured in
//     wall-clock by bench/abl_translation). Its SSDP composer
//     paces responses to *network* multicast searches by 39 ms, matching
//     native responder etiquette (Fig 8 right, 40 ms), but answers loopback
//     clients immediately (Fig 9b, 0.12 ms).
//
// Every number is a named constant here.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/indiss.hpp"
#include "mdns/dnssd.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "upnp/control_point.hpp"
#include "upnp/device.hpp"

namespace indiss::bench {

// --- Calibrated constants -------------------------------------------------

inline constexpr double kBandwidthBps = 10e6;  // the paper's LAN

inline slp::SlpConfig calibrated_slp() {
  slp::SlpConfig config;
  config.profile.request_prep = sim::micros(300);
  config.profile.reply_parse = sim::micros(300);
  config.profile.handling = sim::micros(20);
  return config;
}

inline upnp::UpnpStackProfile calibrated_upnp_device(std::uint64_t seed = 0) {
  upnp::UpnpStackProfile profile;
  // +-0.5 ms of seeded stack noise so the 30-trial median is meaningful.
  auto noise = sim::micros(static_cast<std::int64_t>((seed % 11) * 100) - 500);
  profile.msearch_handling = sim::millis_f(39.0) + noise;
  profile.description_handling = sim::millis_f(25.5);
  return profile;
}

inline net::LinkProfile calibrated_link() {
  net::LinkProfile link;
  link.bandwidth_bps = kBandwidthBps;
  link.propagation = sim::micros(5);
  link.tcp_handshake = sim::millis_f(8.5);
  link.tcp_segment_overhead = sim::millis_f(3.0);
  link.loopback_latency = sim::micros(3);
  return link;
}

inline core::IndissConfig calibrated_indiss() {
  core::IndissConfig config;
  config.unit_options.translate_delay = sim::micros(2);
  config.upnp.search_response_pacing = sim::millis_f(39.0);
  // The scaling workload mixes mDNS devices into the population (PR 4);
  // the gateway bridges all of them.
  config.enabled_sdps.insert(core::SdpId::kMdns);
  return config;
}

/// mDNS responder stack for one scaling-workload device: seeded per device
/// so paced multicast answers interleave deterministically.
inline mdns::MdnsConfig calibrated_mdns_device(std::uint64_t seed) {
  mdns::MdnsConfig config;
  config.seed = seed + 1;
  return config;
}

/// The DNS-SD instance advertised by scaling-workload device `index`.
inline mdns::ServiceInstance mdns_clock_instance(int index) {
  mdns::ServiceInstance instance;
  instance.instance = "clock" + std::to_string(index);
  instance.service_type = "_clock._tcp";
  instance.port = 4006;
  instance.txt = {{"url", "soap://10.0.2." +
                              std::to_string(1 + index % 250) + ":4006/mdns" +
                              std::to_string(index)}};
  return instance;
}

inline upnp::ControlPointConfig calibrated_control_point() {
  upnp::ControlPointConfig config;
  config.stack_handling = sim::micros(10);
  return config;
}

// --- Trial harness ----------------------------------------------------------

/// Median of a sample set, in milliseconds.
inline double median_ms(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  std::size_t n = samples.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

inline constexpr int kTrials = 30;  // the paper's trial count

/// One bench row: scenario, the paper's number and ours.
struct Row {
  std::string scenario;
  double paper_ms;
  double measured_ms;
};

inline void print_table(const std::string& title,
                        const std::vector<Row>& rows) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-44s %12s %14s %8s\n", "scenario", "paper (ms)",
              "measured (ms)", "ratio");
  for (const auto& row : rows) {
    std::printf("%-44s %12.2f %14.3f %8.2f\n", row.scenario.c_str(),
                row.paper_ms, row.measured_ms,
                row.paper_ms > 0 ? row.measured_ms / row.paper_ms : 0.0);
  }
}

}  // namespace indiss::bench
