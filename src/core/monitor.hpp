// The monitor component (paper §2.1): passive environmental SDP detection.
//
// "All SDPs use a multicast group address and a UDP/TCP port assigned by
// IANA... These two characteristics are sufficient to provide simple but
// efficient environmental SDP detection."
//
// The monitor joins the registered groups, listens on the registered ports,
// and classifies traffic purely by *which port data arrived on* — no content
// inspection, no computation. Detected SDPs are reported and the raw bytes
// are forwarded to the unit registered for that SDP.
//
// Loop prevention: INDISS's own units send native messages from their own
// sockets; the monitor must not re-ingest them. Units register their socket
// endpoints in a shared own-endpoint set which the monitor filters against.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/directory/service_directory.hpp"
#include "core/translation_cache.hpp"
#include "core/types.hpp"
#include "mdns/probe.hpp"
#include "transport/transport.hpp"

namespace indiss::core {

class Unit;

/// Survival knobs for hostile traffic (docs/chaos.md). Defaults leave every
/// defense off: the monitor behaves exactly as before unless deployed with
/// explicit limits.
struct MonitorConfig {
  /// Per-source token-bucket rate limit on forwarded datagrams, in
  /// datagrams/second. 0 disables rate limiting entirely (no tracking).
  double rate_limit_per_sec = 0.0;
  /// Bucket depth: how large a burst a single source may deliver before
  /// drops start. 0 defaults to 2x the per-second rate.
  double rate_limit_burst = 0.0;
  /// Sources tracked at once; beyond this the stalest bucket (the least
  /// recently refilled) is recycled in O(1), so one address-spoofing flood
  /// cannot grow monitor state unboundedly.
  std::size_t max_tracked_sources = 1024;
};

class Monitor {
 public:
  /// Fired on every detection event (including repeats), before forwarding.
  using DetectionHandler =
      std::function<void(SdpId, const net::Datagram&)>;

  Monitor(transport::Transport& transport,
          std::shared_ptr<OwnEndpoints> own_endpoints = nullptr,
          MonitorConfig config = {});
  ~Monitor();
  // Socket handlers capture `this`, and the rate-limit recency list links
  // point into buckets_: a copy would alias both.
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Scans one (group, port) pair from the correspondence table.
  void scan(const IanaEntry& entry);
  /// Scans every entry in the static IANA table.
  void scan_all();
  /// Scans the table's entries for `sdps`, in table order.
  void scan(const std::set<SdpId>& sdps);
  /// Stops scanning an SDP's ports (dynamic reconfiguration).
  void stop_scanning(SdpId sdp);

  void set_detection_handler(DetectionHandler handler) {
    detection_handler_ = std::move(handler);
  }
  /// Feeds a datagram as if it had arrived on a scanned socket: same
  /// own-endpoint filter, detection record, and forward path. Lets a
  /// dispatcher hand ring-delivered datagrams to a scan-less monitor
  /// (docs/sharding.md).
  void ingest(SdpId sdp, const net::Datagram& datagram) {
    on_datagram(sdp, datagram);
  }
  /// Routes raw messages of `sdp` to `unit` (Fig 2 step 2).
  void forward_to(SdpId sdp, Unit* unit);

  /// SDPs observed so far, with first-detection timestamps.
  [[nodiscard]] const std::map<SdpId, transport::TimePoint>& detected() const {
    return detected_;
  }
  [[nodiscard]] bool has_detected(SdpId sdp) const {
    return detected_.contains(sdp);
  }
  [[nodiscard]] std::uint64_t datagrams_seen() const {
    return stats_.seen;
  }
  [[nodiscard]] std::uint64_t datagrams_filtered() const {
    return stats_.filtered;
  }
  [[nodiscard]] std::size_t scanned_port_count() const {
    return sockets_.size();
  }

  /// Drop accounting, the operator's view of shed load: `seen` datagrams
  /// passed every filter and were processed; `filtered` were INDISS's own
  /// traffic; `rate_limited` were dropped by the per-source token bucket
  /// before detection or forwarding.
  struct Stats {
    std::uint64_t seen = 0;
    std::uint64_t filtered = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t sources_tracked = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// True while `source` holds a rate-limit bucket.
  [[nodiscard]] bool tracks_source(net::IpAddress source) const {
    return buckets_.contains(source);
  }
  [[nodiscard]] const MonitorConfig& config() const { return config_; }

  // --- Translation-cache introspection --------------------------------------
  //
  // The monitor is the component operators watch (it already reports
  // detections and filter counts), so the per-SDP translation-cache
  // hit/miss counters are surfaced here too.

  void set_translation_cache(std::shared_ptr<const TranslationCache> cache) {
    translation_cache_ = std::move(cache);
  }
  /// Null when no cache is attached (caching disabled).
  [[nodiscard]] const TranslationCache* translation_cache() const {
    return translation_cache_.get();
  }
  /// Zeroed stats when no cache is attached.
  [[nodiscard]] TranslationCache::SdpStats translation_stats(SdpId sdp) const {
    return translation_cache_ == nullptr ? TranslationCache::SdpStats{}
                                         : translation_cache_->stats(sdp);
  }

  // --- Probe/conflict introspection -----------------------------------------
  //
  // Same surfacing rule for RFC 6762 §8 probing (docs/chaos.md): the mDNS
  // unit's conflict/rename/defense counters are read through the monitor.

  void set_probe_stats(std::shared_ptr<const mdns::ProbeStats> stats) {
    probe_stats_ = std::move(stats);
  }
  /// Zeroed stats when probing is off.
  [[nodiscard]] mdns::ProbeStats probe_stats() const {
    return probe_stats_ == nullptr ? mdns::ProbeStats{} : *probe_stats_;
  }

  // --- Directory introspection ----------------------------------------------
  //
  // Same surfacing rule for directory mode (docs/directory.md): the
  // per-SDP answered-vs-bridged counters are read through the monitor.

  void set_directory(std::shared_ptr<const ServiceDirectory> directory) {
    directory_ = std::move(directory);
  }
  /// Null when directory mode is off.
  [[nodiscard]] const ServiceDirectory* directory() const {
    return directory_.get();
  }
  /// Zeroed stats when directory mode is off.
  [[nodiscard]] ServiceDirectory::SdpStats directory_stats(SdpId sdp) const {
    return directory_ == nullptr ? ServiceDirectory::SdpStats{}
                                 : directory_->stats(sdp);
  }

 private:
  void on_datagram(SdpId sdp, const net::Datagram& datagram);
  /// Token-bucket admission for `source`. True = admit; false = shed.
  [[nodiscard]] bool admit(net::IpAddress source);

  /// One source's token bucket (lazily refilled on arrival), linked into
  /// a recency list ordered by last_refill (stalest first).
  struct SourceBucket {
    double tokens = 0.0;
    transport::TimePoint last_refill{0};
    net::IpAddress source;  // the map key, so recycling needs no search
    SourceBucket* staler = nullptr;
    SourceBucket* fresher = nullptr;
  };
  /// Moves `bucket` to the fresh end of the recency list (links it first
  /// when it is not on the list yet).
  void mark_refilled(SourceBucket& bucket);
  void unlink(SourceBucket& bucket);

  transport::Transport& host_;
  std::shared_ptr<OwnEndpoints> own_endpoints_;
  MonitorConfig config_;
  std::shared_ptr<const TranslationCache> translation_cache_;
  std::shared_ptr<const ServiceDirectory> directory_;
  std::shared_ptr<const mdns::ProbeStats> probe_stats_;
  std::vector<std::pair<SdpId, std::shared_ptr<transport::UdpSocket>>> sockets_;
  std::map<SdpId, Unit*> forwards_;
  std::map<SdpId, transport::TimePoint> detected_;
  DetectionHandler detection_handler_;
  Stats stats_;
  // Node-based: bucket addresses survive inserts, so the links stay valid.
  std::map<net::IpAddress, SourceBucket> buckets_;
  SourceBucket* stalest_ = nullptr;
  SourceBucket* freshest_ = nullptr;
};

}  // namespace indiss::core
