#include "core/indiss.hpp"

#include "common/logging.hpp"

namespace indiss::core {

Indiss::Indiss(transport::Transport& transport, IndissConfig config)
    : host_(transport),
      config_(std::move(config)),
      enabled_sdps_(config_.enabled_sdps),
      own_endpoints_(config_.own_endpoints != nullptr
                         ? config_.own_endpoints
                         : std::make_shared<OwnEndpoints>()) {
  if (config_.enable_translation_cache) {
    translation_cache_ =
        std::make_shared<TranslationCache>(config_.translation_cache);
  }
  if (config_.enable_directory) {
    directory_ = std::make_shared<ServiceDirectory>(config_.directory);
  }
  monitor_ = std::make_unique<Monitor>(host_, own_endpoints_, config_.monitor);
  monitor_->set_translation_cache(translation_cache_);
  monitor_->set_directory(directory_);
}

Indiss::~Indiss() { stop(); }

std::unique_ptr<Unit> Indiss::make_unit(SdpId sdp) {
  Unit::Options options = config_.unit_options;
  options.own_endpoints = own_endpoints_;
  options.translation_cache = translation_cache_;
  options.directory = directory_;
  switch (sdp) {
    case SdpId::kSlp: {
      auto unit_config = config_.slp;
      unit_config.unit = options;
      return std::make_unique<SlpUnit>(host_, unit_config);
    }
    case SdpId::kUpnp: {
      auto unit_config = config_.upnp;
      unit_config.unit = options;
      return std::make_unique<UpnpUnit>(host_, unit_config);
    }
    case SdpId::kJini: {
      auto unit_config = config_.jini;
      unit_config.unit = options;
      return std::make_unique<JiniUnit>(host_, unit_config);
    }
    case SdpId::kMdns: {
      auto unit_config = config_.mdns;
      unit_config.unit = options;
      return std::make_unique<MdnsUnit>(host_, unit_config);
    }
  }
  return nullptr;
}

void Indiss::attach_unit(SdpId sdp) {
  auto [it, inserted] = units_.emplace(sdp, make_unit(sdp));
  monitor_->forward_to(sdp, it->second.get());
  if (sdp == SdpId::kMdns) {
    // Surface the RFC 6762 probe/conflict counters alongside the cache and
    // directory stats; the shared_ptr survives unit detach so a final report
    // can still read the totals.
    monitor_->set_probe_stats(
        static_cast<MdnsUnit*>(it->second.get())->probe_stats_ptr());
  }
}

void Indiss::start() {
  if (running_) return;
  running_ = true;
  stopped_stats_.clear();

  // Map order = SdpId order: slp, upnp, jini, mdns. Subscription (and so
  // bus fan-out) order follows it.
  for (SdpId sdp : enabled_sdps_) attach_unit(sdp);
  subscribe_units();

  if (config_.scan_ports) monitor_->scan(enabled_sdps_);

  if (config_.context.enabled) {
    last_sample_bytes_ = host_.stats().wire_bytes();
    sample_task_ = host_.schedule_periodic(
        config_.context.sample_interval, [this]() { sample_traffic(); });
  }

  // The timer-driven expiry sweep: only scheduled when some TTL-bounded
  // state actually exists to expire, so default configurations add no
  // scheduler activity at all (chaos/zero-fault fingerprints depend on it).
  if (directory_ != nullptr || config_.unit_options.expire_bridged_state) {
    sweep_task_ = host_.schedule_periodic(config_.expiry_sweep_interval,
                                          [this]() { run_expiry_sweep(); });
  }

  // Directory mode makes the gateway an SLP Directory Agent: advertise the
  // DA so agents on the SLP side can discover and use it (RFC 2608 §12.1).
  if (directory_ != nullptr) {
    if (auto* slp = unit_as<SlpUnit>(SdpId::kSlp)) {
      slp->announce_directory_agent();
    }
  }

  log::info("indiss", "started on ", host_.name(), " (slp=",
            enabled_sdps_.contains(SdpId::kSlp), " upnp=",
            enabled_sdps_.contains(SdpId::kUpnp), " jini=",
            enabled_sdps_.contains(SdpId::kJini), " mdns=",
            enabled_sdps_.contains(SdpId::kMdns), ")");
}

void Indiss::stop() {
  if (!running_) return;
  running_ = false;
  sample_task_.cancel();
  sweep_task_.cancel();
  // Tear down routing before the units so in-flight datagrams cannot reach
  // freed memory. Each unit's destructor unsubscribes itself from the bus.
  for (SdpId sdp : {SdpId::kSlp, SdpId::kUpnp, SdpId::kJini, SdpId::kMdns}) {
    monitor_->forward_to(sdp, nullptr);
    monitor_->stop_scanning(sdp);
  }
  for (const auto& [sdp, unit] : units_) stopped_stats_[sdp] = unit->stats();
  units_.clear();
}

void Indiss::subscribe_units() {
  for (auto& [sdp, unit] : units_) {
    if (unit->bus() == nullptr) bus_.subscribe(*unit);
  }
  // The subscriber set defines what a cached translation fans out to;
  // (re)wiring invalidates everything composed under the old set. The
  // directory follows the same rule: when the bridged world changes shape,
  // stop answering from the old one until services re-announce.
  if (translation_cache_) translation_cache_->bump_generation();
  if (directory_) directory_->bump_generation();
}

void Indiss::run_expiry_sweep() {
  // The bugfix for sweep-on-touch-only expiry: an idle unit's dead entries
  // now age out on the timer even when no further message ever arrives.
  for (auto& [sdp, unit] : units_) unit->sweep_bridged_state();
  if (directory_ != nullptr) directory_->sweep(host_.now());
}

void Indiss::ingest(SdpId sdp, const net::Datagram& datagram) {
  if (!running_) return;
  monitor_->ingest(sdp, datagram);
}

Unit* Indiss::unit(SdpId sdp) {
  auto it = units_.find(sdp);
  return it == units_.end() ? nullptr : it->second.get();
}

Unit::Stats Indiss::unit_stats(SdpId sdp) const {
  if (auto it = units_.find(sdp); it != units_.end()) {
    return it->second->stats();
  }
  auto it = stopped_stats_.find(sdp);
  return it == stopped_stats_.end() ? Unit::Stats{} : it->second;
}

void Indiss::enable_unit(SdpId sdp) {
  if (!running_ || unit(sdp) != nullptr) return;
  enabled_sdps_.insert(sdp);
  attach_unit(sdp);
  if (config_.scan_ports) monitor_->scan(std::set<SdpId>{sdp});
  subscribe_units();
}

void Indiss::disable_unit(SdpId sdp) {
  if (!running_ || unit(sdp) == nullptr) return;
  // Routing first (monitor, then bus via the unit's destructor) so nothing
  // can deliver into the freed unit afterwards.
  monitor_->forward_to(sdp, nullptr);
  monitor_->stop_scanning(sdp);
  enabled_sdps_.erase(sdp);
  units_.erase(sdp);
  // Cached frames hold the detached unit's sockets (now closed, so replays
  // are inert) — invalidate so the remaining units re-translate fresh, and
  // stop answering queries from records the detached unit recorded.
  if (translation_cache_) translation_cache_->bump_generation();
  if (directory_) directory_->bump_generation();
}

void Indiss::sample_traffic() {
  std::uint64_t bytes = host_.stats().wire_bytes();
  double interval_sec =
      static_cast<double>(config_.context.sample_interval.count()) / 1e9;
  double rate = static_cast<double>(bytes - last_sample_bytes_) / interval_sec;
  last_sample_bytes_ = bytes;

  // Fig 6: below the threshold the network can afford active advertising;
  // above it INDISS stays passive to preserve bandwidth.
  bool should_be_active =
      rate < config_.context.traffic_threshold_bytes_per_sec;
  if (should_be_active && !active_mode_) {
    log::info("indiss", "traffic ", rate, " B/s below threshold: going active");
  }
  active_mode_ = should_be_active;
  if (auto* upnp = unit_as<UpnpUnit>(SdpId::kUpnp)) {
    upnp->set_active_advertising(active_mode_);
  }
  if (active_mode_) trigger_active_probe();
}

void Indiss::trigger_active_probe() {
  for (const auto& type : config_.context.probe_types) {
    for (auto& [sdp, unit] : units_) unit->probe(type);
  }
}

}  // namespace indiss::core
