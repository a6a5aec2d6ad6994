#include "core/shard/sharded_gateway.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace indiss::core::shard {

ShardedGateway::ShardedGateway(transport::Transport& transport,
                               ShardedConfig config)
    : ShardedGateway(transport,
                     std::vector<transport::Transport*>(
                         std::max<std::size_t>(config.shards, 1), &transport),
                     std::move(config)) {}

ShardedGateway::ShardedGateway(
    transport::Transport& front,
    const std::vector<transport::Transport*>& shard_hosts,
    ShardedConfig config)
    : config_(std::move(config)),
      own_endpoints_(std::make_shared<OwnEndpoints>()),
      front_monitor_(std::make_unique<Monitor>(front, own_endpoints_,
                                               config_.indiss.monitor)) {
  shards_.reserve(shard_hosts.size());
  for (transport::Transport* host : shard_hosts) {
    IndissConfig shard_config = config_.indiss;
    shard_config.scan_ports = false;
    shard_config.own_endpoints = own_endpoints_;
    // Ingress was already rate-limited at the front monitor; limiting again
    // per shard would double-charge sources whose traffic hashes unevenly.
    shard_config.monitor = MonitorConfig{};
    shards_.push_back(std::make_unique<Indiss>(*host, std::move(shard_config)));
  }
}

ShardedGateway::~ShardedGateway() { stop(); }

void ShardedGateway::start() {
  if (running_) return;
  running_ = true;
  for (auto& shard : shards_) shard->start();
  start_delivery();
  front_monitor_->set_detection_handler(
      [this](SdpId sdp, const net::Datagram& datagram) {
        dispatch(sdp, datagram);
      });
  if (config_.scan_ports) front_monitor_->scan(config_.indiss.enabled_sdps);
  log::info("shard", "sharded gateway started (", shards_.size(),
            " shards)");
}

void ShardedGateway::stop() {
  if (!running_) return;
  running_ = false;
  for (SdpId sdp : config_.indiss.enabled_sdps) {
    front_monitor_->stop_scanning(sdp);
  }
  front_monitor_->set_detection_handler(nullptr);
  stop_delivery();
}

void ShardedGateway::dispatch(SdpId sdp, const net::Datagram& datagram) {
  if (!running_) return;
  dispatched_ += 1;
  if (classify(sdp, datagram) == Route::kHashed) {
    BytesView wire(datagram.payload.data(), datagram.payload.size());
    deliver(shard::shard_for(wire, shards_.size()), sdp, datagram);
    return;
  }
  // Shard 0 first: broadcast deliveries keep the same shard order every run.
  replicated_ += shards_.size() - 1;
  for (std::size_t i = 0; i < shards_.size(); ++i) deliver(i, sdp, datagram);
}

}  // namespace indiss::core::shard
