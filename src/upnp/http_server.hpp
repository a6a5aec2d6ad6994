// Minimal HTTP server over the simulated TCP layer: a route table mapping
// request paths to handlers, with a configurable per-request handling delay
// that models the 2005-era device stack cost of serving description
// documents (part of the Fig 8/9 calibration).
//
// Routes are exact paths or path prefixes. A prefix route serves a whole
// family of documents from one handler that resolves the rest of the path
// itself — how a gateway serves any number of impersonated devices without
// a route per device.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "transport/transport.hpp"

namespace indiss::upnp {

class HttpServer {
 public:
  using RouteHandler =
      std::function<http::HttpMessage(const http::HttpMessage&)>;

  /// Starts listening on `port` (0 = ephemeral).
  HttpServer(transport::Transport& host, std::uint16_t port,
             transport::Duration handling_delay = transport::Duration::zero());
  ~HttpServer();

  /// Registers a handler for an exact path. GET/POST both route here.
  void route(const std::string& path, RouteHandler handler);
  /// Registers a handler for every path that starts with `prefix` and has
  /// no exact route; the longest matching prefix wins.
  void route_prefix(const std::string& prefix, RouteHandler handler);
  /// Exact plus prefix routes registered.
  [[nodiscard]] std::size_t route_count() const {
    return routes_.size() + prefix_routes_.size();
  }

  /// The empty 404 answered for a path no route serves.
  [[nodiscard]] static http::HttpMessage not_found();

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_;
  }
  void set_handling_delay(transport::Duration delay) {
    handling_delay_ = delay;
  }

 private:
  struct Connection;
  [[nodiscard]] const RouteHandler* find_route(const std::string& path) const;
  void on_accept(std::shared_ptr<transport::TcpSocket> socket);
  void respond(const std::shared_ptr<Connection>& connection,
               const http::HttpMessage& request);

  transport::Transport& host_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::map<std::string, RouteHandler> routes_;
  std::map<std::string, RouteHandler> prefix_routes_;
  transport::Duration handling_delay_;
  std::uint64_t requests_served_ = 0;
};

}  // namespace indiss::upnp
