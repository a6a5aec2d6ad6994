#include "upnp/http_server.hpp"

#include "http/parser.hpp"

namespace indiss::upnp {

struct HttpServer::Connection : std::enable_shared_from_this<Connection> {
  explicit Connection(std::shared_ptr<transport::TcpSocket> s)
      : socket(std::move(s)), parser(collector) {}

  std::shared_ptr<transport::TcpSocket> socket;
  http::MessageCollector collector;
  http::HttpParser parser;
};

HttpServer::HttpServer(transport::Transport& host, std::uint16_t port,
                       transport::Duration handling_delay)
    : host_(host), handling_delay_(handling_delay) {
  listener_ = host_.listen_tcp(port);
  listener_->set_accept_handler(
      [this](std::shared_ptr<transport::TcpSocket> socket) {
        on_accept(std::move(socket));
      });
}

HttpServer::~HttpServer() {
  if (listener_) listener_->close();
}

std::uint16_t HttpServer::port() const { return listener_->port(); }

void HttpServer::route(const std::string& path, RouteHandler handler) {
  routes_[path] = std::move(handler);
}

void HttpServer::route_prefix(const std::string& prefix,
                              RouteHandler handler) {
  prefix_routes_[prefix] = std::move(handler);
}

http::HttpMessage HttpServer::not_found() {
  auto response = http::HttpMessage::response(404, "Not Found");
  response.headers.set("Content-Length", "0");
  return response;
}

const HttpServer::RouteHandler* HttpServer::find_route(
    const std::string& path) const {
  if (auto it = routes_.find(path); it != routes_.end()) return &it->second;
  // The longest prefix sorts last among the prefixes of `path`.
  for (auto it = prefix_routes_.rbegin(); it != prefix_routes_.rend(); ++it) {
    if (path.starts_with(it->first)) return &it->second;
  }
  return nullptr;
}

void HttpServer::on_accept(std::shared_ptr<transport::TcpSocket> socket) {
  auto connection = std::make_shared<Connection>(std::move(socket));
  connection->socket->set_data_handler([this, connection](BytesView data) {
    connection->parser.feed(data);
    if (connection->parser.failed()) {
      connection->socket->close();
      return;
    }
    auto& messages = connection->collector.messages();
    while (!messages.empty()) {
      http::HttpMessage request = std::move(messages.front());
      messages.erase(messages.begin());
      respond(connection, request);
    }
  });
}

void HttpServer::respond(const std::shared_ptr<Connection>& connection,
                         const http::HttpMessage& request) {
  requests_served_ += 1;
  const RouteHandler* handler = find_route(request.target);
  http::HttpMessage response =
      handler != nullptr ? (*handler)(request) : not_found();
  // Device-stack processing cost before the response hits the wire.
  host_.schedule(
      handling_delay_, [connection, response = std::move(response)]() {
        if (connection->socket->open()) {
          connection->socket->send(response.serialize_bytes());
        }
      });
}

}  // namespace indiss::upnp
