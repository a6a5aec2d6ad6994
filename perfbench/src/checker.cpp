#include "checker.hpp"

#include <memory>
#include <variant>

#include "core/typemap.hpp"
#include "http/parser.hpp"
#include "mdns/dns.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/ssdp.hpp"

namespace perfbench {

namespace core = indiss::core;
namespace mdns = indiss::mdns;
namespace slp = indiss::slp;
namespace upnp = indiss::upnp;

namespace {
constexpr std::string_view kMarkerName = "_indiss-bridge._udp.local";
}  // namespace

bool read_mdns(indiss::BytesView wire, MdnsFrame& out) {
  auto message = mdns::decode(wire);
  if (!message.has_value()) return false;
  out = MdnsFrame{};
  out.response = message->is_response();
  out.id = message->id;
  for (const auto& record : message->additionals) {
    if (record.name == kMarkerName) out.marker = true;
  }
  if (!out.response) {
    for (const auto& q : message->questions) {
      if (q.qtype == mdns::kTypePtr) {
        out.question_type = core::canonical_from_dnssd(q.name);
        break;
      }
    }
    return true;
  }
  for (const auto& answer : message->answers) {
    if (answer.type != mdns::kTypePtr) continue;
    MdnsFrame::Group group;
    group.type = core::canonical_from_dnssd(answer.name);
    group.goodbye = answer.ttl == 0;
    for (const auto* section : {&message->answers, &message->additionals}) {
      for (const auto& record : *section) {
        if (record.type != mdns::kTypeTxt || record.name != answer.target) {
          continue;
        }
        for (const auto& [key, value] : record.txt) {
          if (key == "url") group.url = value;
          if (key == "bridged-by" && value == kBridgeStamp) {
            group.txt_stamp = true;
          }
        }
      }
    }
    out.groups.push_back(std::move(group));
  }
  return true;
}

bool read_ssdp(indiss::BytesView wire, SsdpFrame& out) {
  auto message = upnp::parse_ssdp(wire);
  if (!message.has_value()) return false;
  out = SsdpFrame{};
  if (const auto* search = std::get_if<upnp::SearchRequest>(&*message)) {
    out.kind = SsdpFrame::Kind::kSearch;
    out.type = core::canonical_from_upnp(search->st);
    out.agent = search->user_agent;
  } else if (const auto* response =
                 std::get_if<upnp::SearchResponse>(&*message)) {
    out.kind = SsdpFrame::Kind::kResponse;
    out.type = core::canonical_from_upnp(response->st);
    out.usn = response->usn;
    out.location = response->location;
    out.agent = response->server;
  } else if (const auto* notify = std::get_if<upnp::Notify>(&*message)) {
    out.kind = notify->kind == upnp::Notify::Kind::kAlive
                   ? SsdpFrame::Kind::kAlive
                   : SsdpFrame::Kind::kByeBye;
    out.type = core::canonical_from_upnp(notify->nt);
    out.usn = notify->usn;
    out.location = notify->location;
    out.agent = notify->server;
  }
  return true;
}

bool read_slp(indiss::BytesView wire, SlpFrame& out) {
  auto message = slp::decode(wire);
  if (!message.has_value()) return false;
  out = SlpFrame{};
  out.function = static_cast<std::uint8_t>(slp::function_of(*message));
  out.xid = slp::header_of(*message).xid;
  if (const auto* rqst = std::get_if<slp::SrvRqst>(&*message)) {
    out.type = core::canonical_from_slp(rqst->service_type);
    out.previous_responders = rqst->previous_responders;
  } else if (const auto* rply = std::get_if<slp::SrvRply>(&*message)) {
    for (const auto& entry : rply->url_entries) out.urls.push_back(entry.url);
  }
  return true;
}

struct HttpReader::Impl {
  indiss::http::MessageCollector collector;
  indiss::http::HttpParser parser{collector};
};

HttpReader::HttpReader() : impl_(std::make_unique<Impl>()) {}
HttpReader::~HttpReader() = default;

bool HttpReader::feed(const std::uint8_t* data, std::size_t len) {
  impl_->parser.feed(indiss::BytesView(data, len));
  return !impl_->collector.messages().empty();
}

int HttpReader::status() const {
  return impl_->collector.messages().front().status;
}

const std::string& HttpReader::body() const {
  return impl_->collector.messages().front().body;
}

bool HttpReader::failed() const { return impl_->parser.failed(); }

bool read_description(const std::string& xml, std::string& device_type,
                      std::string& control_url) {
  auto description = upnp::DeviceDescription::from_xml(xml);
  if (!description.has_value() || description->services.empty()) return false;
  device_type = description->device_type;
  control_url = description->services.front().control_url;
  return true;
}

}  // namespace perfbench
