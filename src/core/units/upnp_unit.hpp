// The UPnP unit (the second unit of the paper's prototype, and the richer
// one): an SSDP/HTTPU parser that switches to an XML parser for description
// documents (SDP_C_PARSER_SWITCH), a composer that can act as a UPnP control
// point on behalf of foreign clients — including the recursive description
// GET of the paper's §2.4 — and an SSDP responder + description server that
// impersonates a UPnP device for foreign services.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interning.hpp"
#include "core/unit.hpp"
#include "core/units/standard_fsm.hpp"
#include "http/parser.hpp"
#include "upnp/description.hpp"
#include "upnp/http_server.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {

/// SSDP + HTTP parser. SSDP datagrams produce full event streams; HTTP
/// description responses produce RES_OK followed by SDP_C_PARSER_SWITCH
/// carrying the XML body for the description parser.
///
/// Layered directly on the incremental HttpParser (the paper's event-based
/// parsing reuse): syntactic header events land in reused member strings and
/// the semantic SDP events come from sink.scratch(), so a warm parser
/// performs zero heap allocations per SSDP datagram (the scratch recipe,
/// docs/events.md).
class SsdpEventParser : public SdpParser, private http::HttpEventHandler {
 public:
  SsdpEventParser() : http_(*this) {}
  [[nodiscard]] std::string_view name() const override { return "ssdp"; }
  void parse(BytesView raw, const MessageContext& ctx,
             EventSink& sink) override;

 private:
  // HttpEventHandler: collect the fields SSDP classification needs into
  // reused storage (views die with the callback).
  void on_request_line(std::string_view method, std::string_view target,
                       std::string_view version) override;
  void on_status_line(int status, std::string_view reason,
                      std::string_view version) override;
  void on_header(std::string_view name, std::string_view value) override;
  void on_body(std::string_view chunk) override;
  void on_message_complete() override;
  void on_parse_error(std::string_view reason) override;

  void reset_fields();

  http::HttpParser http_;
  std::string method_;
  std::string st_, nt_, nts_, usn_, location_, server_, user_agent_, body_;
  int status_ = 0;
  int max_age_ = 1800;
  bool is_response_ = false;
  bool has_st_ = false, has_nt_ = false, has_nts_ = false, has_usn_ = false;
  bool complete_ = false;
};

/// UPnP description-document parser (the parser-switch target): walks the
/// XML with the SAX substrate and emits SERVICE_ATTR events for device
/// properties plus SDP_RES_SERV_URL for the first service's control URL.
/// Always a continuation parser: never emits SDP_C_START.
class UpnpDescriptionParser : public SdpParser {
 public:
  [[nodiscard]] std::string_view name() const override { return "upnp-xml"; }
  void parse(BytesView raw, const MessageContext& ctx,
             EventSink& sink) override;
};

struct UpnpUnitConfig {
  UnitOptions unit;
  std::uint16_t ssdp_port = 1900;
  /// Port for the unit's description server (0 = ephemeral).
  std::uint16_t http_port = 0;
  /// SSDP responders pace replies to multicast searches from the shared
  /// medium (MX-derived scheduling). Loopback searches from a co-located
  /// client are answered immediately — this asymmetry is what produces the
  /// paper's 40 ms (Fig 8) vs 0.12 ms (Fig 9b) split.
  transport::Duration search_response_pacing = transport::millis(30);
  /// Re-announce foreign services as NOTIFY alive when the context manager
  /// switches the unit to active advertising (Fig 6).
  bool active_advertising = false;
  int notify_max_age = 1800;
};

class UpnpUnit : public Unit {
 public:
  using Config = UpnpUnitConfig;

  UpnpUnit(transport::Transport& transport, Config config = {});
  ~UpnpUnit() override;

  /// One impersonated device. Its path (/indiss/<n>/description.xml),
  /// UDN (uuid:indiss-<n>), device type, USN and description document are
  /// all derived from these fields when a frame or a GET needs them, so
  /// nothing else is kept per device.
  struct ServedDevice {
    std::uint64_t index = 0;  // <n>
    Symbol type = kNoSymbol;  // canonical service type
    Symbol url = kNoSymbol;   // foreign endpoint, handed through as-is
    /// As advertised; empty when the document says "INDISS bridged <type>".
    std::string friendly_name;
    /// TTL-derived expiry instant (zero = never; enforced only with
    /// expire_bridged_state — docs/chaos.md).
    transport::TimePoint expires_at{0};
  };

  /// The description document `device` serves (also the fuzz corpus's
  /// impersonation seed).
  [[nodiscard]] static upnp::DeviceDescription describe(
      const ServedDevice& device);

  /// Foreign services currently impersonated as UPnP devices.
  [[nodiscard]] std::size_t impersonated_devices() const {
    return served_.size();
  }
  /// Multicasts NOTIFY alive for every impersonated foreign service (used by
  /// the context manager in active mode).
  void announce_foreign_services();
  /// The server behind every impersonated device's LOCATION (null until the
  /// first device is served).
  [[nodiscard]] const upnp::HttpServer* description_server() const {
    return http_server_.get();
  }

  void set_active_advertising(bool on) { config_.active_advertising = on; }
  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  void compose_native_request(Session& session) override;
  void compose_native_reply(Session& session) override;
  void compose_follow_up(Session& session, const Event& event) override;
  void on_advertisement(Session& session) override;
  void on_session_complete(Session& session) override;
  std::size_t expire_bridged_state(transport::TimePoint now) override;

 private:
  /// Finds (refreshing its deadline) or creates the device impersonating
  /// the foreign service of a translated reply stream / advertisement.
  ServedDevice& serve_device(const Session& session);
  [[nodiscard]] static std::string device_type(const ServedDevice& device);
  [[nodiscard]] static std::string usn(const ServedDevice& device);
  [[nodiscard]] std::string location(const ServedDevice& device);
  /// Serializes NOTIFY ssdp:alive for `device` into ssdp_scratch_.
  void compose_alive(const ServedDevice& device);
  /// The description server's handler for every /indiss/ path: the
  /// document of a served device, 404 for any other.
  [[nodiscard]] http::HttpMessage serve_description(
      const http::HttpMessage& request) const;
  /// Peer byebye: multicast ssdp:byebye for the served device and drop it.
  void withdraw_foreign_service(Session& session);
  void ensure_http_server();
  /// Rewrites session.collected into a clean, absolute reply stream before
  /// it is sent back to the origin unit (the finalize step of §2.4).
  static Action finalize_reply();
  void do_finalize_reply(Session& session);

  /// Identity of a served device: interned (type, url) symbols packed into
  /// one integer key — the refresh lookup for an alive burst touches no
  /// string construction at all.
  [[nodiscard]] static std::uint64_t served_key(Symbol type, Symbol url) {
    return (static_cast<std::uint64_t>(type) << 32) | url;
  }

  Config config_;
  std::shared_ptr<transport::UdpSocket> reply_socket_;
  std::map<std::uint64_t, std::shared_ptr<transport::UdpSocket>>
      client_sockets_;
  std::unique_ptr<upnp::HttpServer> http_server_;
  /// Served devices by served_key(), and the key of each device index.
  std::unordered_map<std::uint64_t, ServedDevice> served_;
  std::unordered_map<std::uint64_t, std::uint64_t> served_by_index_;
  std::uint64_t next_device_index_ = 1;
  /// No served deadline is earlier than this. Withdrawals and re-arms to a
  /// later instant leave it early; the sweep then walks once and recomputes.
  transport::TimePoint earliest_expiry_ = transport::TimePoint::max();
  // Compose-side scratch: SSDP messages serialize into this reused buffer
  // (docs/events.md scratch recipe) before the one unavoidable payload copy.
  std::string ssdp_scratch_;
};

}  // namespace indiss::core
