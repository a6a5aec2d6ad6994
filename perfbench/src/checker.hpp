// The output checker's decoding half: every frame the gateway puts on the
// wire is decoded with the repository's own decoders (mdns::decode,
// upnp::parse_ssdp, slp::decode, http::HttpParser, DeviceDescription) into
// the few fields the checker matches against the input that caused it.
// Matching itself lives with the generator (workloads.cpp), which knows
// what it sent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace perfbench {

/// The stamp every bridged frame must carry (SSDP USER-AGENT/SERVER, SLP
/// previous-responder list, mDNS marker record and TXT "bridged-by").
inline constexpr std::string_view kBridgeStamp = "INDISS-bridge";

struct MdnsFrame {
  bool response = false;
  /// The "_indiss-bridge._udp.local" marker record is present.
  bool marker = false;
  std::uint16_t id = 0;
  /// Queries: canonical type of the first PTR question ("" when none).
  std::string question_type;
  struct Group {
    std::string type;  // canonical type of the PTR owner name
    std::string url;   // TXT url=
    bool goodbye = false;
    bool txt_stamp = false;  // TXT bridged-by=INDISS-bridge
  };
  /// Responses: one entry per PTR answer, resolved through its TXT record.
  std::vector<Group> groups;
};
bool read_mdns(indiss::BytesView wire, MdnsFrame& out);

struct SsdpFrame {
  enum class Kind { kSearch, kResponse, kAlive, kByeBye };
  Kind kind = Kind::kSearch;
  std::string type;      // canonical type of ST / NT
  std::string usn;
  std::string location;
  std::string agent;     // USER-AGENT (search) or SERVER
};
bool read_ssdp(indiss::BytesView wire, SsdpFrame& out);

struct SlpFrame {
  std::uint8_t function = 0;  // slp::FunctionId
  std::uint16_t xid = 0;
  std::string type;           // canonical type (requests)
  std::string previous_responders;
  std::vector<std::string> urls;  // SrvRply entries
};
bool read_slp(indiss::BytesView wire, SlpFrame& out);

/// Incremental HTTP response reader for the description GET. feed() returns
/// true once a complete response has arrived.
class HttpReader {
 public:
  HttpReader();
  ~HttpReader();
  bool feed(const std::uint8_t* data, std::size_t len);
  /// After completion: status and body of the response.
  [[nodiscard]] int status() const;
  [[nodiscard]] const std::string& body() const;
  [[nodiscard]] bool failed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Parses a UPnP description document; false when malformed.
bool read_description(const std::string& xml, std::string& device_type,
                      std::string& control_url);

}  // namespace perfbench
