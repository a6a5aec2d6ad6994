// UPnP description-document fuzz target (docs/chaos.md): arbitrary bytes go
// through DeviceDescription::from_xml and the UpnpDescriptionParser (the
// parser-switch target of the description GET). Every document that parses
// must survive to_xml -> from_xml unchanged, the property the gateway's
// impersonated devices rely on when native control points read back what
// it renders.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

#include "core/units/upnp_unit.hpp"
#include "upnp/description.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace indiss;
  std::string document(reinterpret_cast<const char*>(data), size);

  auto description = upnp::DeviceDescription::from_xml(document);
  if (description.has_value()) {
    auto again = upnp::DeviceDescription::from_xml(description->to_xml());
    if (!again.has_value() || !(*again == *description)) {
      std::fprintf(stderr, "description does not round-trip through to_xml\n");
      std::abort();
    }
  }

  // A continuation parser: no SDP_C_START, but the stream must still close.
  static core::UpnpDescriptionParser parser;
  core::CollectingSink sink;
  parser.parse(BytesView(data, size), fuzz::hostile_ctx(), sink);
  if (sink.stream().empty() ||
      sink.stream().back().type != core::EventType::kControlStop) {
    std::fprintf(stderr, "description stream not closed by SDP_C_STOP\n");
    std::abort();
  }
  return 0;
}
