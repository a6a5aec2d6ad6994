// Ablation A1: the real wall-clock cost of INDISS's event layer.
//
// The simulator charges INDISS 5 µs per message (calibration.hpp); this
// bench measures what the parse -> events -> compose path actually costs in
// this implementation, supporting the paper's "lightweight" claim with real
// numbers rather than simulated ones. It also prices the alternative the
// event architecture avoids: N^2 direct translators would each pay roughly
// the same parse+compose cost without the reuse.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/directory/service_directory.hpp"
#include "core/units/jini_unit.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "jini/discovery.hpp"
#include "mdns/dns.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/ssdp.hpp"

// --- Allocation counting ----------------------------------------------------
//
// The whole point of the interned SmallRecord event representation is fewer
// heap allocations per translated message, so this harness counts them via
// the shared meter, and the round-trip fixtures report allocs/op alongside
// wall time in BENCH_translation.json.

#include "tests/support/alloc_meter.hpp"

namespace {

using namespace indiss;

core::MessageContext ctx() {
  core::MessageContext c;
  c.source = net::Endpoint{net::IpAddress(10, 0, 0, 1), 41000};
  c.multicast = true;
  return c;
}

/// Reports allocs/op and (when `events_per_op` > 0) the event throughput the
/// scaling compare gate reads.
void report(benchmark::State& state, std::uint64_t allocs_before,
            std::size_t events_per_op) {
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
      static_cast<double>(state.iterations()));
  if (events_per_op > 0) {
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * events_per_op),
        benchmark::Counter::kIsRate);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SlpParseToEvents(benchmark::State& state) {
  slp::SrvRqst request;
  request.service_type = "service:clock";
  request.predicate = "(friendlyName=Clock*)";
  Bytes wire = slp::encode(slp::Message(request));
  core::SlpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  for (auto _ : state) {
    sink.reset();  // reuse the pooled buffer: cleared, not freed
    parser.parse(wire, ctx(), sink);
    benchmark::DoNotOptimize(sink.stream());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SlpParseToEvents);

void BM_SsdpParseToEvents(benchmark::State& state) {
  upnp::SearchRequest request;
  request.st = "urn:schemas-upnp-org:device:clock:1";
  Bytes wire = to_bytes(request.to_http().serialize());
  core::SsdpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    benchmark::DoNotOptimize(sink.stream());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SsdpParseToEvents);

void BM_DescriptionParseToEvents(benchmark::State& state) {
  auto xml = upnp::make_clock_device().to_xml();
  Bytes wire = to_bytes(xml);
  core::UpnpDescriptionParser parser;
  core::MessageContext continuation;
  continuation.continuation = true;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, continuation, sink);
    benchmark::DoNotOptimize(sink.stream());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * xml.size()));
}
BENCHMARK(BM_DescriptionParseToEvents);

// --- Parse -> compose round trips, allocations counted ----------------------
//
// One full translation leg per SDP: decode the characteristic periodic
// message off the wire into events, then compose the outbound native form
// the unit's composer would send and re-encode it — all through the scratch
// recipe, so every round trip below is pinned at 0 steady-state allocs/op
// (the tests in tests/sdp/ hold the same property as hard assertions; these
// fixtures record it alongside wall time in BENCH_translation.json).

Bytes reply_wire() {
  slp::SrvRply reply;
  reply.header.xid = 42;
  reply.url_entries = {
      slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/control"}};
  return slp::encode(slp::Message(reply));
}

void BM_SlpRoundTripAllocations(benchmark::State& state) {
  Bytes wire = reply_wire();
  core::SlpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  slp::Message composed = slp::SrvRply{};
  std::string attr_scratch;
  ByteWriter writer;
  std::size_t events_per_op = 0;
  // Warm-up: grow every scratch buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    core::compose_slp_reply(sink.stream(), "clock", 42, 300, true,
                            std::get<slp::SrvRply>(composed), attr_scratch);
    slp::encode_into(composed, writer);
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    events_per_op = sink.stream().size();
    core::compose_slp_reply(sink.stream(), "clock", 42, 300, true,
                            std::get<slp::SrvRply>(composed), attr_scratch);
    BytesView rewire = slp::encode_into(composed, writer);
    benchmark::DoNotOptimize(rewire);
  }
  report(state, allocs_before, events_per_op);
}
BENCHMARK(BM_SlpRoundTripAllocations);

void BM_SsdpRoundTripAllocations(benchmark::State& state) {
  upnp::Notify notify;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.0.2:4004/description.xml";
  Bytes wire = to_bytes(notify.to_http().serialize());
  core::SsdpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  upnp::Notify composed;
  std::string out;
  std::size_t events_per_op = 0;
  // Warm-up: grow every scratch buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    for (const auto& event : sink.stream()) {
      if (event.type == core::EventType::kServiceTypeIs) {
        composed.nt.assign(event.get("native"));
      } else if (event.type == core::EventType::kUpnpUsn) {
        composed.usn.assign(event.get("usn"));
      } else if (event.type == core::EventType::kUpnpDeviceUrlDesc) {
        composed.location.assign(event.get("url"));
      }
    }
    composed.serialize_into(out);
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    events_per_op = sink.stream().size();
    composed.kind = upnp::Notify::Kind::kAlive;
    for (const auto& event : sink.stream()) {
      if (event.type == core::EventType::kServiceTypeIs) {
        composed.nt.assign(event.get("native"));
      } else if (event.type == core::EventType::kUpnpUsn) {
        composed.usn.assign(event.get("usn"));
      } else if (event.type == core::EventType::kUpnpDeviceUrlDesc) {
        composed.location.assign(event.get("url"));
      }
    }
    composed.serialize_into(out);
    benchmark::DoNotOptimize(out);
  }
  report(state, allocs_before, events_per_op);
}
BENCHMARK(BM_SsdpRoundTripAllocations);

void BM_JiniRoundTripAllocations(benchmark::State& state) {
  jini::MulticastAnnouncement announcement;
  announcement.registrar_host = "10.0.0.9";
  announcement.registrar_port = 4160;
  announcement.registrar_id = 0x1D155C0FFEEULL;
  announcement.groups = {"lab"};
  Bytes wire = announcement.encode();
  core::JiniEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  jini::MulticastAnnouncement composed;
  ByteWriter writer;
  std::size_t events_per_op = 0;
  // Warm-up: grow every scratch buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    core::compose_jini_announcement(sink.stream(), composed);
    composed.encode_into(writer);
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    events_per_op = sink.stream().size();
    core::compose_jini_announcement(sink.stream(), composed);
    BytesView rewire = composed.encode_into(writer);
    benchmark::DoNotOptimize(rewire);
  }
  report(state, allocs_before, events_per_op);
}
BENCHMARK(BM_JiniRoundTripAllocations);

void BM_MdnsRoundTripAllocations(benchmark::State& state) {
  mdns::DnsMessage announce;
  announce.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  mdns::DnsRecord ptr;
  ptr.name = "_clock._tcp.local";
  ptr.type = mdns::kTypePtr;
  ptr.ttl = 120;
  ptr.target = "clock1._clock._tcp.local";
  announce.answers.push_back(ptr);
  mdns::DnsRecord txt;
  txt.name = "clock1._clock._tcp.local";
  txt.type = mdns::kTypeTxt;
  txt.ttl = 120;
  txt.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"}};
  announce.answers.push_back(txt);
  Bytes wire = mdns::encode(announce);
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  mdns::DnsMessage composed;
  mdns::DnsEncoder encoder;
  std::size_t events_per_op = 0;
  // Warm-up: grow every scratch buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    core::compose_dnssd_answers(sink.stream(), "_clock._tcp.local", 120,
                                composed);
    encoder.encode(composed);
  }
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    events_per_op = sink.stream().size();
    core::compose_dnssd_answers(sink.stream(), "_clock._tcp.local", 120,
                                composed);
    BytesView rewire = encoder.encode(composed);
    benchmark::DoNotOptimize(rewire);
  }
  report(state, allocs_before, events_per_op);
}
BENCHMARK(BM_MdnsRoundTripAllocations);

// The std::map<std::string,std::string> + fresh-buffers baseline the PR-2/5
// pipeline replaced, kept for the recorded ratio.

slp::SrvRply compose_from_events(const core::EventStream& stream) {
  slp::SrvRply out;
  std::string type = "service";
  std::string attr_suffix;
  std::uint16_t lifetime = 300;
  for (const auto& event : stream) {
    if (event.type == core::EventType::kServiceTypeIs) {
      type = event.get("type");
    } else if (event.type == core::EventType::kServiceAttr) {
      attr_suffix += ";";
      attr_suffix += event.get("key");
      attr_suffix += ":\"";
      attr_suffix += event.get("value");
      attr_suffix += "\"";
    } else if (event.type == core::EventType::kResTtl) {
      lifetime = static_cast<std::uint16_t>(
          str::parse_long(event.get("seconds"), lifetime));
    }
  }
  for (const auto& event : stream) {
    if (event.type != core::EventType::kResServUrl) continue;
    std::string url = "service:" + type + ":";
    url += event.get("url");
    url += attr_suffix;
    out.url_entries.push_back(slp::UrlEntry{lifetime, std::move(url)});
  }
  return out;
}

// The std::map<std::string,std::string> baseline this PR replaced: the same
// round trip, but every event's data lives in a per-event map the way the
// old Event struct stored it (one node allocation per entry, temporary
// std::string keys on every lookup).
struct LegacyEvent {
  core::EventType type;
  std::map<std::string, std::string> data;

  [[nodiscard]] std::string get(std::string_view key,
                                std::string_view fallback = "") const {
    auto it = data.find(std::string(key));
    return it == data.end() ? std::string(fallback) : it->second;
  }
};

void BM_SlpRoundTripAllocationsMapBaseline(benchmark::State& state) {
  Bytes wire = reply_wire();
  core::SlpEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    sink.reset();
    parser.parse(wire, ctx(), sink);
    // Materialize the old representation: a fresh buffer per message (the
    // old code constructed a new CollectingSink for every parse) holding
    // map-backed events.
    std::vector<LegacyEvent> legacy;
    for (const auto& event : sink.stream()) {
      LegacyEvent copy;
      copy.type = event.type;
      event.data.for_each([&](std::string_view k, std::string_view v) {
        copy.data.emplace(std::string(k), std::string(v));
      });
      legacy.push_back(std::move(copy));
    }
    // Compose from it with the old allocating accessors.
    slp::SrvRply out;
    std::string type = "service";
    std::string attr_suffix;
    std::uint16_t lifetime = 300;
    for (const auto& event : legacy) {
      if (event.type == core::EventType::kServiceTypeIs) {
        type = event.get("type");
      } else if (event.type == core::EventType::kServiceAttr) {
        attr_suffix += ";" + event.get("key") + ":\"" + event.get("value") +
                       "\"";
      } else if (event.type == core::EventType::kResTtl) {
        lifetime = static_cast<std::uint16_t>(
            str::parse_long(event.get("seconds"), lifetime));
      }
    }
    for (const auto& event : legacy) {
      if (event.type != core::EventType::kResServUrl) continue;
      std::string url = "service:" + type + ":" + event.get("url") +
                        attr_suffix;
      out.url_entries.push_back(slp::UrlEntry{lifetime, std::move(url)});
    }
    Bytes rewire = slp::encode(slp::Message(out));
    benchmark::DoNotOptimize(rewire);
  }
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SlpRoundTripAllocationsMapBaseline);

void BM_SlpEncodeDecodeRoundTrip(benchmark::State& state) {
  slp::SrvRply reply;
  reply.url_entries = {
      slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/control"}};
  for (auto _ : state) {
    Bytes wire = slp::encode(slp::Message(reply));
    auto decoded = slp::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SlpEncodeDecodeRoundTrip);

void BM_SsdpSerializeParseRoundTrip(benchmark::State& state) {
  upnp::SearchResponse response;
  response.st = "urn:schemas-upnp-org:device:clock:1";
  response.usn = "uuid:ClockDevice::upnp:clock";
  response.location = "http://10.0.0.2:4004/description.xml";
  for (auto _ : state) {
    auto wire = to_bytes(response.to_http().serialize());
    auto parsed = upnp::parse_ssdp(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SsdpSerializeParseRoundTrip);

// --- Foreign-service table scaling ------------------------------------------
//
// BM_ForeignAdvertScaling: the SLP and mDNS units each hold N bridged
// foreign services; one op is, on both units, the first sight of a service,
// the refresh of another one across the table and the withdrawal of a
// third, so the table stays at N. With the keyed table every step is O(1)
// and the 16k case costs about what the 1k case does; a table scanned per
// advertisement costs O(N) per step.

struct ScalingSlpUnit : core::SlpUnit {
  using core::SlpUnit::SlpUnit;
  using core::SlpUnit::on_advertisement;
};
struct ScalingMdnsUnit : core::MdnsUnit {
  using core::MdnsUnit::MdnsUnit;
  using core::MdnsUnit::on_advertisement;
};

core::Session scaling_session(std::string_view kind) {
  core::Session session;
  session.origin = core::Session::Origin::kPeer;
  session.set_var("kind", kind);
  session.set_var("service_type", "clock");
  session.collected.push_back(core::Event(core::EventType::kControlStart));
  session.collected.push_back(core::Event(
      kind == "alive" ? core::EventType::kServiceAlive
                      : core::EventType::kServiceByeBye));
  session.collected.push_back(
      core::Event(core::EventType::kServiceTypeIs, {{"type", "clock"}}));
  session.collected.push_back(
      core::Event(core::EventType::kResTtl, {{"seconds", "1800"}}));
  session.collected.push_back(
      core::Event(core::EventType::kResServUrl, {{"url", ""}}));
  session.collected.push_back(core::Event(core::EventType::kControlStop));
  return session;
}

void BM_ForeignAdvertScaling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  ScalingSlpUnit slp(host);
  ScalingMdnsUnit mdns(host);

  // n + 1 URLs; n of them are bridged at any time.
  std::vector<std::string> urls(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    urls[i] = "soap://10.2." + std::to_string(i / 256) + "." +
              std::to_string(i % 256) + ":4005/scaling-" + std::to_string(n);
  }
  core::Session alive = scaling_session("alive");
  core::Session byebye = scaling_session("byebye");
  core::Event& alive_url = alive.collected[4];
  core::Event& byebye_url = byebye.collected[4];
  auto advertise = [&](core::Session& session, core::Event& url_event,
                       const std::string& url) {
    url_event.set("url", url);
    slp.on_advertisement(session);
    mdns.on_advertisement(session);
  };
  for (std::size_t i = 0; i < n; ++i) advertise(alive, alive_url, urls[i]);
  scheduler.run_all();

  std::size_t absent = n;
  std::size_t ops = 0;
  for (auto _ : state) {
    advertise(alive, alive_url, urls[absent]);  // first sight
    advertise(alive, alive_url, urls[(absent + n / 2) % (n + 1)]);  // refresh
    absent = (absent + 1) % (n + 1);
    advertise(byebye, byebye_url, urls[absent]);  // withdrawal
    if (++ops % 256 == 0) scheduler.run_all();  // drain the multicast sends
  }
  scheduler.run_all();
  if (slp.foreign_services().size() != n ||
      mdns.foreign_services().size() != n) {
    state.SkipWithError("the table did not stay at n entries");
  }
  state.counters["table_size"] = benchmark::Counter(static_cast<double>(n));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ForeignAdvertScaling)->Arg(1024)->Arg(16384);

// --- Directory lookup scaling -----------------------------------------------
//
// BM_DirectoryLookup: collect() against an index of 10k / 100k / 1M records
// (8 instances per service type) — the query-answering hot path behind
// --directory (docs/directory.md). Registered last: filling the 1M-record
// index interns hundreds of thousands of URL symbols into the process-wide
// SymbolTable, which must not skew the translation fixtures above.

void BM_DirectoryLookup(benchmark::State& state) {
  const std::size_t records = static_cast<std::size_t>(state.range(0));
  const std::size_t types = records / 8;
  core::ServiceDirectory directory(
      {.max_records = records, .type_buckets = 64, .max_answers = 4});
  const auto t0 = transport::TimePoint(transport::seconds(0));
  std::vector<std::string> type_names(types);
  for (std::size_t i = 0; i < types; ++i) {
    type_names[i] = "svc" + std::to_string(i);
  }
  for (std::size_t i = 0; i < records; ++i) {
    core::EventStream stream;
    stream.push_back(core::Event(core::EventType::kControlStart));
    stream.push_back(core::Event(core::EventType::kServiceAlive));
    stream.push_back(core::Event(core::EventType::kServiceTypeIs,
                                 {{"type", type_names[i % types]}}));
    stream.push_back(
        core::Event(core::EventType::kResTtl, {{"seconds", "600"}}));
    stream.push_back(core::Event(
        core::EventType::kResServUrl,
        {{"url", "soap://10.0.0.2:4000/s" + std::to_string(i)}}));
    stream.push_back(core::Event(core::EventType::kControlStop));
    directory.record_advertisement(core::SdpId::kMdns, stream, {}, t0);
  }
  std::vector<const core::ServiceDirectory::Record*> out;
  std::size_t query = 0;
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    std::size_t found = directory.collect(type_names[query++ % types], t0, out);
    benchmark::DoNotOptimize(found);
  }
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
      static_cast<double>(state.iterations()));
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryLookup)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

}  // namespace

BENCHMARK_MAIN();
