#include "workloads.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "checker.hpp"
#include "core/shard/router.hpp"
#include "loadgen.hpp"
#include "mdns/dns.hpp"
#include "slp/wire.hpp"
#include "trace.hpp"
#include "upnp/description.hpp"
#include "upnp/ssdp.hpp"
#include "util.hpp"

namespace perfbench {

namespace core = indiss::core;
namespace mdns = indiss::mdns;
namespace slp = indiss::slp;
namespace upnp = indiss::upnp;
using core::SdpId;
using indiss::Bytes;

namespace {

constexpr std::int64_t kUs = 1'000;
constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;
/// An expected output not seen within this long is a miss / failure.
constexpr std::int64_t kDeadline = 1 * kSec;
/// Generator-health guard: a phase whose sends ran later than this at the
/// median, or whose generator was busy more than kBusyLimit of the wall
/// time, measured the generator, not the gateway. (The median, not a tail
/// percentile: the hypervisor of a shared VM stalls any thread, spinning or
/// not, for whole milliseconds a few percent of the time; a generator that
/// falls behind is late on most sends.)
constexpr double kLateLimitUs = 200;
constexpr double kBusyLimit = 0.8;
/// The generator sleeps until this long before a send is due, then spins:
/// a sleeping thread's wake-up is late by ~0.1-1 ms on a VM.
constexpr std::int64_t kSpin = 100 * kUs;
/// The UPnP client keeps at most this many description GETs to the gateway
/// open at once and queues the rest, as HTTP clients limit their
/// connections per host (browsers: 6). The wait counts in the lookup's
/// latency. Unbounded, a burst of replies after a gateway stall opens more
/// connections than the gateway's listen backlog (16) holds; the kernel
/// drops the excess SYNs and each client waits 1 s to retransmit.
constexpr std::size_t kMaxGets = 6;
constexpr std::int64_t kLongAgo = INT64_MIN / 4;
/// Churned devices are picked only when their previous frame is this old,
/// so every output is attributable to exactly one input.
constexpr std::int64_t kChurnQuiet = 50 * kMs;
/// A device skips a re-announcement due this soon after its previous frame
/// (a churn rejoin), so each output follows the one frame that caused it.
constexpr std::int64_t kDeviceSpacing = 50 * kMs;

// The timers the generated advertisements carry, and the natural period at
// which a device re-sends each (perfbench/README.md derives the rates):
//  - SLP SrvReg lifetime 300 s; the SA re-registers as it runs out.
//  - SSDP CACHE-CONTROL max-age 1800 s (upnp::Notify's default); UDA 1.1
//    re-advertises within half of it.
//  - mDNS record TTL 120 s; RFC 6762 section 5.2 queriers refresh at 80 %
//    of the TTL and the responder's answer re-announces the records.
constexpr std::uint16_t kSlpLifetimeS = 300;
constexpr std::uint32_t kMdnsTtlS = 120;
double natural_period_s(SdpId sdp) {
  if (sdp == SdpId::kSlp) return kSlpLifetimeS;
  if (sdp == SdpId::kUpnp) return upnp::Notify{}.max_age_seconds / 2.0;
  return 0.8 * kMdnsTtlS;
}

constexpr SdpId kSdps[] = {SdpId::kSlp, SdpId::kUpnp, SdpId::kMdns};
int sdp_index(SdpId sdp) {
  return sdp == SdpId::kSlp ? 0 : sdp == SdpId::kUpnp ? 1 : 2;
}

/// What each workload offers; see perfbench/README.md for why each exists
/// and how its rates follow from the protocols' timers.
struct Shape {
  /// Set-ups per run (the measured instance plus fresh ones after it); the
  /// median is reported.
  int setups = 15;
  bool directory = false;
  std::size_t shards = 1;
  bool lookups = false;  // primary metric: lookup (else bridge)
  // Advertising fleet: every device re-announces on its own timer, its
  // natural period divided by `compression`; the hot subset every
  // `hot_period_s`. Byebye/rejoin churn runs at `churn_per_s`.
  std::size_t fleet = 0;
  std::size_t fleet_types = 1;
  double compression = 1;
  std::size_t hot = 0;
  double hot_period_s = 0;
  double churn_per_s = 0;
  // Directory: records pre-populated over the wire, their types, and the
  // query stream (`rate` per second, a `churn_share` of it insert/withdraw).
  std::size_t records = 0;
  std::size_t record_types = 0;
  double zipf_s = 1.0;
  std::size_t churn_devices = 0;
  double churn_share = 0;
  double rate = 0;
};

Shape shape_for(const std::string& name) {
  Shape s;
  if (name == "announce_fleet" || name == "announce_sharded") {
    s.shards = name == "announce_sharded" ? 2 : 1;
    s.fleet = 2048;
    s.fleet_types = 256;
    // A time-compressed stress rate. Right after a byebye bumps the cache
    // generation every advert misses, so the whole offered rate (~238/s)
    // must stay below what the TranslationCache can settle: 64 open
    // bundles per 200 ms settle, ~320 misses/s.
    s.compression = 8;
    // Fits the 256-entry TranslationCache with room for the tail's recent
    // misses. A repeat hits when it comes after the 200 ms settle and
    // before the next byebye bumps the cache generation (every ~2 s).
    s.hot = 129;
    s.hot_period_s = 0.8;
    // Every churned device must come out on another SDP (goodbye,
    // ssdp:byebye, re-announcement), which is what gives the required
    // bridge-latency samples; half the events are byebyes.
    s.churn_per_s = 1;
  } else if (name == "lookup_directory") {
    s.setups = 5;  // each takes ~2 s
    s.lookups = true;
    s.directory = true;
    s.records = 24'000;
    s.record_types = 3'000;
    s.zipf_s = 1.0;
    s.churn_devices = 96;
    s.churn_share = 0.005;
    // A browse storm: 2000 clients in the first second of continuous
    // querying (RFC 6762 section 5.2 spaces the first two queries 1 s).
    s.rate = 2000;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return s;
}

/// "<prefix><n>" zero-padded to the width `count` types need (min. 3).
std::string type_name(const char* prefix, std::size_t n, std::size_t count) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%0*zu", prefix, count > 1000 ? 4 : 3, n);
  return buf;
}

std::string upnp_device_type(const std::string& type) {
  return "urn:schemas-upnp-org:device:" + type + ":1";
}

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// --- Catalog ------------------------------------------------------------------

/// One advertising native device (announce workloads, directory records and
/// the directory's churn stream).
struct Device {
  SdpId sdp = SdpId::kSlp;
  std::string type;
  std::string url;  // identity the gateway carries into bridged frames
  Bytes alive;
  Bytes byebye;
  std::uint32_t alive_id = 0;
  std::uint32_t byebye_id = 0;
  // Run state.
  bool present = false;
  /// Schedule time (not wall time) of the device's last frame, so the
  /// spacing rules below decide alike on every run of a seed; frames sent
  /// at set-up count as long ago.
  std::int64_t last_sched = kLongAgo;
  /// Frames whose DNS-SD output may still arrive, oldest first: required
  /// ones (first announcement, goodbye) until seen or missed, optional ones
  /// (a cache replay of a re-announcement) until the deadline. An output is
  /// matched to the oldest required frame of its kind, else to the newest
  /// optional one: a replay leaves as its frame arrives, and a device's
  /// frames are spaced (kDeviceSpacing) further apart than a translation
  /// takes.
  struct Open {
    std::int64_t sched = 0;
    bool alive = true;
    bool required = false;
  };
  std::deque<Open> open;
};

struct Query {
  std::int64_t sched = 0;
  std::int64_t deadline = 0;
  std::uint32_t frame = 0;
  std::uint32_t index = 0;
  int client = 0;
};

struct TracedSample {
  std::int64_t sched = 0;
  std::int64_t recv = 0;
  std::uint32_t frame = kNoRequest;  // the input that caused the output
};

/// Why a lookup failed (the report breaks failures down by these).
enum FailKind : int {
  kFailLate,            // answered after the deadline
  kFailNoReplySlp,      // no reply to a query within the deadline
  kFailNoReplyUpnp,
  kFailNoReplyMdns,
  kFailConnect,         // description GET: connect() or SO_ERROR
  kFailClosed,          // description GET: closed before the response
  kFailTcpConnecting,   // description GET timed out, not yet connected
  kFailTcpResponse,     // description GET timed out, waiting for the response
  kFailTcpQueued,       // description GET timed out before its turn
  kFailKinds,
};
constexpr const char* kFailNames[kFailKinds] = {
    "late", "no_reply_slp", "no_reply_upnp", "no_reply_mdns",
    "tcp_connect", "tcp_closed", "tcp_timeout_connecting",
    "tcp_timeout_response", "tcp_timeout_queued"};

/// Measurements of one phase (set-up, warm-up, measured).
struct Window {
  std::vector<double> bridge_us;
  std::vector<double> lookup_us;
  std::vector<double> late_us;
  std::vector<TracedSample> traced;
  bool record_traced = false;
  std::uint64_t bridge_expected = 0;  // required outputs, counted at send
  std::uint64_t bridge_optional = 0;  // cache replays that did arrive
  std::uint64_t bridge_missed = 0;
  std::uint64_t lookups = 0;
  std::uint64_t lookups_failed = 0;
  std::uint64_t failed_by[kFailKinds] = {};
  std::uint64_t wrong = 0;
  std::uint64_t sent = 0;
  std::int64_t busy_ns = 0;  // generator time spent sending and receiving
  std::int64_t wall_ns = 0;
  /// CPU time of the gateway threads: the process's minus the generator's.
  std::int64_t gateway_cpu_ns = 0;
};

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.samples = samples.size();
  s.p50_us = percentile(samples, 50);
  s.p99_us = percentile(samples, 99);
  return s;
}

// --- Generator ------------------------------------------------------------------

enum Tag : std::uint64_t {
  kGroupSlp = 1,
  kGroupSsdp,
  kGroupMdns,
  kClientSlp,
  kClientUpnp,
  kClientMdns,
  kTcpBase = 1ull << 32,
};

/// A UPnP client's description GET to the gateway.
struct Conn {
  bool connected = false;
  std::unique_ptr<HttpReader> reader;
  std::string out;
  std::size_t out_off = 0;
  Query query;
};

class Generator {
 public:
  Generator(const RunConfig& config, Shape shape)
      : config_(config), shape_(std::move(shape)), rng_(config.seed) {
    build_catalog();
  }
  ~Generator() { close_sockets(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint32_t>&
  frame_index() const {
    return frame_index_;
  }
  [[nodiscard]] std::vector<std::string> query_types() const;

  void open_sockets();
  void close_sockets();
  /// Pre-populates a freshly started gateway and waits until it serves the
  /// workload. Throws when it does not converge.
  void setup(GatewayHost& gateway);
  /// Offers the workload's traffic for `seconds`, then drains until every
  /// expected output arrived or missed its deadline. The send schedule
  /// continues across phases; the drain does not count as schedule time.
  void phase(Window& window, double seconds);
  /// Sends per second the schedule offers.
  [[nodiscard]] double offered_rate() const;
  void inject_wrong();

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t sent_to_groups() const {
    return sent_to_groups_;
  }
  [[nodiscard]] std::uint64_t wrong_total() const { return wrong_total_; }
  [[nodiscard]] const std::vector<std::string>& wrong_examples() const {
    return wrong_examples_;
  }
  [[nodiscard]] std::uint64_t gateway_multicast() const {
    return gateway_multicast_;
  }
  /// Kernel drops on the gateway's well-known-port (monitor) sockets.
  [[nodiscard]] std::uint64_t monitor_drops() const;
  /// Kernel drops on the generator's own sockets.
  [[nodiscard]] std::uint64_t generator_drops() const;
  /// Forgets all run state so the next gateway instance starts clean.
  void reset();

  // Codec timing inputs: the run's own frames.
  [[nodiscard]] std::vector<const Bytes*> frames_of(SdpId sdp) const;
  [[nodiscard]] std::vector<std::string> descriptions() const;
  [[nodiscard]] std::vector<const Bytes*> all_frames() const;

 private:
  void build_catalog();
  void build_fleet(std::size_t count, std::size_t types, const char* prefix,
                   std::size_t first_index);
  void build_timers();
  void build_directory();
  std::uint32_t register_frame(const Bytes& frame, std::size_t skip_at);

  // Sending.
  void send_group(SdpId sdp, const Bytes& frame);
  void send_alive(std::uint32_t device, std::int64_t sched, bool expect);
  void send_byebye(std::uint32_t device, std::int64_t sched);
  /// Schedule time (see lag_) of the next send, and that send.
  [[nodiscard]] std::int64_t next_due() const;
  /// The schedule time of a send due at wall time `wall` (set-up: kLongAgo).
  [[nodiscard]] std::int64_t schedule_time(std::int64_t wall) const {
    return lag_ < 0 ? kLongAgo : wall - lag_;
  }
  void fire(std::int64_t sched);
  void churn_slot(std::int64_t sched);
  void lookup_slot(std::int64_t sched);
  void send_query(int client, std::uint32_t index, std::int64_t sched);

  // Receiving.
  void poll(std::int64_t timeout_ns);
  void on_udp(std::uint64_t tag, int fd);
  void on_group(SdpId sdp, const std::uint8_t* data, std::size_t len,
                std::int64_t t);
  void on_mdns_output(const MdnsFrame& frame, std::int64_t t);
  void on_ssdp_notify(const SsdpFrame& frame, std::int64_t t);
  void check_request(SdpId sdp, const std::uint8_t* data, std::size_t len);
  void on_client_reply(int client, const std::uint8_t* data, std::size_t len,
                       std::int64_t t);
  void on_tcp(int fd, std::uint32_t events);
  void start_description_get(const Query& query, const std::string& location);
  void finish_conn(int fd);
  void complete_lookup(const Query& query, std::int64_t t);
  void sweep(std::int64_t now);
  [[nodiscard]] bool outstanding() const;
  void wrong(std::string why);
  void fail_lookup(FailKind kind);
  void bridge_sample(std::int64_t sched, std::int64_t t, std::uint32_t frame);

  [[nodiscard]] bool url_ok(std::uint32_t index, std::string_view url) const;
  [[nodiscard]] std::uint32_t index_of_type(const std::string& type) const;

  RunConfig config_;
  Shape shape_;
  Rng rng_;

  std::vector<Device> devices_;
  std::unordered_map<std::string, std::uint32_t> device_by_url_;
  std::vector<std::uint32_t> hot_;
  std::vector<std::uint32_t> tail_;
  std::vector<std::uint32_t> churn_pool_;
  std::deque<std::uint32_t> absent_;
  bool rejoin_next_ = false;
  // Announce workloads: each device's re-announcement period and the
  // pending re-announcements, earliest first (schedule time, device).
  std::vector<std::int64_t> period_ns_;
  std::priority_queue<std::pair<std::int64_t, std::uint32_t>,
                      std::vector<std::pair<std::int64_t, std::uint32_t>>,
                      std::greater<>>
      timers_;
  std::int64_t next_churn_ = 0;
  std::int64_t churn_interval_ = 0;
  // Lookup workloads: the next query slot and the slot interval.
  std::int64_t next_slot_ = 0;
  std::int64_t slot_interval_ = 0;
  // Schedule time runs only during phases: real send time = schedule time
  // + lag_. `stopped_at_` is where the last phase's schedule stopped.
  std::int64_t lag_ = -1;
  std::int64_t stopped_at_ = 0;
  // Directory workload: per queried type, the URLs of its records.
  std::vector<std::string> record_types_;
  std::vector<std::vector<std::string>> type_urls_;
  std::unique_ptr<Zipf> zipf_;
  // Client queries: [client sdp][index] -> frame (+ its request id).
  std::vector<Bytes> queries_[3];
  std::vector<std::uint32_t> query_ids_[3];
  std::unordered_map<std::uint64_t, std::uint32_t> frame_index_;
  std::uint32_t next_frame_id_ = 0;

  // Sockets.
  Poller poller_;
  int groups_[3] = {-1, -1, -1};
  int clients_[3] = {-1, -1, -1};
  int tx_ = -1;
  std::vector<bool> own_ports_ = std::vector<bool>(65536, false);
  std::set<std::uint64_t> own_inodes_;
  std::vector<std::string> received_descriptions_;
  std::unordered_map<int, Conn> conns_;
  /// Description GETs waiting for a connection slot (kMaxGets).
  std::deque<std::pair<Query, std::string>> gets_waiting_;
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(65536);

  // Expectations.
  std::vector<std::uint32_t> awaiting_devices_;
  std::unordered_map<std::string, std::deque<std::pair<std::int64_t, std::uint32_t>>>
      ssdp_byebyes_;
  std::size_t ssdp_byebyes_pending_ = 0;
  std::unordered_map<std::uint32_t, std::deque<Query>> pending_;
  std::size_t pending_count_ = 0;

  Window* window_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t sent_to_groups_ = 0;
  std::uint64_t wrong_total_ = 0;
  std::uint64_t gateway_multicast_ = 0;
  std::vector<std::string> wrong_examples_;
  std::int64_t last_sweep_ = 0;
};

std::uint32_t Generator::register_frame(const Bytes& frame,
                                        std::size_t skip_at) {
  std::uint32_t id = next_frame_id_++;
  frame_index_[frame_hash(frame.data(), frame.size(), skip_at)] = id;
  return id;
}

void Generator::build_fleet(std::size_t count, std::size_t types,
                            const char* prefix, std::size_t first_index) {
  for (std::size_t n = 0; n < count; ++n) {
    std::size_t i = first_index + n;
    Device d;
    d.sdp = kSdps[i % 3];
    d.type = type_name(prefix, n % types, types);
    std::string id = std::string(prefix) + std::to_string(i);
    if (d.sdp == SdpId::kUpnp) {
      upnp::Notify notify;
      notify.kind = upnp::Notify::Kind::kAlive;
      notify.nt = upnp_device_type(d.type);
      notify.usn = "uuid:" + id + "::" + notify.nt;
      notify.location = "http://127.0.0.1:9/" + id + ".xml";
      notify.server = "perfbench/1.0 UPnP/1.0";
      std::string wire;
      notify.serialize_into(wire);
      d.alive = to_bytes(wire);
      notify.kind = upnp::Notify::Kind::kByeBye;
      notify.location.clear();
      notify.serialize_into(wire);
      d.byebye = to_bytes(wire);
      d.url = "http://127.0.0.1:9/" + id + ".xml";
    } else if (d.sdp == SdpId::kMdns) {
      d.url = "soap://127.0.0.1:9/" + id;
      std::string qname = "_" + d.type + "._tcp.local";
      std::string instance = id + "." + qname;
      std::string host = id + ".local";
      for (std::uint32_t ttl : {kMdnsTtlS, 0u}) {
        mdns::DnsMessage m;
        m.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
        mdns::DnsRecord ptr;
        ptr.name = qname;
        ptr.type = mdns::kTypePtr;
        ptr.ttl = ttl;
        ptr.target = instance;
        m.answers.push_back(ptr);
        mdns::DnsRecord srv;
        srv.name = instance;
        srv.type = mdns::kTypeSrv;
        srv.cache_flush = true;
        srv.ttl = ttl;
        srv.target = host;
        srv.port = 9;
        m.additionals.push_back(srv);
        mdns::DnsRecord txt;
        txt.name = instance;
        txt.type = mdns::kTypeTxt;
        txt.cache_flush = true;
        txt.ttl = ttl;
        txt.txt = {{"url", d.url}, {"name", id}};
        m.additionals.push_back(txt);
        mdns::DnsRecord a;
        a.name = host;
        a.type = mdns::kTypeA;
        a.cache_flush = true;
        a.ttl = ttl;
        a.address = indiss::net::IpAddress(127, 0, 0, 1);
        m.additionals.push_back(a);
        (ttl != 0 ? d.alive : d.byebye) = mdns::encode(m);
      }
    } else {
      d.url = "soap://127.0.0.1:9/" + id;
      slp::SrvReg reg;
      reg.header.flags = slp::kFlagFresh;
      reg.header.xid = static_cast<std::uint16_t>(i);
      reg.url_entry.lifetime_seconds = kSlpLifetimeS;
      reg.url_entry.url = "service:" + d.type + ":" + d.url;
      reg.service_type = "service:" + d.type;
      reg.attr_list = "(name=" + id + ")";
      d.alive = slp::encode(slp::Message(reg));
      slp::SrvDeReg dereg;
      dereg.header.xid = static_cast<std::uint16_t>(i);
      dereg.url_entry = reg.url_entry;
      d.byebye = slp::encode(slp::Message(dereg));
    }
    d.alive_id = register_frame(d.alive, SIZE_MAX);
    d.byebye_id = register_frame(d.byebye, SIZE_MAX);
    device_by_url_[d.url] = static_cast<std::uint32_t>(devices_.size());
    devices_.push_back(std::move(d));
  }
}

void Generator::build_directory() {
  // Records: `records` adverts over `record_types` types, origin SDP
  // round-robin, pre-populated over the wire at set-up.
  build_fleet(shape_.records, shape_.record_types, "dt", 0);
  record_types_.resize(shape_.record_types);
  type_urls_.resize(shape_.record_types);
  for (std::size_t t = 0; t < shape_.record_types; ++t) {
    record_types_[t] = type_name("dt", t, shape_.record_types);
  }
  for (const Device& d : devices_) {
    std::size_t t = index_of_type(d.type);
    type_urls_[t].push_back(d.url);
  }
  // The churn stream: separate types, never queried.
  std::size_t first = devices_.size();
  build_fleet(shape_.churn_devices, 16, "dc", first);
  for (std::size_t i = first; i < devices_.size(); ++i) {
    churn_pool_.push_back(static_cast<std::uint32_t>(i));
  }
  zipf_ = std::make_unique<Zipf>(shape_.record_types, shape_.zipf_s);
  for (int client = 0; client < 3; ++client) {
    for (std::uint32_t t = 0; t < shape_.record_types; ++t) {
      const std::string& type = record_types_[t];
      Bytes frame;
      if (client == 0) {
        slp::SrvRqst rqst;
        rqst.header.flags = slp::kFlagRequestMcast;
        rqst.header.xid = static_cast<std::uint16_t>(t + 1);
        rqst.service_type = "service:" + type;
        frame = slp::encode(slp::Message(rqst));
      } else if (client == 1) {
        upnp::SearchRequest search;
        search.st = upnp_device_type(type);
        search.mx = 1;
        search.user_agent = "perfbench/1.0 UPnP/1.0";
        std::string wire;
        search.serialize_into(wire);
        frame = to_bytes(wire);
      } else {
        mdns::DnsMessage q;
        q.id = static_cast<std::uint16_t>(t + 1);
        q.questions.push_back(
            mdns::DnsQuestion{"_" + type + "._tcp.local", mdns::kTypePtr});
        frame = mdns::encode(q);
      }
      query_ids_[client].push_back(register_frame(frame, SIZE_MAX));
      queries_[client].push_back(std::move(frame));
    }
  }
}

std::uint32_t Generator::index_of_type(const std::string& type) const {
  if (shape_.record_types == 0 || type.rfind("dt", 0) != 0) return UINT32_MAX;
  auto index = std::strtoul(type.c_str() + 2, nullptr, 10);
  return index < shape_.record_types ? static_cast<std::uint32_t>(index)
                                     : UINT32_MAX;
}

void Generator::build_catalog() {
  if (shape_.fleet > 0) {
    build_fleet(shape_.fleet, shape_.fleet_types, "fl", 0);
    std::vector<std::uint32_t> order(devices_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.below(i)]);
    }
    // The hot subset takes the same number of devices from each SDP, so
    // its mix (and the work it causes) is the same on every seed.
    std::size_t quota[3] = {shape_.hot / 3, shape_.hot / 3, shape_.hot / 3};
    for (std::uint32_t i : order) {
      std::size_t& left = quota[sdp_index(devices_[i].sdp)];
      if (left > 0) {
        --left;
        hot_.push_back(i);
      } else {
        tail_.push_back(i);
      }
    }
    churn_pool_ = tail_;
    build_timers();
  }
  if (shape_.records > 0) {
    build_directory();
    slot_interval_ = static_cast<std::int64_t>(1e9 / shape_.rate);
  }
}

void Generator::build_timers() {
  // Each device re-announces periodically from a seeded phase, so the
  // schedule is the same for the same seed.
  period_ns_.resize(devices_.size());
  for (std::uint32_t i : tail_) {
    period_ns_[i] = static_cast<std::int64_t>(
        natural_period_s(devices_[i].sdp) / shape_.compression * 1e9);
  }
  for (std::uint32_t i : hot_) {
    period_ns_[i] = static_cast<std::int64_t>(shape_.hot_period_s * 1e9);
  }
  auto phase = [&](std::int64_t period) {
    return static_cast<std::int64_t>(rng_.unit() * static_cast<double>(period));
  };
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    timers_.emplace(phase(period_ns_[i]), i);
  }
  churn_interval_ = static_cast<std::int64_t>(1e9 / shape_.churn_per_s);
  next_churn_ = phase(churn_interval_);
}

double Generator::offered_rate() const {
  if (shape_.lookups) return shape_.rate;
  double rate = shape_.churn_per_s;
  for (std::int64_t p : period_ns_) rate += 1e9 / static_cast<double>(p);
  return rate;
}

std::vector<std::string> Generator::query_types() const {
  std::vector<std::string> types;
  if (!record_types_.empty()) {
    Rng rng(config_.seed + 7);
    for (int i = 0; i < 2000; ++i) types.push_back(record_types_[zipf_->sample(rng)]);
  }
  return types;
}

// --- Sockets ---------------------------------------------------------------------

void Generator::open_sockets() {
  const std::uint32_t groups[3] = {kSlpGroup, kSsdpGroup, kMdnsGroup};
  const std::uint16_t ports[3] = {kSlpPort, kSsdpPort, kMdnsPort};
  const std::uint64_t group_tags[3] = {kGroupSlp, kGroupSsdp, kGroupMdns};
  const std::uint64_t client_tags[3] = {kClientSlp, kClientUpnp, kClientMdns};
  for (int i = 0; i < 3; ++i) {
    groups_[i] = open_udp(ports[i], groups[i]);
    poller_.add(groups_[i], EPOLLIN, group_tags[i]);
    clients_[i] = open_udp(0);
    own_ports_[local_port(clients_[i])] = true;
    poller_.add(clients_[i], EPOLLIN, client_tags[i]);
  }
  tx_ = open_udp(0);
  own_ports_[local_port(tx_)] = true;
  for (int fd : {groups_[0], groups_[1], groups_[2], clients_[0], clients_[1],
                 clients_[2], tx_}) {
    own_inodes_.insert(socket_inode(fd));
  }
}

void Generator::close_sockets() {
  for (auto& [fd, conn] : conns_) close(fd);
  conns_.clear();
  for (int* fd : {&groups_[0], &groups_[1], &groups_[2], &clients_[0],
                  &clients_[1], &clients_[2], &tx_}) {
    if (*fd >= 0) close(*fd);
    *fd = -1;
  }
}

void Generator::reset() {
  // Frames the stopped gateway emitted but nobody read yet belong to the
  // old instance: discard them.
  for (int fd : {groups_[0], groups_[1], groups_[2], clients_[0], clients_[1],
                 clients_[2]}) {
    while (recv(fd, buf_.data(), buf_.size(), 0) >= 0) {
    }
  }
  for (auto& [fd, conn] : conns_) {
    poller_.remove(fd);
    close_abortive(fd);
  }
  conns_.clear();
  gets_waiting_.clear();
  for (Device& d : devices_) {
    d.present = false;
    d.last_sched = kLongAgo;
    d.open.clear();
  }
  lag_ = -1;
  stopped_at_ = 0;
  absent_.clear();
  rejoin_next_ = false;
  awaiting_devices_.clear();
  ssdp_byebyes_.clear();
  ssdp_byebyes_pending_ = 0;
  pending_.clear();
  pending_count_ = 0;
  sent_ = 0;
  sent_to_groups_ = 0;
  gateway_multicast_ = 0;
}

std::uint64_t Generator::monitor_drops() const {
  std::uint64_t drops = 0;
  std::set<std::uint64_t> mine = process_socket_inodes();
  for (const UdpRow& row : udp_table()) {
    if (!mine.contains(row.inode) || own_inodes_.contains(row.inode)) continue;
    if (row.port == kSlpPort || row.port == kSsdpPort || row.port == kMdnsPort) {
      drops += row.drops;
    }
  }
  return drops;
}

std::uint64_t Generator::generator_drops() const {
  std::uint64_t drops = 0;
  for (const UdpRow& row : udp_table()) {
    if (own_inodes_.contains(row.inode)) drops += row.drops;
  }
  return drops;
}

// --- Sending ---------------------------------------------------------------------

void Generator::send_group(SdpId sdp, const Bytes& frame) {
  static const std::uint32_t kGroups[3] = {kSlpGroup, kSsdpGroup, kMdnsGroup};
  static const std::uint16_t kPorts[3] = {kSlpPort, kSsdpPort, kMdnsPort};
  int i = sdp_index(sdp);
  if (!send_udp(tx_, kGroups[i], kPorts[i], frame.data(), frame.size())) {
    throw std::runtime_error(std::string("sendto failed: ") +
                             std::strerror(errno));
  }
  ++sent_;
  ++sent_to_groups_;
  if (window_ != nullptr) ++window_->sent;
}

void Generator::send_alive(std::uint32_t index, std::int64_t sched,
                           bool expect) {
  Device& d = devices_[index];
  std::erase_if(d.open, [&](const Device::Open& o) {
    return !o.required && sched - o.sched > kDeadline;
  });
  bool rejoin = !d.present;
  d.present = true;
  d.last_sched = schedule_time(sched);
  // A first (or rejoining) announcement of a non-mDNS device must come out
  // as a DNS-SD announcement; a repeat may (translation-cache replay) or
  // may not (already-bridged refresh) produce one.
  if (d.sdp != SdpId::kMdns) {
    bool required = expect && rejoin;
    d.open.push_back(Device::Open{sched, true, required});
    if (required) {
      awaiting_devices_.push_back(index);
      if (window_ != nullptr) ++window_->bridge_expected;
    }
  }
  send_group(d.sdp, d.alive);
}

void Generator::send_byebye(std::uint32_t index, std::int64_t sched) {
  Device& d = devices_[index];
  d.present = false;
  d.last_sched = schedule_time(sched);
  if (d.sdp != SdpId::kMdns) {  // DNS-SD goodbye
    d.open.push_back(Device::Open{sched, false, true});
    awaiting_devices_.push_back(index);
    if (window_ != nullptr) ++window_->bridge_expected;
  }
  if (d.sdp != SdpId::kUpnp) {
    // The UPnP unit retracts the device it impersonated with ssdp:byebye.
    ssdp_byebyes_[d.type].emplace_back(sched, d.byebye_id);
    ++ssdp_byebyes_pending_;
    if (window_ != nullptr) ++window_->bridge_expected;
  }
  absent_.push_back(index);
  send_group(d.sdp, d.byebye);
}

void Generator::churn_slot(std::int64_t sched) {
  // Withdrawals and rejoins alternate, so every seed churns alike (each
  // processed byebye also bumps the gateway's cache generation).
  if (rejoin_next_ && !absent_.empty() &&
      schedule_time(sched) - devices_[absent_.front()].last_sched > kChurnQuiet) {
    std::uint32_t index = absent_.front();
    absent_.pop_front();
    send_alive(index, sched, true);
    rejoin_next_ = false;
    return;
  }
  for (int tries = 0; tries < 16; ++tries) {
    std::uint32_t index = churn_pool_[rng_.below(churn_pool_.size())];
    const Device& d = devices_[index];
    if (d.present && schedule_time(sched) - d.last_sched > kChurnQuiet) {
      send_byebye(index, sched);
      rejoin_next_ = true;
      return;
    }
  }
}

void Generator::send_query(int client, std::uint32_t index,
                           std::int64_t sched) {
  const Bytes& frame = queries_[client][index];
  static const std::uint32_t kGroups[3] = {kSlpGroup, kSsdpGroup, kMdnsGroup};
  static const std::uint16_t kPorts[3] = {kSlpPort, kSsdpPort, kMdnsPort};
  if (!send_udp(clients_[client], kGroups[client], kPorts[client],
                frame.data(), frame.size())) {
    throw std::runtime_error(std::string("sendto failed: ") +
                             std::strerror(errno));
  }
  ++sent_;
  ++sent_to_groups_;
  Query q;
  q.sched = sched;
  q.deadline = sched + kDeadline;
  q.frame = query_ids_[client][index];
  q.index = index;
  q.client = client;
  pending_[static_cast<std::uint32_t>(client) << 16 | index].push_back(q);
  ++pending_count_;
  if (window_ != nullptr) {
    ++window_->sent;
    ++window_->lookups;
  }
}

void Generator::lookup_slot(std::int64_t sched) {
  if (rng_.unit() < shape_.churn_share) {
    churn_slot(sched);
    return;
  }
  auto type = static_cast<std::uint32_t>(zipf_->sample(rng_));
  send_query(static_cast<int>(rng_.below(3)), type, sched);
}

std::int64_t Generator::next_due() const {
  if (shape_.lookups) return next_slot_;
  return std::min(next_churn_, timers_.top().first);
}

void Generator::fire(std::int64_t sched) {
  if (shape_.lookups) {
    lookup_slot(sched);
    next_slot_ += slot_interval_;
    return;
  }
  if (next_churn_ <= timers_.top().first) {
    churn_slot(sched);
    next_churn_ += churn_interval_;
    return;
  }
  auto [due, index] = timers_.top();
  timers_.pop();
  timers_.emplace(due + period_ns_[index], index);
  const Device& d = devices_[index];
  // A churned-away device stays silent until it rejoins.
  if (d.present && schedule_time(sched) - d.last_sched >= kDeviceSpacing) {
    send_alive(index, sched, false);
  }
}

// --- Receiving ---------------------------------------------------------------------

void Generator::wrong(std::string why) {
  ++wrong_total_;
  if (window_ != nullptr) ++window_->wrong;
  if (wrong_examples_.size() < 8) wrong_examples_.push_back(std::move(why));
}

void Generator::fail_lookup(FailKind kind) {
  if (window_ == nullptr) return;
  ++window_->lookups_failed;
  ++window_->failed_by[kind];
}

void Generator::bridge_sample(std::int64_t sched, std::int64_t t,
                              std::uint32_t frame) {
  if (window_ == nullptr) return;
  window_->bridge_us.push_back(static_cast<double>(t - sched) / kUs);
  if (window_->record_traced) {
    window_->traced.push_back(TracedSample{sched, t, frame});
  }
}

void Generator::poll(std::int64_t timeout_ns) {
  int n = poller_.wait(timeout_ns);
  const std::int64_t start = n > 0 ? now_ns() : 0;
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = poller_.event(i);
    std::uint64_t tag = ev.data.u64;
    if (tag >= kTcpBase) {
      on_tcp(static_cast<int>(tag - kTcpBase), ev.events);
    } else {
      int fd = tag <= kGroupMdns ? groups_[tag - kGroupSlp]
                                 : clients_[tag - kClientSlp];
      on_udp(tag, fd);
    }
  }
  std::int64_t now = now_ns();
  if (now - last_sweep_ > kMs) sweep(now);
  if (n > 0 && window_ != nullptr) window_->busy_ns += now_ns() - start;
}

void Generator::on_udp(std::uint64_t tag, int fd) {
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ssize_t n = recvfrom(fd, buf_.data(), buf_.size(), 0,
                         reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) return;  // EAGAIN: drained
    std::int64_t t = now_ns();
    std::uint16_t port = ntohs(from.sin_port);
    auto len = static_cast<std::size_t>(n);
    if (tag <= kGroupMdns) {
      if (own_ports_[port]) continue;  // our own multicast, looped back
      ++gateway_multicast_;
      on_group(kSdps[tag - kGroupSlp], buf_.data(), len, t);
    } else {
      on_client_reply(static_cast<int>(tag - kClientSlp), buf_.data(), len, t);
    }
  }
}

void Generator::on_group(SdpId sdp, const std::uint8_t* data, std::size_t len,
                         std::int64_t t) {
  indiss::BytesView wire(data, len);
  if (sdp == SdpId::kMdns) {
    MdnsFrame frame;
    if (!read_mdns(wire, frame)) return wrong("undecodable mDNS frame");
    if (!frame.response) return check_request(sdp, data, len);
    return on_mdns_output(frame, t);
  }
  if (sdp == SdpId::kUpnp) {
    SsdpFrame frame;
    if (!read_ssdp(wire, frame)) return wrong("undecodable SSDP frame");
    if (frame.kind == SsdpFrame::Kind::kSearch) {
      return check_request(sdp, data, len);
    }
    if (frame.kind == SsdpFrame::Kind::kResponse) {
      return wrong("SSDP search response on the group");
    }
    return on_ssdp_notify(frame, t);
  }
  SlpFrame frame;
  if (!read_slp(wire, frame)) return wrong("undecodable SLP frame");
  if (frame.function == static_cast<std::uint8_t>(slp::FunctionId::kSrvRqst)) {
    return check_request(sdp, data, len);
  }
  if (frame.function == static_cast<std::uint8_t>(slp::FunctionId::kDAAdvert)) {
    return;  // directory mode announces the gateway as an SLP DA
  }
  wrong("unexpected SLP function " + std::to_string(frame.function));
}

void Generator::on_mdns_output(const MdnsFrame& frame, std::int64_t t) {
  if (!frame.marker) return wrong("mDNS response without the bridge marker");
  if (frame.groups.empty()) return wrong("mDNS response naming no service");
  for (const auto& group : frame.groups) {
    if (!group.txt_stamp) return wrong("mDNS TXT without bridged-by stamp");
    auto it = device_by_url_.find(group.url);
    if (it == device_by_url_.end()) {
      return wrong("mDNS announcement for unknown url " + group.url);
    }
    Device& d = devices_[it->second];
    if (d.sdp == SdpId::kMdns) {
      return wrong("mDNS device re-announced into mDNS: " + group.url);
    }
    if (group.type != d.type) {
      return wrong("mDNS announcement of " + group.url + " under type " +
                   group.type + ", device type " + d.type);
    }
    const bool alive = !group.goodbye;
    auto match = std::find_if(d.open.begin(), d.open.end(),
                              [&](const Device::Open& o) {
                                return o.alive == alive && o.required;
                              });
    if (match == d.open.end()) {
      auto newest = std::find_if(d.open.rbegin(), d.open.rend(),
                                 [&](const Device::Open& o) {
                                   return o.alive == alive;
                                 });
      if (newest != d.open.rend()) match = std::prev(newest.base());
    }
    if (match == d.open.end()) {
      return wrong(std::string("unexpected mDNS ") +
                   (group.goodbye ? "goodbye" : "announcement") + " for " +
                   group.url);
    }
    if (!match->required && window_ != nullptr) ++window_->bridge_optional;
    bridge_sample(match->sched, t, match->alive ? d.alive_id : d.byebye_id);
    d.open.erase(match);
  }
}

void Generator::on_ssdp_notify(const SsdpFrame& frame, std::int64_t t) {
  if (frame.usn.rfind("uuid:indiss-", 0) != 0) {
    return wrong("SSDP NOTIFY without the gateway's USN: " + frame.usn);
  }
  if (frame.kind == SsdpFrame::Kind::kAlive) {
    // Active advertising (off by default) would re-announce foreign
    // services; accepted only for a type some present device offers.
    for (const Device& d : devices_) {
      if (d.present && d.type == frame.type && d.sdp != SdpId::kUpnp) return;
    }
    return wrong("SSDP alive for type " + frame.type);
  }
  auto it = ssdp_byebyes_.find(frame.type);
  if (it == ssdp_byebyes_.end() || it->second.empty()) {
    return wrong("unexpected SSDP byebye for type " + frame.type);
  }
  auto [sched, id] = it->second.front();
  it->second.pop_front();
  --ssdp_byebyes_pending_;
  bridge_sample(sched, t, id);
}

void Generator::check_request(SdpId sdp, const std::uint8_t* data,
                              std::size_t len) {
  // A request the gateway bridged must carry the bridge stamp and name a
  // type some generated client asked for.
  indiss::BytesView wire(data, len);
  std::string type;
  bool stamped = false;
  if (sdp == SdpId::kSlp) {
    SlpFrame frame;
    read_slp(wire, frame);
    type = frame.type;
    stamped = frame.previous_responders.find(kBridgeStamp) != std::string::npos;
  } else if (sdp == SdpId::kUpnp) {
    SsdpFrame frame;
    read_ssdp(wire, frame);
    type = frame.type;
    stamped = frame.agent.find(kBridgeStamp) != std::string::npos;
  } else {
    MdnsFrame frame;
    read_mdns(wire, frame);
    type = frame.question_type;
    stamped = frame.marker;
  }
  if (!stamped) return wrong("bridged " + std::string(core::sdp_name(sdp)) +
                             " request without the bridge stamp");
  if (index_of_type(type) == UINT32_MAX) {
    return wrong("bridged request for unknown type " + type);
  }
}

bool Generator::url_ok(std::uint32_t index, std::string_view url) const {
  if (index >= type_urls_.size()) return false;
  for (const auto& u : type_urls_[index]) {
    if (u == url) return true;
  }
  return false;
}

void Generator::on_client_reply(int client, const std::uint8_t* data,
                                std::size_t len, std::int64_t t) {
  indiss::BytesView wire(data, len);
  std::uint32_t index = UINT32_MAX;
  std::string location;
  if (client == 0) {
    SlpFrame frame;
    if (!read_slp(wire, frame) ||
        frame.function != static_cast<std::uint8_t>(slp::FunctionId::kSrvRply)) {
      return wrong("SLP client got a non-SrvRply");
    }
    index = static_cast<std::uint32_t>(frame.xid) - 1;
    std::string type = index < record_types_.size() ? record_types_[index] : "";
    if (frame.urls.empty()) return wrong("SLP reply with no URL");
    for (const auto& entry : frame.urls) {
      std::string prefix = "service:" + type + ":";
      if (type.empty() || entry.rfind(prefix, 0) != 0) {
        return wrong("SLP reply entry " + entry + " for xid " +
                     std::to_string(frame.xid));
      }
      std::string_view url = std::string_view(entry).substr(prefix.size());
      url = url.substr(0, url.find(';'));  // attributes folded into the URL
      if (!url_ok(index, url)) {
        return wrong("SLP reply names " + std::string(url) + " for " + type);
      }
    }
  } else if (client == 2) {
    MdnsFrame frame;
    if (!read_mdns(wire, frame) || !frame.response) {
      return wrong("mDNS client got a non-response");
    }
    if (!frame.marker) return wrong("mDNS reply without the bridge marker");
    index = static_cast<std::uint32_t>(frame.id) - 1;
    if (frame.groups.empty()) return wrong("mDNS reply naming no service");
    for (const auto& group : frame.groups) {
      if (!group.txt_stamp || !url_ok(index, group.url)) {
        return wrong("mDNS reply names " + group.url + " for id " +
                     std::to_string(frame.id));
      }
    }
  } else {
    SsdpFrame frame;
    if (!read_ssdp(wire, frame) || frame.kind != SsdpFrame::Kind::kResponse) {
      return wrong("UPnP client got a non-response");
    }
    if (frame.agent.find(kBridgeStamp) == std::string::npos) {
      return wrong("SSDP response without the bridge stamp");
    }
    index = index_of_type(frame.type);
    location = frame.location;
  }
  auto it = pending_.find(static_cast<std::uint32_t>(client) << 16 | index);
  if (it == pending_.end() || it->second.empty()) return;  // late duplicate
  Query query = it->second.front();
  it->second.pop_front();
  --pending_count_;
  if (client == 1) {
    start_description_get(query, location);
    return;
  }
  complete_lookup(query, t);
}

void Generator::complete_lookup(const Query& query, std::int64_t t) {
  if (window_ == nullptr) return;
  if (t > query.deadline) return fail_lookup(kFailLate);
  double us = static_cast<double>(t - query.sched) / kUs;
  window_->lookup_us.push_back(us);
  if (window_->record_traced) {
    window_->traced.push_back(TracedSample{query.sched, t, query.frame});
  }
}

void Generator::start_description_get(const Query& query,
                                      const std::string& location) {
  // http://127.0.0.1:<port><path>
  const std::string prefix = "http://127.0.0.1:";
  if (location.rfind(prefix, 0) != 0) {
    return wrong("SSDP response LOCATION " + location);
  }
  std::size_t slash = location.find('/', prefix.size());
  auto port = static_cast<std::uint16_t>(
      std::strtoul(location.c_str() + prefix.size(), nullptr, 10));
  std::string path = slash == std::string::npos ? "/" : location.substr(slash);
  if (conns_.size() >= kMaxGets) {
    gets_waiting_.emplace_back(query, location);
    return;
  }
  int fd = tcp_connect(port);
  if (fd < 0) return fail_lookup(kFailConnect);
  Conn conn;
  conn.query = query;
  conn.reader = std::make_unique<HttpReader>();
  conn.out = "GET " + path + " HTTP/1.1\r\nHOST: 127.0.0.1:" +
             std::to_string(port) + "\r\n\r\n";
  poller_.add(fd, EPOLLOUT | EPOLLIN, kTcpBase + static_cast<std::uint64_t>(fd));
  conns_.emplace(fd, std::move(conn));
}

void Generator::finish_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  poller_.remove(fd);
  close_abortive(fd);
  conns_.erase(it);
  if (!gets_waiting_.empty()) {
    auto [query, location] = std::move(gets_waiting_.front());
    gets_waiting_.pop_front();
    start_description_get(query, location);
  }
}

void Generator::on_tcp(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  std::int64_t t = now_ns();
  if (!conn.connected && (events & (EPOLLOUT | EPOLLERR))) {
    int err = 0;
    socklen_t err_len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      fail_lookup(kFailConnect);
      return finish_conn(fd);
    }
    conn.connected = true;
  }
  if (conn.out_off < conn.out.size() && (events & EPOLLOUT)) {
    ssize_t n = send(fd, conn.out.data() + conn.out_off,
                     conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) conn.out_off += static_cast<std::size_t>(n);
    if (conn.out_off == conn.out.size()) {
      poller_.modify(fd, EPOLLIN, kTcpBase + static_cast<std::uint64_t>(fd));
    }
  }
  if (!(events & (EPOLLIN | EPOLLHUP | EPOLLERR))) return;
  for (;;) {
    ssize_t n = recv(fd, buf_.data(), buf_.size(), 0);
    if (n < 0 && errno == EAGAIN) return;
    if (n <= 0) {
      fail_lookup(kFailClosed);
      return finish_conn(fd);
    }
    if (!conn.reader->feed(buf_.data(), static_cast<std::size_t>(n))) {
      if (conn.reader->failed()) {
        wrong("malformed description response");
        return finish_conn(fd);
      }
      continue;
    }
    std::string device_type;
    std::string control_url;
    if (received_descriptions_.size() < 64) {
      received_descriptions_.push_back(conn.reader->body());
    }
    if (conn.reader->status() != 200 ||
        !read_description(conn.reader->body(), device_type, control_url) ||
        !url_ok(conn.query.index, control_url)) {
      wrong("description names " + control_url + " (" + device_type + ")");
    } else {
      complete_lookup(conn.query, t);
    }
    return finish_conn(fd);
  }
}

void Generator::sweep(std::int64_t now) {
  last_sweep_ = now_ns();  // `now` runs ahead when a phase's end forces expiry
  // Devices with a frame whose output is required; the list may hold a
  // device more than once, so it is rebuilt from the devices' own state.
  std::vector<std::uint32_t> still;
  for (std::uint32_t index : awaiting_devices_) {
    Device& d = devices_[index];
    while (!d.open.empty() && now - d.open.front().sched > kDeadline) {
      if (d.open.front().required) {
        if (window_ != nullptr) ++window_->bridge_missed;
        if (wrong_examples_.size() < 8) {
          wrong_examples_.push_back("missed mDNS output for " + d.url);
        }
      }
      d.open.pop_front();
    }
    bool required = std::any_of(d.open.begin(), d.open.end(),
                                [](const Device::Open& o) { return o.required; });
    if (required && (still.empty() || still.back() != index)) {
      still.push_back(index);
    }
  }
  awaiting_devices_.swap(still);
  for (auto& [type, queue] : ssdp_byebyes_) {
    while (!queue.empty() && now - queue.front().first > kDeadline) {
      queue.pop_front();
      --ssdp_byebyes_pending_;
      if (window_ != nullptr) ++window_->bridge_missed;
    }
  }
  for (auto& [key, queue] : pending_) {
    while (!queue.empty() && now > queue.front().deadline) {
      fail_lookup(static_cast<FailKind>(kFailNoReplySlp + queue.front().client));
      queue.pop_front();
      --pending_count_;
    }
  }
  std::vector<int> expired;
  for (const auto& [fd, conn] : conns_) {
    if (now > conn.query.deadline) expired.push_back(fd);
  }
  for (int fd : expired) {
    fail_lookup(conns_[fd].connected ? kFailTcpResponse : kFailTcpConnecting);
    finish_conn(fd);
  }
  while (!gets_waiting_.empty() && now > gets_waiting_.front().first.deadline) {
    gets_waiting_.pop_front();
    fail_lookup(kFailTcpQueued);
  }
}

bool Generator::outstanding() const {
  return !awaiting_devices_.empty() || ssdp_byebyes_pending_ > 0 ||
         pending_count_ > 0 || !conns_.empty() || !gets_waiting_.empty();
}

void Generator::phase(Window& window, double seconds) {
  window_ = &window;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  // Schedule time resumes where the previous phase stopped it.
  lag_ = lag_ < 0 ? start : lag_ + (start - stopped_at_);
  const std::int64_t gateway_cpu0 = process_cpu_ns() - thread_cpu_ns();
  for (;;) {
    const std::int64_t next = next_due() + lag_;
    if (next >= end) break;
    std::int64_t now = now_ns();
    if (next <= now) {
      fire(next);
      const std::int64_t sent = now_ns();
      window.late_us.push_back(static_cast<double>(sent - next) / kUs);
      window.busy_ns += sent - now;
      continue;
    }
    std::int64_t wait = next - now;
    poll(wait > kSpin ? std::min(wait - kSpin, kMs) : 0);
  }
  stopped_at_ = end;
  window.gateway_cpu_ns = process_cpu_ns() - thread_cpu_ns() - gateway_cpu0;
  window.wall_ns = now_ns() - start;
  // Drain: every expected output arrives or misses its deadline.
  std::int64_t drain_until = now_ns() + kDeadline + 10 * kMs;
  while (outstanding() && now_ns() < drain_until) poll(kMs);
  sweep(now_ns() + kDeadline + kMs);
  poll(0);
  window_ = nullptr;
}

void Generator::inject_wrong() {
  // A stamped DNS-SD frame naming one service where another belongs:
  // exactly the mistake a broken composer or cache replay would make.
  // Announce workloads get an announcement of a device under a type it
  // does not have; lookup workloads get a reply to the first query type
  // naming another type's service.
  std::string url;
  std::string type;
  if (!shape_.lookups) {
    for (const Device& d : devices_) {
      if (d.sdp != SdpId::kMdns) {
        url = d.url;
        type = d.type + "x";
        break;
      }
    }
  } else {
    url = type_urls_[1].front();
    type = record_types_[0];
  }
  mdns::DnsMessage m;
  m.id = 1;  // the first query type's DNS id
  m.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  std::string qname = "_" + type + "._tcp.local";
  std::string instance = "rogue." + qname;
  mdns::DnsRecord ptr;
  ptr.name = qname;
  ptr.type = mdns::kTypePtr;
  ptr.ttl = 120;
  ptr.target = instance;
  m.answers.push_back(ptr);
  mdns::DnsRecord txt;
  txt.name = instance;
  txt.type = mdns::kTypeTxt;
  txt.ttl = 120;
  txt.txt = {{"url", url}, {"bridged-by", std::string(kBridgeStamp)}};
  m.additionals.push_back(txt);
  mdns::DnsRecord marker;
  marker.name = "_indiss-bridge._udp.local";
  marker.type = mdns::kTypeTxt;
  marker.ttl = 1;
  marker.txt = {{"bridged-by", std::string(kBridgeStamp)}};
  m.additionals.push_back(marker);
  Bytes wire = mdns::encode(m);
  int rogue = open_udp(0);
  if (shape_.lookups) {
    send_udp(rogue, kLoopback, local_port(clients_[2]), wire.data(), wire.size());
  } else {
    send_udp(rogue, kMdnsGroup, kMdnsPort, wire.data(), wire.size());
  }
  close(rogue);
}

void Generator::setup(GatewayHost& gateway) {
  Window window;
  window_ = &window;
  // Closed loop: never more than kInFlight datagrams ahead of what the
  // gateway's monitor has taken in, so pre-population overflows no socket
  // buffer (a default receive buffer holds ~160 datagrams; the generator's
  // frames spread over three ports, and the gateway's own looped-back
  // announcements share one) however fast or slow the gateway is; and
  // never more than kInFlight translations outstanding, so the gateway's
  // deferred composes do not queue behind a stream of new input (after a
  // host stall they would otherwise come out more than a second late).
  constexpr std::uint64_t kInFlight = 128;
  auto translations_open = [&] {
    return window.bridge_expected - window.bridge_missed - window.bridge_us.size();
  };
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    while (sent_to_groups_ >= gateway.seen() + kInFlight ||
           translations_open() >= kInFlight) {
      poll(100 * kUs);
    }
    send_alive(i, now_ns(), true);
    poll(0);
  }
  std::int64_t give_up = now_ns() + 30 * kSec;
  std::uint64_t expected_records = shape_.records + shape_.churn_devices;
  for (;;) {
    bool records_ready =
        !shape_.directory || gateway.directory_records() >= expected_records;
    if (!outstanding() && records_ready) break;
    if (now_ns() > give_up) {
      throw std::runtime_error("set-up did not converge: " +
                               std::to_string(awaiting_devices_.size()) +
                               " announcements outstanding, directory holds " +
                               std::to_string(gateway.directory_records()));
    }
    poll(kMs);
  }
  if (window.bridge_missed + window.wrong > 0) {
    std::string why;
    for (const auto& w : wrong_examples_) why += "; " + w;
    throw std::runtime_error("set-up outputs were wrong or missing: " +
                             std::to_string(window.bridge_missed) + " missed, " +
                             std::to_string(window.wrong) + " wrong" + why);
  }
  window_ = nullptr;
}

std::vector<const Bytes*> Generator::frames_of(SdpId sdp) const {
  std::vector<const Bytes*> out;
  for (const Device& d : devices_) {
    if (d.sdp == sdp) {
      out.push_back(&d.alive);
      out.push_back(&d.byebye);
    }
  }
  int client = sdp_index(sdp);
  for (const Bytes& q : queries_[client]) out.push_back(&q);
  return out;
}

std::vector<std::string> Generator::descriptions() const {
  return received_descriptions_;
}

std::vector<const Bytes*> Generator::all_frames() const {
  std::vector<const Bytes*> out;
  for (SdpId sdp : kSdps) {
    auto part = frames_of(sdp);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// --- Codec and router timing over the run's own frames ----------------------------

template <typename Fn>
double time_per_call_ns(std::size_t items, Fn&& fn) {
  if (items == 0) return 0;
  std::size_t rounds = std::max<std::size_t>(1, 200'000 / items);
  std::int64_t start = now_ns();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < items; ++i) fn(i);
  }
  return static_cast<double>(now_ns() - start) /
         static_cast<double>(rounds * items);
}

void time_codecs(const Generator& gen, RunResult& result) {
  auto slp_frames = gen.frames_of(SdpId::kSlp);
  auto ssdp_frames = gen.frames_of(SdpId::kUpnp);
  auto mdns_frames = gen.frames_of(SdpId::kMdns);
  std::size_t sink = 0;
  result.slp_decode_ns = time_per_call_ns(slp_frames.size(), [&](std::size_t i) {
    sink += slp::decode(*slp_frames[i]).has_value();
  });
  result.ssdp_parse_ns = time_per_call_ns(ssdp_frames.size(), [&](std::size_t i) {
    sink += upnp::parse_ssdp(*ssdp_frames[i]).has_value();
  });
  result.mdns_decode_ns = time_per_call_ns(mdns_frames.size(), [&](std::size_t i) {
    sink += mdns::decode(*mdns_frames[i]).has_value();
  });
  auto descriptions = gen.descriptions();
  if (!descriptions.empty()) {
    std::size_t rounds = std::max<std::size_t>(1, 20'000 / descriptions.size());
    std::int64_t start = now_ns();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& xml : descriptions) {
        sink += upnp::DeviceDescription::from_xml(xml).has_value();
      }
    }
    result.description_parse_us = static_cast<double>(now_ns() - start) / 1e3 /
                                  static_cast<double>(rounds * descriptions.size());
  }
  auto frames = gen.all_frames();
  result.shard_route_ns = time_per_call_ns(frames.size(), [&](std::size_t i) {
    sink += core::shard::shard_for(*frames[i], 2);
  });
  if (sink == 42) std::fprintf(stderr, " ");  // keep the loops observable
}

// --- Trace attribution ------------------------------------------------------------

/// Median, over traced samples, of the share of each sample's wire-to-wire
/// time covered by gateway spans (ingest, deferred, tcp) carrying the
/// sample's request id and starting inside its interval.
double attributed_ratio(const Tracer& tracer,
                        const std::vector<TracedSample>& samples) {
  const auto& spans = tracer.spans();
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> by_request;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.request == kNoRequest || s.kind == SpanKind::kSend) continue;
    by_request[s.request].push_back(i);  // already in start order
  }
  std::vector<double> ratios;
  for (const TracedSample& sample : samples) {
    double covered = 0;
    auto it = by_request.find(sample.frame);
    if (it != by_request.end()) {
      const auto& list = it->second;
      auto first = std::lower_bound(
          list.begin(), list.end(), sample.sched,
          [&](std::uint32_t i, std::int64_t t) { return spans[i].start_ns < t; });
      for (auto at = first; at != list.end(); ++at) {
        const Span& s = spans[*at];
        if (s.start_ns > sample.recv) break;
        covered += static_cast<double>(std::min(s.end_ns, sample.recv) - s.start_ns);
      }
    }
    double total = static_cast<double>(sample.recv - sample.sched);
    if (total > 0) ratios.push_back(covered / total);
  }
  return median_of(std::move(ratios));
}

/// Per-layer metrics. Gateway counters cover the whole instance, so they are
/// divided by every datagram the generator sent to it; span metrics cover
/// the traced phase and are divided by that phase's datagrams.
void derive_layers(const Window& fixed, const GatewayHost& host,
                   RunResult& r) {
  const GatewayReport& g = r.gateway;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double msgs = static_cast<double>(r.datagrams_sent);
  auto& L = r.layer;
  L["monitor.seen_per_sent"] = per(static_cast<double>(g.monitor.seen),
                                   static_cast<double>(r.datagrams_to_groups));
  L["monitor.own_filtered_per_msg"] = per(static_cast<double>(g.monitor.filtered), msgs);
  L["monitor.rate_limited"] = static_cast<double>(g.monitor.rate_limited);
  L["unit.parsed_per_msg"] = per(static_cast<double>(g.units.messages_parsed), msgs);
  L["unit.composed_per_msg"] = per(static_cast<double>(g.units.messages_composed), msgs);
  L["unit.sessions_evicted"] = static_cast<double>(g.units.sessions_evicted);
  L["unit.events_ignored_per_msg"] = per(static_cast<double>(g.units.events_ignored), msgs);
  L["event_bus.deliveries_per_publish"] =
      per(static_cast<double>(g.bus.deliveries), static_cast<double>(g.bus.streams_published));
  L["event_bus.replies_dropped"] = static_cast<double>(g.bus.replies_dropped);
  L["translation_cache.hit_ratio"] =
      per(static_cast<double>(g.cache.hits), static_cast<double>(g.cache.hits + g.cache.misses));
  L["translation_cache.replayed_per_hit"] =
      per(static_cast<double>(g.cache.frames_replayed), static_cast<double>(g.cache.hits));
  L["directory.answered_ratio"] =
      per(static_cast<double>(g.directory_answered),
          static_cast<double>(g.directory_answered + g.directory_bridged));
  L["directory.replay_ratio"] = per(static_cast<double>(g.directory_replays),
                                    static_cast<double>(g.directory_answered));
  L["directory.records"] = static_cast<double>(g.directory_records);
  L["directory.collect_us_p50"] = g.directory_collect_us_p50;
  double consumed_sum = 0;
  double consumed_max = 0;
  for (auto c : g.shard_consumed) {
    consumed_sum += static_cast<double>(c);
    consumed_max = std::max(consumed_max, static_cast<double>(c));
  }
  L["shard.replication_ratio"] = per(static_cast<double>(g.replicated),
                                     static_cast<double>(g.dispatched));
  L["shard.imbalance"] = g.shard_consumed.empty()
                             ? 0.0
                             : per(consumed_max, consumed_sum / static_cast<double>(g.shard_consumed.size()));
  L["shard.ring_dropped"] = static_cast<double>(g.ring_dropped);
  L["shard.backlog_max"] = static_cast<double>(r.backlog_max);
  L["shard.route_ns"] = r.shard_route_ns;
  L["live.timer_tasks_per_msg"] = per(static_cast<double>(g.timer_tasks), msgs);
  L["live.rcvbuf_drops"] = static_cast<double>(r.rcvbuf_drops);
  L["slp.decode_ns"] = r.slp_decode_ns;
  L["upnp.ssdp_parse_ns"] = r.ssdp_parse_ns;
  L["upnp.description_parse_us"] = r.description_parse_us;
  L["mdns.decode_ns"] = r.mdns_decode_ns;
  L["loadgen.late_us_p99"] = r.late_us_p99;
  L["loadgen.cpu_util"] = r.loadgen_cpu_util;

  // Span-derived metrics (traced half of the run; zero where the decorator
  // cannot be injected, i.e. inside the shard pool).
  std::vector<double> ingest_us, deferred_us, send_us;
  double ingest_allocs = 0, deferred_allocs = 0, sends = 0, tx_bytes = 0;
  double ingests = 0, deferred = 0;
  double traced_msgs = 0;
  const Tracer* tracer = host.tracer();
  if (tracer != nullptr) {
    for (const Span& s : tracer->spans()) {
      double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      switch (s.kind) {
        case SpanKind::kIngest:
          if (s.request == kNoRequest) break;  // own traffic, looped back
          ingest_us.push_back(us);
          ingest_allocs += s.allocs;
          ingests += 1;
          break;
        case SpanKind::kDeferred:
          deferred_us.push_back(us);
          deferred_allocs += s.allocs;
          deferred += 1;
          break;
        case SpanKind::kSend:
          send_us.push_back(us);
          sends += 1;
          tx_bytes += s.bytes;
          break;
        case SpanKind::kTcp:
          break;
      }
    }
    traced_msgs = static_cast<double>(fixed.sent);
  }
  L["unit.ingest_us_p50"] = percentile(ingest_us, 50);
  L["unit.ingest_us_p99"] = percentile(ingest_us, 99);
  L["unit.ingest_allocs_per_msg"] = per(ingest_allocs, ingests);
  L["unit.deferred_us_p50"] = percentile(deferred_us, 50);
  L["unit.deferred_tasks_per_msg"] = per(deferred, traced_msgs);
  L["unit.deferred_allocs_per_task"] = per(deferred_allocs, deferred);
  L["live.send_us_p50"] = percentile(send_us, 50);
  L["live.sends_per_msg"] = per(sends, traced_msgs);
  L["live.tx_bytes_per_msg"] = per(tx_bytes, traced_msgs);
  std::vector<double> late = tracer != nullptr ? tracer->timer_late_us
                                               : std::vector<double>{};
  L["live.timer_late_us_p99"] = percentile(late, 99);
  L["live.tcp_connects_per_lookup"] =
      tracer == nullptr ? 0.0
                        : per(static_cast<double>(tracer->tcp_connects),
                              static_cast<double>(fixed.lookups));
  L["trace.overhead_ratio"] = r.trace_overhead_ratio;
  L["trace.dropped_spans"] =
      tracer == nullptr ? 0.0 : static_cast<double>(tracer->dropped_spans());
  L["trace.attributed_ratio"] =
      tracer == nullptr ? 0.0 : attributed_ratio(*tracer, fixed.traced);
}

}  // namespace

// ---------------------------------------------------------------------------------

RunResult run_workload(const RunConfig& config) {
  RunResult result;
  Shape shape = shape_for(config.workload);
  // UPnP lookups connect to the gateway over TCP for every description.
  raise_fd_limit();
  pin_thread(true);
  Generator gen(config, shape);
  gen.open_sockets();
  result.primary = shape.lookups ? "lookup" : "bridge";
  result.offered_rate = gen.offered_rate();
  {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "indissd --loopback --sdps slp,upnp,mdns%s%s (IndissConfig "
                  "defaults otherwise)",
                  shape.directory ? " --directory" : "",
                  shape.shards > 1 ? (" --shards " + std::to_string(shape.shards)).c_str() : "");
    result.gateway_config = buf;
  }

  GatewayOptions options;
  options.directory = shape.directory;
  options.shards = shape.shards;
  options.trace = config.trace;
  if (config.trace) options.trace_frames = gen.frame_index();
  if (shape.directory) options.collect_types = gen.query_types();

  // --- The measured instance ----------------------------------------------------
  const std::uint64_t listen_overflows0 = listen_overflows();
  const std::uint64_t rss0 = rss_bytes();
  const std::int64_t t0 = now_ns();
  auto host = std::make_unique<GatewayHost>(options);
  host->start();
  gen.setup(*host);
  result.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  host->set_snapshot_fast(false);

  Window warmup;
  // The sessions that set-up and the first seconds of traffic leave behind
  // expire during the warm-up, so measurement starts where sessions expire
  // as fast as they open.
  gen.phase(warmup, config.warmup_seconds);
  Window fixed;
  if (config.inject_wrong) gen.inject_wrong();
  if (config.trace) {
    // Untraced half, then the traced half: the difference is the tracing
    // overhead.
    Window untraced;
    gen.phase(untraced, config.seconds / 2);
    host->set_recording(true);
    fixed.record_traced = true;
    gen.phase(fixed, config.seconds / 2);
    host->set_recording(false);
    auto& a = shape.lookups ? untraced.lookup_us : untraced.bridge_us;
    auto& b = shape.lookups ? fixed.lookup_us : fixed.bridge_us;
    double base = median_of(a);
    result.trace_overhead_ratio = base > 0 ? median_of(b) / base : 0;
    fixed.wrong += untraced.wrong;
    fixed.bridge_missed += untraced.bridge_missed;
    fixed.lookups_failed += untraced.lookups_failed;
    for (int k = 0; k < kFailKinds; ++k) fixed.failed_by[k] += untraced.failed_by[k];
  } else {
    gen.phase(fixed, config.seconds);
  }
  result.rss_growth_mb =
      (static_cast<double>(rss_bytes()) - static_cast<double>(rss0)) / (1 << 20);
  result.rcvbuf_drops = gen.monitor_drops();
  result.generator_drops = gen.generator_drops();
  result.listen_overflows = listen_overflows() - listen_overflows0;
  result.backlog_max = host->backlog_max();
  host->stop();
  if (!host->error().empty()) {
    throw std::runtime_error("gateway failed: " + host->error());
  }
  result.gateway = host->report();

  result.bridge = summarize(fixed.bridge_us);
  result.lookup = summarize(fixed.lookup_us);
  // Correctness covers the warm-up too; latency and cost only the
  // measured phase.
  result.bridge_expected = fixed.bridge_expected + warmup.bridge_expected;
  result.bridge_replays = fixed.bridge_optional + warmup.bridge_optional;
  result.bridge_missed = fixed.bridge_missed + warmup.bridge_missed;
  result.lookups = fixed.lookups + warmup.lookups;
  result.lookups_failed = fixed.lookups_failed + warmup.lookups_failed;
  for (int k = 0; k < kFailKinds; ++k) {
    std::uint64_t n = fixed.failed_by[k] + warmup.failed_by[k];
    if (n > 0) result.failed_by[kFailNames[k]] = n;
  }
  result.wrong = gen.wrong_total();
  result.wrong_examples = gen.wrong_examples();
  result.gateway_cpu_us_per_msg =
      fixed.sent == 0 ? 0
                      : static_cast<double>(fixed.gateway_cpu_ns) / kUs /
                            static_cast<double>(fixed.sent);
  // The generator spins before each send, so its CPU time says nothing of
  // its load; its busy time (sending, receiving, checking) does.
  result.loadgen_cpu_util =
      fixed.wall_ns == 0 ? 0
                         : static_cast<double>(fixed.busy_ns) /
                               static_cast<double>(fixed.wall_ns);
  std::vector<double> late = fixed.late_us;
  result.late_us_p99 = percentile(late, 99);
  result.generator_behind = percentile(late, 50) > kLateLimitUs ||
                            result.loadgen_cpu_util > kBusyLimit;
  result.datagrams_sent = gen.sent();
  result.datagrams_to_groups = gen.sent_to_groups();
  // Conservation seen from the wire: every datagram that reached a
  // well-known port (the generator's and the gateway's own looped-back
  // multicast) was processed, filtered as own, shed, or dropped.
  result.gateway_multicast = gen.gateway_multicast();
  result.unexplained_datagrams =
      static_cast<std::int64_t>(result.datagrams_to_groups +
                                result.gateway_multicast) -
      static_cast<std::int64_t>(result.gateway.monitor.seen +
                                result.gateway.monitor.filtered +
                                result.gateway.monitor.rate_limited +
                                result.rcvbuf_drops + result.gateway.ring_dropped);
  time_codecs(gen, result);
  derive_layers(fixed, *host, result);
  if (host->tracer() != nullptr && !config.spans_path.empty() &&
      !host->tracer()->write(config.spans_path)) {
    throw std::runtime_error("cannot write spans to " + config.spans_path);
  }
  host.reset();

  // --- Further set-up repetitions (set-up time is reported as a median) ---------
  if (!config.trace) {
    for (int rep = 1; rep < shape.setups; ++rep) {
      gen.reset();
      const std::int64_t start = now_ns();
      GatewayHost again(options);
      again.start();
      gen.setup(again);
      result.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
      again.stop();
    }
  }
  return result;
}

}  // namespace perfbench
