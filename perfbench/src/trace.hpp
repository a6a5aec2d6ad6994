// The traced run's decorator: a transport::Transport that forwards every
// call to the gateway's real LiveTransport and records a span around each
// call into the layer boundaries the program already exposes:
//
//   ingest   a UDP receive handler (monitor admit -> unit parse -> FSM ->
//            bus -> compose, or a translation-cache replay), per datagram
//   deferred a task the gateway scheduled on the transport (the units'
//            translate_delay parse/compose bodies, reply pacing, sweeps)
//   send     UdpSocket::send_to / TcpSocket::send
//   tcp      a TCP data handler (the UPnP description chase and server)
//
// Each span carries a name, start, end, parent span and request id. The
// request id is the generated frame the decorator recognises from the
// datagram payload; deferred tasks and sends inherit the id and parent of
// the span that scheduled or issued them. Spans stay in memory and are
// written out when the run ends. Allocations are counted per span by the
// benchmark's own operator new.
//
// The decorator runs on the gateway thread only, like the transport it
// wraps.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "transport/transport.hpp"

namespace perfbench {

/// Heap allocations made by the calling thread so far.
std::uint64_t thread_allocations();

/// FNV-1a 64 over a payload: the key the decorator recognises frames by.
/// The two bytes at `skip_at` hash as zero, so a reply whose transaction id
/// is echoed per request (SLP XID at 10, DNS id at 0) keeps one key.
std::uint64_t frame_hash(const std::uint8_t* data, std::size_t len,
                         std::size_t skip_at = SIZE_MAX);

enum class SpanKind : std::uint8_t { kIngest, kDeferred, kSend, kTcp };

inline constexpr std::uint32_t kNoRequest = 0xFFFFFFFFu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t request = kNoRequest;
  std::uint32_t allocs = 0;
  std::uint32_t bytes = 0;  // send spans: payload size
  SpanKind kind = SpanKind::kIngest;
};

class Tracer {
 public:
  /// `frames` maps frame_hash(payload) -> request id for every frame the
  /// generator can send.
  explicit Tracer(std::unordered_map<std::uint64_t, std::uint32_t> frames);

  /// Recording is off until enabled; while off every call passes straight
  /// through (the untraced half of a traced run).
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }

  std::int32_t open(SpanKind kind, std::uint32_t request, std::int32_t parent);
  void close(std::int32_t index);
  void set_bytes(std::int32_t index, std::uint32_t bytes);
  [[nodiscard]] std::uint32_t recognise(const std::uint8_t* data,
                                        std::size_t len) const;

  /// The span calls are currently nested in (-1 outside any span).
  [[nodiscard]] std::int32_t current() const { return current_; }
  [[nodiscard]] std::uint32_t current_request() const {
    return current_ < 0 ? kNoRequest : spans_[current_].request;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Spans not recorded because the in-memory buffer was full.
  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_; }

  // Counters kept next to the spans.
  std::vector<double> timer_late_us;  // fired minus due, deferred tasks
  std::uint64_t tcp_connects = 0;

  /// Writes the spans as TSV (kind, start_ns, end_ns, parent, request,
  /// allocs, bytes). Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> frames_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::int32_t current_ = -1;
  bool recording_ = false;
};

/// The decorator itself. Owns nothing but the wrappers it hands out.
class TracingTransport : public indiss::transport::Transport {
 public:
  TracingTransport(indiss::transport::Transport& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] indiss::net::IpAddress address() const override {
    return inner_.address();
  }
  std::shared_ptr<indiss::transport::UdpSocket> open_udp(
      std::uint16_t port = 0) override;
  std::shared_ptr<indiss::transport::TcpListener> listen_tcp(
      std::uint16_t port = 0) override;
  std::shared_ptr<indiss::transport::TcpSocket> connect_tcp(
      const indiss::net::Endpoint& to) override;
  [[nodiscard]] indiss::transport::TimePoint now() const override {
    return inner_.now();
  }
  indiss::transport::TaskHandle schedule(
      indiss::transport::Duration delay,
      indiss::transport::InlineTask task) override;
  indiss::transport::TaskHandle schedule_periodic(
      indiss::transport::Duration period,
      indiss::transport::InlineTask task) override;
  [[nodiscard]] const indiss::net::TrafficStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] indiss::transport::Random& random() override {
    return inner_.random();
  }

 private:
  indiss::transport::Transport& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
