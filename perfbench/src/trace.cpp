#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>

#include "util.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;
thread_local bool t_paused = false;

void* counted_alloc(std::size_t n) {
  if (!t_paused) ++t_allocations;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Keeps the decorator's own bookkeeping out of the counts it reports.
struct PauseAllocCount {
  bool was = t_paused;
  PauseAllocCount() { t_paused = true; }
  ~PauseAllocCount() { t_paused = was; }
};

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

using indiss::BytesView;
using indiss::net::Datagram;
using indiss::net::Endpoint;
namespace transport = indiss::transport;

std::uint64_t thread_allocations() { return t_allocations; }

std::uint64_t frame_hash(const std::uint8_t* data, std::size_t len,
                         std::size_t skip_at) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    bool skipped = i >= skip_at && i < skip_at + 2;
    hash ^= skipped ? 0 : data[i];
    hash *= 1099511628211ull;
  }
  return hash ^ len;
}

// --- Tracer ------------------------------------------------------------------

namespace {
// Enough for every span of a traced phase at the rates the workloads offer;
// spans beyond it are counted as dropped, never reallocated mid-run.
constexpr std::size_t kSpanCapacity = 1 << 21;
}  // namespace

Tracer::Tracer(std::unordered_map<std::uint64_t, std::uint32_t> frames)
    : frames_(std::move(frames)) {
  spans_.reserve(kSpanCapacity);
  timer_late_us.reserve(kSpanCapacity / 2);
}

std::int32_t Tracer::open(SpanKind kind, std::uint32_t request,
                          std::int32_t parent) {
  if (spans_.size() >= kSpanCapacity) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.kind = kind;
  span.request = request;
  span.parent = parent;
  span.allocs = static_cast<std::uint32_t>(t_allocations);  // start count
  span.start_ns = now_ns();
  spans_.push_back(span);
  auto index = static_cast<std::int32_t>(spans_.size() - 1);
  // The enclosing span is restored on close; stash it in end_ns meanwhile.
  spans_.back().end_ns = current_;
  current_ = index;
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  current_ = static_cast<std::int32_t>(span.end_ns);
  span.end_ns = now_ns();
  span.allocs = static_cast<std::uint32_t>(t_allocations) - span.allocs;
}

void Tracer::set_bytes(std::int32_t index, std::uint32_t bytes) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].bytes = bytes;
}

std::uint32_t Tracer::recognise(const std::uint8_t* data,
                                std::size_t len) const {
  for (std::size_t skip_at : {SIZE_MAX, std::size_t{0}, std::size_t{10}}) {
    auto it = frames_.find(frame_hash(data, len, skip_at));
    if (it != frames_.end()) return it->second;
  }
  return kNoRequest;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static const char* kNames[] = {"ingest", "deferred", "send", "tcp"};
  std::fprintf(f, "kind\tstart_ns\tend_ns\tparent\trequest\tallocs\tbytes\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%lld\t%u\t%u\n",
                 kNames[static_cast<int>(s.kind)],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 s.request == kNoRequest ? -1LL
                                         : static_cast<long long>(s.request),
                 s.allocs, s.bytes);
  }
  return std::fclose(f) == 0;
}

// --- Socket wrappers -----------------------------------------------------------

namespace {

class TracingUdp : public transport::UdpSocket {
 public:
  TracingUdp(std::shared_ptr<transport::UdpSocket> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] Endpoint local_endpoint() const override {
    return inner_->local_endpoint();
  }
  void join_group(indiss::net::IpAddress group) override {
    inner_->join_group(group);
  }
  void leave_group(indiss::net::IpAddress group) override {
    inner_->leave_group(group);
  }
  void send_to(const Endpoint& to, indiss::Bytes payload) override {
    if (!tracer_.recording()) {
      inner_->send_to(to, std::move(payload));
      return;
    }
    auto bytes = static_cast<std::uint32_t>(payload.size());
    std::int32_t span = tracer_.open(SpanKind::kSend,
                                     tracer_.current_request(),
                                     tracer_.current());
    inner_->send_to(to, std::move(payload));
    tracer_.close(span);
    tracer_.set_bytes(span, bytes);
  }
  void set_receive_handler(ReceiveHandler handler) override {
    if (!handler) {
      inner_->set_receive_handler(nullptr);
      return;
    }
    PauseAllocCount pause;
    inner_->set_receive_handler(
        [&tracer = tracer_, handler = std::move(handler)](const Datagram& d) {
          if (!tracer.recording()) {
            handler(d);
            return;
          }
          std::int32_t span = tracer.open(
              SpanKind::kIngest,
              tracer.recognise(d.payload.data(), d.payload.size()), -1);
          handler(d);
          tracer.close(span);
        });
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }

 private:
  std::shared_ptr<transport::UdpSocket> inner_;
  Tracer& tracer_;
};

class TracingTcp : public transport::TcpSocket {
 public:
  TracingTcp(std::shared_ptr<transport::TcpSocket> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] Endpoint local_endpoint() const override {
    return inner_->local_endpoint();
  }
  [[nodiscard]] Endpoint remote_endpoint() const override {
    return inner_->remote_endpoint();
  }
  void send(indiss::Bytes payload) override {
    if (!tracer_.recording()) {
      inner_->send(std::move(payload));
      return;
    }
    std::int32_t span = tracer_.open(SpanKind::kSend,
                                     tracer_.current_request(),
                                     tracer_.current());
    inner_->send(std::move(payload));
    tracer_.close(span);
  }
  void set_data_handler(DataHandler handler) override {
    if (!handler) {
      inner_->set_data_handler(nullptr);
      return;
    }
    PauseAllocCount pause;
    inner_->set_data_handler(
        [&tracer = tracer_, handler = std::move(handler)](BytesView data) {
          if (!tracer.recording()) {
            handler(data);
            return;
          }
          std::int32_t span = tracer.open(SpanKind::kTcp, kNoRequest, -1);
          handler(data);
          tracer.close(span);
        });
  }
  void set_close_handler(CloseHandler handler) override {
    inner_->set_close_handler(std::move(handler));
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool open() const override { return inner_->open(); }

 private:
  std::shared_ptr<transport::TcpSocket> inner_;
  Tracer& tracer_;
};

class TracingListener : public transport::TcpListener {
 public:
  TracingListener(std::shared_ptr<transport::TcpListener> inner,
                  Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::uint16_t port() const override { return inner_->port(); }
  void set_accept_handler(AcceptHandler handler) override {
    PauseAllocCount pause;
    inner_->set_accept_handler(
        [&tracer = tracer_, handler = std::move(handler)](
            std::shared_ptr<transport::TcpSocket> socket) {
          handler(std::make_shared<TracingTcp>(std::move(socket), tracer));
        });
  }
  void close() override { inner_->close(); }

 private:
  std::shared_ptr<transport::TcpListener> inner_;
  Tracer& tracer_;
};

}  // namespace

// --- TracingTransport ------------------------------------------------------------

std::shared_ptr<transport::UdpSocket> TracingTransport::open_udp(
    std::uint16_t port) {
  auto inner = inner_.open_udp(port);
  if (inner == nullptr) return nullptr;
  return std::make_shared<TracingUdp>(std::move(inner), tracer_);
}

std::shared_ptr<transport::TcpListener> TracingTransport::listen_tcp(
    std::uint16_t port) {
  auto inner = inner_.listen_tcp(port);
  if (inner == nullptr) return nullptr;
  return std::make_shared<TracingListener>(std::move(inner), tracer_);
}

std::shared_ptr<transport::TcpSocket> TracingTransport::connect_tcp(
    const Endpoint& to) {
  if (tracer_.recording()) ++tracer_.tcp_connects;
  auto inner = inner_.connect_tcp(to);
  if (inner == nullptr) return nullptr;
  return std::make_shared<TracingTcp>(std::move(inner), tracer_);
}

transport::TaskHandle TracingTransport::schedule(transport::Duration delay,
                                                 transport::InlineTask task) {
  if (!tracer_.recording()) return inner_.schedule(delay, std::move(task));
  std::int64_t due = now_ns() +
                     std::chrono::duration_cast<std::chrono::nanoseconds>(delay)
                         .count();
  std::uint32_t request = tracer_.current_request();
  std::int32_t parent = tracer_.current();
  PauseAllocCount pause;
  return inner_.schedule(
      delay, [&tracer = tracer_, task = std::move(task), due, request,
              parent]() mutable {
        tracer.timer_late_us.push_back(static_cast<double>(now_ns() - due) /
                                       1e3);
        std::int32_t span = tracer.open(SpanKind::kDeferred, request, parent);
        task();
        tracer.close(span);
      });
}

transport::TaskHandle TracingTransport::schedule_periodic(
    transport::Duration period, transport::InlineTask task) {
  PauseAllocCount pause;
  return inner_.schedule_periodic(
      period, [&tracer = tracer_, task = std::move(task)]() mutable {
        if (!tracer.recording()) {
          task();
          return;
        }
        std::int32_t span =
            tracer.open(SpanKind::kDeferred, kNoRequest, -1);
        task();
        tracer.close(span);
      });
}

}  // namespace perfbench
