#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "net/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace lightor::net {

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

common::Status Errno(const std::string& what) {
  return common::Status::IoError(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

TimePoint AfterSeconds(TimePoint from, double seconds) {
  return from + std::chrono::microseconds(
                    static_cast<int64_t>(seconds * 1e6));
}

}  // namespace

// ---------------------------------------------------------------------------
// Router

void Router::Handle(std::string method, std::string path,
                    HttpHandler handler) {
  routes_.push_back(
      Route{std::move(method), std::move(path), std::move(handler)});
}

const HttpHandler* Router::Find(std::string_view method, std::string_view path,
                                int* error_status) const {
  bool path_known = false;
  for (const Route& route : routes_) {
    if (route.path != path) continue;
    if (route.method == method) return &route.handler;
    path_known = true;
  }
  *error_status = path_known ? 405 : 404;
  return nullptr;
}

const char* Router::RouteLabel(std::string_view path) const {
  for (const Route& route : routes_) {
    if (route.path == path) return route.path.c_str();
  }
  return "other";
}

// ---------------------------------------------------------------------------
// NetOptions

common::Status NetOptions::Validate() const {
  if (host.empty())
    return common::Status::InvalidArgument("NetOptions: empty host");
  if (num_workers == 0)
    return common::Status::InvalidArgument("NetOptions: num_workers == 0");
  if (max_in_flight == 0)
    return common::Status::InvalidArgument("NetOptions: max_in_flight == 0");
  if (max_connections == 0)
    return common::Status::InvalidArgument("NetOptions: max_connections == 0");
  if (max_header_bytes < 64)
    return common::Status::InvalidArgument(
        "NetOptions: max_header_bytes < 64");
  if (drain_timeout_seconds <= 0.0)
    return common::Status::InvalidArgument(
        "NetOptions: drain_timeout_seconds <= 0");
  return common::Status::OK();
}

// ---------------------------------------------------------------------------
// Poller: epoll (the target is Linux-only)

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  ~Poller() {
    if (epfd_ >= 0) ::close(epfd_);
  }

  common::Status Init() {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) return Errno("epoll_create1");
    return common::Status::OK();
  }

  common::Status Add(int fd, bool read, bool write) {
    epoll_event ev = Mask(fd, read, write);
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Errno("epoll_ctl(ADD)");
    }
    return common::Status::OK();
  }

  common::Status Modify(int fd, bool read, bool write) {
    epoll_event ev = Mask(fd, read, write);
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
      return Errno("epoll_ctl(MOD)");
    }
    return common::Status::OK();
  }

  void Remove(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Appends ready events to `out`; `timeout_ms` caps the block.
  common::Status Wait(int timeout_ms, std::vector<Event>& out) {
    epoll_event events[128];
    const int n = ::epoll_wait(epfd_, events, 128, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return common::Status::OK();
      return Errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      Event event;
      event.fd = static_cast<int>(events[i].data.fd);
      event.readable = (events[i].events & EPOLLIN) != 0;
      event.writable = (events[i].events & EPOLLOUT) != 0;
      event.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(event);
    }
    return common::Status::OK();
  }

 private:
  static epoll_event Mask(int fd, bool read, bool write) {
    epoll_event ev{};
    ev.data.fd = fd;
    if (read) ev.events |= EPOLLIN;
    if (write) ev.events |= EPOLLOUT;
    return ev;
  }

  int epfd_ = -1;
};

// ---------------------------------------------------------------------------
// Connection / queue plumbing

/// One request's tracing state. The IO thread owns the wide-event
/// fields (status, byte counts, write clock); the worker handling the
/// request only touches the collector, whose stage slots are atomics
/// and whose span list is mutex-guarded — so a deadline-expired request
/// can be finalized on the IO thread while its stranded handler is
/// still running (the sealed collector drops the late spans).
struct RequestTelemetry {
  obs::TraceContext ctx;        ///< server context; span_id = root span
  uint64_t parent_span_id = 0;  ///< caller's span id from traceparent
  bool sampled_in = false;      ///< incoming sampled flag (forces keep)
  obs::SpanCollector collector;
  uint64_t start_us = 0;  ///< request start (first parse), TraceNowMicros
  std::string route;      ///< Router::RouteLabel
  std::string method;
  uint64_t bytes_in = 0;
  double retry_after_seconds = 0.0;
  // IO-thread-only response bookkeeping:
  int status = 0;  ///< 0 until a response is queued
  uint64_t bytes_out = 0;
  uint64_t write_start_us = 0;
};

struct HttpServer::Conn {
  explicit Conn(const RequestParser::Limits& limits) : parser(limits) {}

  int fd = -1;
  uint64_t serial = 0;  ///< guards against fd reuse in stale completions
  RequestParser parser;
  std::string outbuf;
  size_t out_off = 0;
  /// One request dispatched, its response not yet queued. At most one
  /// per connection — pipelined successors wait in the parser buffer.
  bool handling = false;
  /// Bumped per dispatch and on deadline expiry; a completion whose
  /// req_serial mismatches is a late result and is dropped.
  uint64_t req_serial = 0;
  /// A worker may still hold string_views into `parser`'s buffer. Unlike
  /// `handling` (cleared early on deadline expiry) this stays set until the
  /// worker's completion arrives, so CloseConn knows it must not destroy
  /// the connection yet.
  bool worker_outstanding = false;
  bool close_after = false;
  bool want_read = true;
  bool want_write = false;
  TimePoint last_active;
  TimePoint deadline;
  /// Parse wall time accumulated across reads for the request currently
  /// being assembled; charged to its telemetry when it becomes ready.
  uint64_t parse_accum_us = 0;
  /// Telemetry of the request currently dispatched or being answered.
  std::shared_ptr<RequestTelemetry> pending;
};

struct HttpServer::Job {
  int fd = -1;
  uint64_t conn_serial = 0;
  uint64_t req_serial = 0;
  HttpRequest request;
  const HttpHandler* handler = nullptr;
  bool keep_alive = true;
  const char* route = "other";  ///< stable label from the route table
  uint64_t dispatch_us = 0;     ///< queue-wait clock start
  std::shared_ptr<RequestTelemetry> telemetry;
};

struct HttpServer::Completion {
  int fd = -1;
  uint64_t conn_serial = 0;
  uint64_t req_serial = 0;
  std::string bytes;  ///< fully serialized response
  bool keep_alive = true;
  int status = 200;
};

// ---------------------------------------------------------------------------
// Lifecycle

common::Result<std::unique_ptr<HttpServer>> HttpServer::Create(
    NetOptions options, Router router) {
  LIGHTOR_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<HttpServer> server(
      new HttpServer(std::move(options), std::move(router)));
  LIGHTOR_RETURN_IF_ERROR(server->Bind());
  server->io_thread_ = std::thread([s = server.get()] { s->IoLoop(); });
  server->workers_.reserve(server->options_.num_workers);
  for (size_t i = 0; i < server->options_.num_workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  LIGHTOR_LOG(Info) << "net: listening on " << server->options_.host << ":"
                    << server->port_ << " (" << server->options_.num_workers
                    << " workers, max " << server->options_.max_in_flight
                    << " in flight)";
  return server;
}

HttpServer::HttpServer(NetOptions options, Router router)
    : options_(std::move(options)), router_(std::move(router)) {}

HttpServer::~HttpServer() {
  Shutdown();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

common::Status HttpServer::Bind() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listen)");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return common::Status::InvalidArgument("NetOptions: bad IPv4 host: " +
                                           options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Errno("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  if (!SetNonBlocking(wake_read_fd_) || !SetNonBlocking(wake_write_fd_)) {
    return Errno("fcntl(pipe)");
  }

  poller_ = std::make_unique<Poller>();
  LIGHTOR_RETURN_IF_ERROR(poller_->Init());
  LIGHTOR_RETURN_IF_ERROR(poller_->Add(listen_fd_, true, false));
  LIGHTOR_RETURN_IF_ERROR(poller_->Add(wake_read_fd_, true, false));
  return common::Status::OK();
}

void HttpServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    draining_ = true;
  }
  WakeIo();
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  LIGHTOR_LOG(Info) << "net: drained and shut down";
}

void HttpServer::WakeIo() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

// ---------------------------------------------------------------------------
// Worker pool

void HttpServer::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stop_workers_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    RequestTelemetry* telemetry = job.telemetry.get();
    if (telemetry != nullptr) {
      telemetry->collector.AddStageMicros(
          obs::Stage::kQueue, obs::TraceNowMicros() - job.dispatch_us);
    }
    // Handler (and serialization below) run under the request's trace
    // context: spans opened inside land in its collector, tagged with
    // the trace id and parented to the request's root span.
    obs::ScopedTraceContext trace_guard(
        telemetry != nullptr ? telemetry->ctx : obs::TraceContext{},
        telemetry != nullptr ? &telemetry->collector : nullptr);
    HttpResponse response;
    const uint64_t handler_start_us = obs::TraceNowMicros();
    {
      obs::ScopedStage stage(obs::Stage::kHandler);
      try {
        response = (*job.handler)(job.request);
      } catch (const std::exception& e) {
        response = ErrorResponse(500, std::string("handler: ") + e.what());
      } catch (...) {
        response = ErrorResponse(500, "handler raised");
      }
    }
    RequestLatencySeconds(job.route, response.status)
        .Observe(static_cast<double>(obs::TraceNowMicros() -
                                     handler_start_us) *
                 1e-6);
    ResponsesCounter(response.status).Increment();
    Completion completion;
    completion.fd = job.fd;
    completion.conn_serial = job.conn_serial;
    completion.req_serial = job.req_serial;
    completion.keep_alive = job.keep_alive;
    completion.status = response.status;
    {
      obs::ScopedStage stage(obs::Stage::kSerialize);
      completion.bytes = response.Serialize(job.keep_alive);
    }
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back(std::move(completion));
    }
    WakeIo();
  }
}

// ---------------------------------------------------------------------------
// Event loop (everything below runs on the IO thread only)

void HttpServer::IoLoop() {
  std::vector<Poller::Event> events;
  bool drain_started = false;
  TimePoint drain_deadline{};
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (draining_ && !drain_started) {
        drain_started = true;
        io_draining_ = true;
        drain_deadline =
            AfterSeconds(Clock::now(), options_.drain_timeout_seconds);
      }
    }
    if (drain_started && listen_fd_ >= 0) StartDrain();
    if (drain_started &&
        (DrainComplete() || Clock::now() >= drain_deadline)) {
      break;
    }

    events.clear();
    if (auto st = poller_->Wait(50, events); !st.ok()) {
      LIGHTOR_LOG(Error) << "net: poller wait failed: " << st.ToString();
      break;
    }
    for (const Poller::Event& event : events) {
      if (event.fd == listen_fd_) {
        AcceptAll();
      } else if (event.fd == wake_read_fd_) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
      } else {
        HandleConnEvent(event.fd, event.readable, event.writable,
                        event.error);
      }
    }
    ProcessCompletions();
    CheckTimers();
  }

  // Force-close whatever remains (drain timeout or poller failure).
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) CloseConn(fd);
}

void HttpServer::StartDrain() {
  poller_->Remove(listen_fd_);
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Connections with no accepted work pending are cut immediately; the
  // rest close as their in-flight responses flush (QueueResponse forces
  // close_after while draining).
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    if (!conn.handling && conn.outbuf.empty()) idle.push_back(fd);
  }
  for (const int fd : idle) CloseConn(fd);
  LIGHTOR_LOG(Info) << "net: draining (" << conns_.size()
                    << " connection(s) with in-flight work, " << in_flight_
                    << " request(s) in flight)";
}

bool HttpServer::DrainComplete() {
  return conns_.empty() && in_flight_ == 0;
}

void HttpServer::AcceptAll() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: wait for next event
    }
    if (conns_.size() >= options_.max_connections || !SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    RequestParser::Limits limits;
    limits.max_header_bytes = options_.max_header_bytes;
    limits.max_body_bytes = options_.max_body_bytes;
    auto [it, inserted] = conns_.emplace(fd, Conn(limits));
    Conn& conn = it->second;
    conn.fd = fd;
    conn.serial = next_serial_++;
    conn.last_active = Clock::now();
    if (auto st = poller_->Add(fd, true, false); !st.ok()) {
      conns_.erase(it);
      ::close(fd);
      continue;
    }
    ConnectionsOpenedCounter().Increment();
    ActiveConnectionsGauge().Set(static_cast<double>(conns_.size()));
  }
}

void HttpServer::HandleConnEvent(int fd, bool readable, bool writable,
                                 bool error) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // already closed this iteration
  if (error) {
    CloseConn(fd);
    return;
  }
  if (writable) {
    FlushWrites(it->second);
    it = conns_.find(fd);  // FlushWrites may close
    if (it == conns_.end()) return;
  }
  if (readable && it->second.want_read) {
    ReadFrom(it->second);
  }
}

void HttpServer::ReadFrom(Conn& conn) {
  char buf[16384];
  // A few reads per event; level-triggered polling re-fires if the
  // socket still has data, so capping the loop cannot starve anyone.
  for (int i = 0; i < 4; ++i) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      BytesReadCounter().Increment(static_cast<uint64_t>(n));
      conn.last_active = Clock::now();
      conn.parser.Append(std::string_view(buf, static_cast<size_t>(n)));
      TryAdvance(conn);
      // Backpressure: once a request is dispatched or a response is
      // pending, stop pulling bytes (they stay in the socket buffer).
      if (conn.handling || !conn.outbuf.empty()) break;
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      // Peer closed. Anything buffered is an abandoned partial request
      // (the "connection closed mid-body" case): drop it. A dispatched
      // request keeps running, but its response has nowhere to go.
      CloseConn(conn.fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn.fd);
    return;
  }
  UpdateInterest(conn);
}

std::shared_ptr<RequestTelemetry> HttpServer::StartTelemetry(
    Conn& conn, const HttpRequest* request) {
  auto telemetry = std::make_shared<RequestTelemetry>();
  const uint64_t now = obs::TraceNowMicros();
  // Charge the bytes-to-request assembly time and anchor the request
  // start before the first parse attempt began.
  telemetry->start_us = now - std::min(conn.parse_accum_us, now);
  telemetry->collector.AddStageMicros(obs::Stage::kParse,
                                      conn.parse_accum_us);
  conn.parse_accum_us = 0;
  if (request != nullptr) {
    telemetry->method = std::string(request->method);
    telemetry->route = router_.RouteLabel(request->path);
    telemetry->bytes_in = conn.parser.last_request_bytes();
    if (const std::string_view* header = request->FindHeader("traceparent")) {
      obs::TraceContext incoming;
      if (obs::ParseTraceparent(*header, &incoming)) {
        telemetry->ctx.trace_hi = incoming.trace_hi;
        telemetry->ctx.trace_lo = incoming.trace_lo;
        telemetry->ctx.sampled = incoming.sampled;
        telemetry->parent_span_id = incoming.span_id;
        telemetry->sampled_in = incoming.sampled;
      }
    }
  } else {
    telemetry->route = "other";  // parse error: no request to attribute
  }
  if (!telemetry->ctx.valid()) {
    telemetry->ctx = obs::GenerateTraceContext();
  } else {
    telemetry->ctx.span_id = obs::GenerateSpanId();  // server root span
  }
  return telemetry;
}

void HttpServer::EmitTelemetry(Conn& conn) {
  std::shared_ptr<RequestTelemetry> telemetry = std::move(conn.pending);
  conn.pending.reset();
  if (telemetry == nullptr || telemetry->status == 0) return;
  const uint64_t now = obs::TraceNowMicros();
  if (telemetry->write_start_us != 0) {
    telemetry->collector.AddStageMicros(obs::Stage::kWrite,
                                        now - telemetry->write_start_us);
  }
  obs::WideEvent event;
  event.trace_hi = telemetry->ctx.trace_hi;
  event.trace_lo = telemetry->ctx.trace_lo;
  event.span_id = telemetry->ctx.span_id;
  event.parent_span_id = telemetry->parent_span_id;
  event.route = telemetry->route;
  event.method = telemetry->method;
  event.status = telemetry->status;
  event.bytes_in = telemetry->bytes_in;
  event.bytes_out = telemetry->bytes_out;
  event.start_us = telemetry->start_us;
  event.total_us = now - telemetry->start_us;
  event.retry_after_seconds = telemetry->retry_after_seconds;
  event.sampled_in = telemetry->sampled_in;
  obs::RequestLog::Global().Emit(std::move(event), &telemetry->collector);
}

void HttpServer::TryAdvance(Conn& conn) {
  while (!conn.handling && conn.outbuf.empty() && !conn.close_after) {
    const uint64_t parse_start_us = obs::TraceNowMicros();
    const RequestParser::State state = conn.parser.Parse();
    conn.parse_accum_us += obs::TraceNowMicros() - parse_start_us;
    if (state == RequestParser::State::kNeedMore) return;
    if (state == RequestParser::State::kError) {
      ParseErrorsCounter().Increment();
      conn.pending = StartTelemetry(conn, nullptr);
      QueueResponse(
          conn,
          ErrorResponse(conn.parser.error_status(), conn.parser.error()),
          /*keep_alive=*/false);
      return;
    }

    HttpRequest request = std::move(conn.parser.request());
    conn.pending = StartTelemetry(conn, &request);
    const bool keep_alive = request.keep_alive() && !io_draining_;
    if (io_draining_) {
      // Late pipelined request on a connection kept open for an
      // in-flight flush; intake is closed.
      conn.pending->retry_after_seconds = 1.0;
      HttpResponse response = ErrorResponse(503, "server is draining");
      response.SetHeader("retry-after", "1");
      QueueResponse(conn, response, false);
      return;
    }

    int miss_status = 0;
    const HttpHandler* handler =
        router_.Find(request.method, request.path, &miss_status);
    if (handler == nullptr) {
      RequestsCounter("other").Increment();
      QueueResponse(conn,
                    ErrorResponse(miss_status,
                                  miss_status == 404 ? "no such route"
                                                     : "method not allowed"),
                    keep_alive);
      continue;
    }
    const char* route = router_.RouteLabel(request.path);
    RequestsCounter(route).Increment();

    if (in_flight_ >= options_.max_in_flight) {
      AdmissionRejectedCounter().Increment();
      conn.pending->retry_after_seconds = options_.retry_after_seconds;
      HttpResponse response = ErrorResponse(503, "server at capacity");
      response.SetHeader(
          "retry-after",
          std::to_string(static_cast<int>(
              std::ceil(options_.retry_after_seconds))));
      QueueResponse(conn, response, keep_alive);
      continue;
    }

    ++in_flight_;
    InFlightRequestsGauge().Set(static_cast<double>(in_flight_));
    conn.handling = true;
    conn.worker_outstanding = true;
    ++conn.req_serial;
    if (options_.request_deadline_seconds > 0.0) {
      conn.deadline =
          AfterSeconds(Clock::now(), options_.request_deadline_seconds);
    }
    Job job;
    job.fd = conn.fd;
    job.conn_serial = conn.serial;
    job.req_serial = conn.req_serial;
    job.request = std::move(request);
    job.handler = handler;
    job.keep_alive = keep_alive;
    job.route = route;
    job.dispatch_us = obs::TraceNowMicros();
    job.telemetry = conn.pending;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      jobs_.push_back(std::move(job));
    }
    queue_cv_.notify_one();
    return;  // one dispatched request per connection at a time
  }
}

void HttpServer::QueueResponse(Conn& conn, const HttpResponse& response,
                               bool keep_alive) {
  ResponsesCounter(response.status).Increment();
  conn.outbuf = response.Serialize(keep_alive);
  conn.out_off = 0;
  if (!keep_alive) conn.close_after = true;
  if (conn.pending != nullptr) {
    conn.pending->status = response.status;
    conn.pending->bytes_out = conn.outbuf.size();
    conn.pending->write_start_us = obs::TraceNowMicros();
  }
  UpdateInterest(conn);  // level-triggered EPOLLOUT fires right away
}

void HttpServer::FlushWrites(Conn& conn) {
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      BytesWrittenCounter().Increment(static_cast<uint64_t>(n));
      conn.out_off += static_cast<size_t>(n);
      conn.last_active = Clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn.fd);
    return;
  }
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
    EmitTelemetry(conn);  // response fully on the wire: the wide event
    if (conn.close_after) {
      CloseConn(conn.fd);
      return;
    }
    TryAdvance(conn);  // a pipelined request may already be buffered
  }
  UpdateInterest(conn);
}

void HttpServer::UpdateInterest(Conn& conn) {
  const bool want_read = !conn.handling && conn.outbuf.empty();
  const bool want_write = !conn.outbuf.empty();
  if (want_read == conn.want_read && want_write == conn.want_write) return;
  conn.want_read = want_read;
  conn.want_write = want_write;
  if (auto st = poller_->Modify(conn.fd, want_read, want_write); !st.ok()) {
    CloseConn(conn.fd);
  }
}

void HttpServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // A queued-but-unflushed response still gets its wide event (the
  // telemetry of a request whose response was never queued does not —
  // there is no status to report).
  EmitTelemetry(it->second);
  poller_->Remove(fd);
  ::close(fd);
  if (it->second.worker_outstanding) {
    // A worker thread may still read the request's string_views, which
    // point into this connection's parser buffer. Park the node until its
    // completion arrives (ProcessCompletions reaps it by conn serial).
    zombie_conns_.push_back(conns_.extract(it));
  } else {
    conns_.erase(it);
  }
  ConnectionsClosedCounter().Increment();
  ActiveConnectionsGauge().Set(static_cast<double>(conns_.size()));
}

void HttpServer::CheckTimers() {
  const TimePoint now = Clock::now();
  std::vector<int> reap;
  for (auto& [fd, conn] : conns_) {
    if (conn.handling && options_.request_deadline_seconds > 0.0 &&
        now >= conn.deadline) {
      // Answer on the handler's behalf. The worker keeps its in-flight
      // slot until it actually returns (capacity accounting stays
      // truthful); its late response is dropped via the serial bump,
      // and the connection closes because the late framing is unusable.
      DeadlineExpiredCounter().Increment();
      conn.handling = false;
      ++conn.req_serial;
      QueueResponse(conn, ErrorResponse(504, "request deadline exceeded"),
                    /*keep_alive=*/false);
    } else if (!conn.handling && conn.outbuf.empty() &&
               options_.idle_timeout_seconds > 0.0 &&
               now >= AfterSeconds(conn.last_active,
                                   options_.idle_timeout_seconds)) {
      reap.push_back(fd);
    }
  }
  for (const int fd : reap) {
    IdleReapedCounter().Increment();
    CloseConn(fd);
  }
}

void HttpServer::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    --in_flight_;
    // The worker is done with this request's buffers: release any parked
    // connection that was closed while the handler ran.
    zombie_conns_.erase(
        std::remove_if(zombie_conns_.begin(), zombie_conns_.end(),
                       [&](const ConnNode& node) {
                         return node.mapped().serial == completion.conn_serial;
                       }),
        zombie_conns_.end());
    auto it = conns_.find(completion.fd);
    if (it == conns_.end()) continue;  // connection died mid-handling
    Conn& conn = it->second;
    if (conn.serial == completion.conn_serial) conn.worker_outstanding = false;
    if (conn.serial != completion.conn_serial ||
        conn.req_serial != completion.req_serial || !conn.handling) {
      continue;  // stale (deadline already answered, or fd reused)
    }
    conn.handling = false;
    conn.outbuf = std::move(completion.bytes);
    conn.out_off = 0;
    if (conn.pending != nullptr) {
      conn.pending->status = completion.status;
      conn.pending->bytes_out = conn.outbuf.size();
      conn.pending->write_start_us = obs::TraceNowMicros();
    }
    if (!completion.keep_alive || io_draining_) conn.close_after = true;
    UpdateInterest(conn);
  }
  if (!batch.empty()) {
    InFlightRequestsGauge().Set(static_cast<double>(in_flight_));
  }
}

}  // namespace lightor::net
