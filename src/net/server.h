#ifndef LIGHTOR_NET_SERVER_H_
#define LIGHTOR_NET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/http.h"

namespace lightor::net {

/// Request handler: runs on a worker-pool thread, so it must be
/// thread-safe (HighlightServer is). Returning is the only way to
/// complete a request — there is no async handle-off.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Method+path route table (exact-match paths; the wire schema has no
/// parameterized routes). Lookup misses distinguish 404 (unknown path)
/// from 405 (known path, wrong method).
class Router {
 public:
  void Handle(std::string method, std::string path, HttpHandler handler);

  /// nullptr on miss, with `*error_status` set to 404 or 405.
  const HttpHandler* Find(std::string_view method, std::string_view path,
                          int* error_status) const;

  /// The registered path for metrics labels, or "other" when unrouted.
  const char* RouteLabel(std::string_view path) const;

 private:
  struct Route {
    std::string method;
    std::string path;
    HttpHandler handler;
  };
  std::vector<Route> routes_;
};

/// Wire front-end configuration (the `ServerOptions` of the socket
/// layer; serving knobs stay in serving::ServerOptions).
struct NetOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via `HttpServer::port()`.
  uint16_t port = 0;

  /// Fixed handler worker pool.
  size_t num_workers = 4;
  /// Admission control: requests dispatched but not yet answered. At the
  /// cap, further requests get an immediate 503 with `Retry-After` and
  /// the connection stays open for the retry.
  size_t max_in_flight = 64;
  /// Seconds before the Retry-After'd client should come back.
  double retry_after_seconds = 1.0;
  /// Handler wall-clock deadline. Expiry answers 504 on the handler's
  /// behalf, drops its late result, and closes the connection (the late
  /// bytes would desync keep-alive framing). 0 disables.
  double request_deadline_seconds = 10.0;
  /// Keep-alive connections idle longer than this are reaped; also the
  /// slowloris guard for half-sent requests. 0 disables.
  double idle_timeout_seconds = 60.0;
  /// Graceful-drain cap: after `Shutdown()` stops intake, in-flight work
  /// gets this long to finish before remaining connections are cut.
  double drain_timeout_seconds = 10.0;

  /// Parser hardening caps (see RequestParser::Limits).
  size_t max_header_bytes = 8192;
  size_t max_body_bytes = 1 << 20;
  /// Accepted connections above this are closed on arrival.
  size_t max_connections = 1024;

  common::Status Validate() const;
};

/// Internal epoll event backend; defined in server.cc.
class Poller;

/// Per-request tracing state (trace context, span collector, stage
/// clocks, wide-event fields); defined in server.cc. Shared between the
/// IO thread and the worker handling the request.
struct RequestTelemetry;

/// A minimal dependency-free HTTP/1.1 server:
///
///   * **One event-loop thread** (epoll) owns every socket: accepts,
///     reads, incremental-parses, writes. No handler code ever runs on
///     it, so a slow handler cannot stall the wire.
///   * **A fixed worker pool** executes handlers. The event loop
///     dispatches one request per connection at a time; pipelined
///     requests buffered behind it are parsed after its response is
///     flushed, preserving response order by construction.
///   * **Admission control** happens at dispatch: `max_in_flight`
///     requests past the accept gate, everything above answered
///     503 + Retry-After without touching the worker pool.
///   * **Robustness**: parser errors answer 400/413/431/501 and close;
///     per-request deadlines answer 504 and drop the late handler
///     result; idle and half-open connections are reaped.
///   * **Graceful drain**: `Shutdown()` stops accepting, lets in-flight
///     handlers finish and their responses flush (bounded by
///     `drain_timeout_seconds`), then tears down the loop and joins the
///     pool. Callers layer their own backend drain after it (the CLI
///     calls `HighlightServer::Shutdown()` next).
class HttpServer {
 public:
  /// Binds and listens synchronously (so `port()` is valid on return),
  /// then starts the event loop and worker threads.
  static common::Result<std::unique_ptr<HttpServer>> Create(NetOptions options,
                                                            Router router);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (resolves ephemeral binds).
  uint16_t port() const { return port_; }
  const NetOptions& options() const { return options_; }

  /// Graceful drain; idempotent, callable from any thread.
  void Shutdown();

 private:
  HttpServer(NetOptions options, Router router);

  struct Conn;
  struct Job;
  struct Completion;

  common::Status Bind();
  void IoLoop();
  void WorkerLoop();
  void WakeIo();

  // Event-loop internals (called only from the IO thread).
  void AcceptAll();
  void HandleConnEvent(int fd, bool readable, bool writable, bool error);
  void ReadFrom(Conn& conn);
  void TryAdvance(Conn& conn);
  void QueueResponse(Conn& conn, const HttpResponse& response,
                     bool keep_alive);
  void FlushWrites(Conn& conn);
  /// Builds the request's telemetry: parses (or generates) the W3C
  /// trace context and charges the accumulated parse time.
  std::shared_ptr<RequestTelemetry> StartTelemetry(Conn& conn,
                                                   const HttpRequest* request);
  /// Finalizes and emits the pending request's wide event (no-op when
  /// none is pending or no response was ever queued).
  void EmitTelemetry(Conn& conn);
  void UpdateInterest(Conn& conn);
  void CloseConn(int fd);
  void CheckTimers();
  void ProcessCompletions();
  void StartDrain();
  bool DrainComplete();

  NetOptions options_;
  Router router_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;

  std::unique_ptr<Poller> poller_;
  std::unordered_map<int, Conn> conns_;  ///< IO thread only
  /// Closed connections whose dispatched request may still be running: a
  /// worker can hold string_views into the parser buffer, so the Conn is
  /// parked here until its completion arrives (IO thread only). Any
  /// leftovers die in ~HttpServer, after Shutdown() has joined the workers.
  using ConnNode = std::unordered_map<int, Conn>::node_type;
  std::vector<ConnNode> zombie_conns_;
  uint64_t next_serial_ = 1;             ///< IO thread only
  size_t in_flight_ = 0;                 ///< IO thread only
  bool io_draining_ = false;             ///< IO thread only

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> jobs_;
  bool stop_workers_ = false;  ///< guarded by queue_mu_

  std::mutex completion_mu_;
  std::vector<Completion> completions_;

  std::mutex state_mu_;
  bool draining_ = false;   ///< guarded by state_mu_
  bool shut_down_ = false;  ///< guarded by state_mu_

  std::thread io_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace lightor::net

#endif  // LIGHTOR_NET_SERVER_H_
