#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cluster/metrics.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "net/json_arena.h"
#include "obs/export.h"
#include "obs/trace_context.h"

namespace lightor::cluster {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The video id is the routing key of every data route: POST bodies
/// carry it as a top-level string field, GET /highlights as a query
/// param. A body we cannot parse is the client's error (400), exactly
/// as the backend itself would answer — the router never guesses an
/// owner.
common::Result<std::string> VideoIdFromBody(std::string_view body) {
  LIGHTOR_ASSIGN_OR_RETURN(net::JsonDoc doc, net::JsonDoc::Parse(body));
  const net::JsonDoc::Ref video_id = doc.root().Find("video_id");
  if (!video_id || !video_id.is_string()) {
    return common::Status::InvalidArgument(
        "router: missing string field \"video_id\"");
  }
  return std::string(video_id.AsString());
}

/// `"backends":[{"address":...,"health":...},...]` — the member list
/// shared by /healthz and GET /admin/membership.
void AppendBackends(const std::vector<BackendStatus>& statuses,
                    std::string& out) {
  out += "\"backends\":[";
  for (size_t i = 0; i < statuses.size(); ++i) {
    out += i == 0 ? "{\"address\":" : ",{\"address\":";
    common::AppendJsonString(statuses[i].address, out);
    out += ",\"health\":";
    common::AppendJsonString(BackendHealthName(statuses[i].health), out);
    out += '}';
  }
  out += ']';
}

double HealthGaugeValue(BackendHealth health) {
  switch (health) {
    case BackendHealth::kHealthy:
      return 1.0;
    case BackendHealth::kDraining:
      return 0.5;
    case BackendHealth::kUnknown:
    case BackendHealth::kDown:
      return 0.0;
  }
  return 0.0;
}

net::HttpResponse RouterUnavailable(std::string_view detail) {
  net::HttpResponse response = net::ErrorResponse(
      503, "router: no backend available: " + std::string(detail));
  response.SetHeader("retry-after", "1");
  return response;
}

}  // namespace

common::Status RouterOptions::Validate() const {
  LIGHTOR_RETURN_IF_ERROR(net.Validate());
  if (vnodes == 0) {
    return common::Status::InvalidArgument("router: vnodes must be > 0");
  }
  if (upstream_timeout_seconds <= 0.0) {
    return common::Status::InvalidArgument(
        "router: upstream_timeout_seconds must be > 0");
  }
  if (upstream_pool_size == 0) {
    return common::Status::InvalidArgument(
        "router: upstream_pool_size must be > 0");
  }
  if (retry_budget_seconds < 0.0 || retry_backoff_seconds <= 0.0 ||
      retry_backoff_max_seconds < retry_backoff_seconds) {
    return common::Status::InvalidArgument("router: bad retry configuration");
  }
  for (const auto& backend : backends) {
    LIGHTOR_RETURN_IF_ERROR(SplitAddress(backend).status());
  }
  return common::Status::OK();
}

HighlightRouter::HighlightRouter(RouterOptions options)
    : options_(std::move(options)),
      fleet_(options_.vnodes),
      jitter_state_(options_.jitter_seed | 1) {}

common::Result<std::unique_ptr<HighlightRouter>> HighlightRouter::Create(
    RouterOptions options) {
  LIGHTOR_RETURN_IF_ERROR(options.Validate());
  std::vector<std::string> backends = options.backends;
  if (!options.membership_file.empty()) {
    LIGHTOR_ASSIGN_OR_RETURN(backends,
                             LoadMembershipFile(options.membership_file));
  }
  std::unique_ptr<HighlightRouter> router(
      new HighlightRouter(std::move(options)));
  LIGHTOR_RETURN_IF_ERROR(router->fleet_.Update(std::move(backends)));
  router->RefreshMembershipGauges();

  auto http = net::HttpServer::Create(router->options_.net,
                                      router->BuildRoutes());
  if (!http.ok()) return http.status();
  router->http_ = std::move(http).value();

  if (router->options_.health_check_interval_seconds > 0.0) {
    router->health_thread_ =
        std::thread([r = router.get()] { r->HealthCheckLoop(); });
  }
  LIGHTOR_LOG(Info) << "cluster: router on port " << router->port()
                    << " fronting " << router->fleet_.NumMembers()
                    << " backend(s)";
  return router;
}

HighlightRouter::~HighlightRouter() { Shutdown(); }

void HighlightRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  if (http_ != nullptr) http_->Shutdown();
}

net::Router HighlightRouter::BuildRoutes() {
  net::Router router;
  const auto forward_by_body = [this](const net::HttpRequest& request) {
    auto key = VideoIdFromBody(request.body);
    if (!key.ok()) return net::ErrorResponse(400, key.status().ToString());
    return Forward(request, key.value());
  };
  for (const char* path :
       {"/visit", "/session", "/refine", "/ingest", "/finalize"}) {
    router.Handle("POST", path, forward_by_body);
  }
  router.Handle("GET", "/highlights", [this](const net::HttpRequest& request) {
    const std::string video_id = request.QueryParam("video_id");
    if (video_id.empty()) {
      return net::ErrorResponse(400,
                                "highlights: missing query param video_id");
    }
    return Forward(request, video_id);
  });
  router.Handle("GET", "/metrics", [this](const net::HttpRequest& request) {
    return HandleMetrics(request);
  });
  router.Handle("GET", "/healthz",
                [this](const net::HttpRequest&) { return HandleHealthz(); });
  router.Handle("GET", "/admin/membership", [this](const net::HttpRequest&) {
    return HandleGetMembership();
  });
  router.Handle("POST", "/admin/membership",
                [this](const net::HttpRequest& request) {
                  return HandlePostMembership(request);
                });
  return router;
}

std::unique_ptr<net::HttpClient> HighlightRouter::AcquireClient(
    const std::string& backend) {
  Upstream* upstream = nullptr;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    auto& slot = pool_[backend];
    if (slot == nullptr) slot = std::make_unique<Upstream>();
    upstream = slot.get();
  }
  std::lock_guard<std::mutex> lock(upstream->mu);
  if (upstream->in_flight >= options_.upstream_pool_size) return nullptr;
  ++upstream->in_flight;
  if (!upstream->idle.empty()) {
    auto client = std::move(upstream->idle.back());
    upstream->idle.pop_back();
    return client;
  }
  auto split = SplitAddress(backend);  // validated at membership time
  auto client = std::make_unique<net::HttpClient>(split.value().first,
                                                  split.value().second);
  client->set_timeout_seconds(options_.upstream_timeout_seconds);
  return client;
}

void HighlightRouter::ReleaseClient(const std::string& backend,
                                    std::unique_ptr<net::HttpClient> client,
                                    bool reusable) {
  Upstream* upstream = nullptr;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    auto it = pool_.find(backend);
    if (it == pool_.end()) return;  // membership changed under us
    upstream = it->second.get();
  }
  std::lock_guard<std::mutex> lock(upstream->mu);
  if (upstream->in_flight > 0) --upstream->in_flight;
  if (reusable && client != nullptr &&
      upstream->idle.size() < options_.upstream_pool_size) {
    upstream->idle.push_back(std::move(client));
  }
}

common::Result<net::HttpResponse> HighlightRouter::TryBackend(
    const std::string& backend, const net::HttpRequest& request) {
  auto client = AcquireClient(backend);
  if (client == nullptr) {
    return common::Status::Unavailable("router: " + backend +
                                       " at in-flight cap");
  }
  // Span the router→backend hop into the caller's trace (the embedded
  // HttpServer installed the request's context on this worker thread).
  const obs::TraceContext& ctx = obs::CurrentTraceContext();
  client->set_header("traceparent",
                     ctx.valid() ? obs::FormatTraceparent(ctx) : "");

  RouterRequestsCounter(backend).Increment();
  const Clock::time_point start = Clock::now();
  auto response = client->Request(request.method, request.target,
                                  request.body);
  UpstreamLatency(backend).Observe(SecondsSince(start));
  if (!response.ok()) {
    RouterErrorsCounter(backend).Increment();
    ReleaseClient(backend, nullptr, /*reusable=*/false);
    return response.status();
  }
  ReleaseClient(backend, std::move(client), /*reusable=*/true);
  return response;
}

net::HttpResponse HighlightRouter::Forward(const net::HttpRequest& request,
                                           const std::string& key) {
  const std::vector<std::string> candidates =
      fleet_.Candidates(key, fleet_.NumMembers());
  if (candidates.empty()) {
    RouterRejectedCounter().Increment();
    return RouterUnavailable("ring is empty");
  }

  const Clock::time_point start = Clock::now();
  double backoff = options_.retry_backoff_seconds;
  std::string last_error = "unreachable";

  // Phase 1 — the owner, for the whole retry budget: per-video state is
  // sticky, so a crashed-and-restarting owner is worth waiting for.
  // Phase 2 — failover walk over the remaining ring candidates, skipping
  // draining backends when possible, one attempt each.
  size_t candidate = 0;
  bool failed_over = false;
  for (;;) {
    const std::string& backend = candidates[candidate];
    auto attempt = TryBackend(backend, request);
    if (attempt.ok()) {
      net::HttpResponse& response = attempt.value();
      const bool backend_busy = response.status == 503;
      if (!backend_busy) {
        // Byte-exact passthrough: the body is untouched; framing headers
        // are re-derived by our own server on write.
        net::HttpResponse out;
        out.status = response.status;
        out.body = std::move(response.body);
        for (const char* header : {"content-type", "retry-after"}) {
          if (const std::string* value = response.FindHeader(header)) {
            out.SetHeader(header, *value);
          }
        }
        return out;
      }
      last_error = backend + " saturated (503)";
    } else {
      last_error = attempt.status().ToString();
    }

    // Transient failure. Spend the budget on the owner, then fail over.
    if (SecondsSince(start) >= options_.retry_budget_seconds) {
      if (!options_.failover || candidate + 1 >= candidates.size()) break;
      // Prefer a non-draining failover target when one exists.
      size_t next = candidate + 1;
      while (next < candidates.size() &&
             fleet_.HealthOf(candidates[next]) == BackendHealth::kDraining) {
        ++next;
      }
      if (next >= candidates.size()) next = candidate + 1;
      candidate = next;
      failed_over = true;
      RouterFailoversCounter().Increment();
      // One attempt per failover candidate: the budget is spent; walking
      // the whole ring again would stack deadlines on a dead fleet.
      if (candidate >= candidates.size()) break;
      continue;
    }

    RouterRetriesCounter(backend).Increment();
    double jitter;
    {
      std::lock_guard<std::mutex> lock(jitter_mu_);
      common::SplitMix64 mix(jitter_state_);
      jitter_state_ = mix.Next();
      jitter = 0.5 + static_cast<double>(jitter_state_ >> 11) /
                         static_cast<double>(1ull << 53);  // [0.5, 1.5)
    }
    if (!SleepFor(backoff * jitter)) break;  // shutting down
    backoff = std::min(backoff * 2.0, options_.retry_backoff_max_seconds);
  }

  RouterRejectedCounter().Increment();
  if (failed_over) {
    LIGHTOR_LOG(Warning) << "cluster: request for key \"" << key
                         << "\" exhausted every candidate; last error: "
                         << last_error;
  }
  return RouterUnavailable(last_error);
}

net::HttpResponse HighlightRouter::HandleMetrics(
    const net::HttpRequest& request) {
  // Fleet aggregate: own registry (router series) + one scrape per
  // backend not known to be down.
  obs::RegistrySnapshot merged = obs::Registry::Global().Snapshot();
  for (const BackendStatus& status : fleet_.Statuses()) {
    if (status.health == BackendHealth::kDown) continue;
    auto client = AcquireClient(status.address);
    if (client == nullptr) {
      ScrapesCounter(false).Increment();
      continue;
    }
    client->set_header("traceparent", "");
    auto response = client->Request("GET", "/metrics?format=json", {});
    const bool ok = response.ok() && response.value().status == 200;
    ReleaseClient(status.address, ok ? std::move(client) : nullptr, ok);
    if (!ok) {
      ScrapesCounter(false).Increment();
      continue;
    }
    auto snapshot = ParseMetricsJson(response.value().body);
    if (!snapshot.ok()) {
      ScrapesCounter(false).Increment();
      continue;
    }
    ScrapesCounter(true).Increment();
    obs::MergeSnapshotInto(&merged, snapshot.value());
  }

  const std::string format = request.QueryParam("format");
  net::HttpResponse response;
  if (format == "json") {
    response.body = obs::ExportJson(merged);
    response.SetHeader("content-type", "application/json");
  } else {
    response.body = obs::ExportPrometheus(merged);
    response.SetHeader("content-type", "text/plain; version=0.0.4");
  }
  return response;
}

net::HttpResponse HighlightRouter::HandleHealthz() {
  std::string body = "{\"status\":\"ok\",\"role\":\"router\",\"ring_size\":";
  common::AppendJsonNumber(fleet_.NumMembers(), body);
  body += ',';
  AppendBackends(fleet_.Statuses(), body);
  body += '}';
  return net::JsonResponse(200, std::move(body));
}

net::HttpResponse HighlightRouter::HandleGetMembership() {
  std::string body = "{\"version\":";
  common::AppendJsonNumber(fleet_.Version(), body);
  body += ',';
  AppendBackends(fleet_.Statuses(), body);
  body += '}';
  return net::JsonResponse(200, std::move(body));
}

net::HttpResponse HighlightRouter::HandlePostMembership(
    const net::HttpRequest& request) {
  auto backends = ParseMembership(request.body);
  if (!backends.ok()) {
    return net::ErrorResponse(400, backends.status().ToString());
  }
  if (auto st = fleet_.Update(std::move(backends).value()); !st.ok()) {
    return net::ErrorResponse(400, st.ToString());
  }
  RefreshMembershipGauges();
  LIGHTOR_LOG(Info) << "cluster: membership updated to "
                    << fleet_.NumMembers() << " backend(s) (version "
                    << fleet_.Version() << ")";
  return HandleGetMembership();
}

void HighlightRouter::RefreshMembershipGauges() {
  RingSizeGauge().Set(static_cast<double>(fleet_.NumMembers()));
  MembershipVersionGauge().Set(static_cast<double>(fleet_.Version()));
  for (const BackendStatus& status : fleet_.Statuses()) {
    BackendHealthGauge(status.address)
        .Set(HealthGaugeValue(status.health));
  }
}

void HighlightRouter::HealthCheckLoop() {
  // Dedicated probe clients (never the forwarding pool: a wedged data
  // path must not starve health checks, and vice versa).
  std::unordered_map<std::string, std::unique_ptr<net::HttpClient>> probes;
  const double timeout =
      std::min(options_.upstream_timeout_seconds,
               std::max(options_.health_check_interval_seconds, 0.1));
  for (;;) {
    for (const std::string& backend : fleet_.Members()) {
      auto& probe = probes[backend];
      if (probe == nullptr) {
        auto split = SplitAddress(backend);
        probe = std::make_unique<net::HttpClient>(split.value().first,
                                                  split.value().second);
        probe->set_timeout_seconds(timeout);
      }
      auto response = probe->Get("/healthz");
      BackendHealth health = BackendHealth::kDown;
      if (response.ok() && response.value().status == 200) {
        health = response.value().body.find("\"state\":\"draining\"") !=
                         std::string::npos
                     ? BackendHealth::kDraining
                     : BackendHealth::kHealthy;
      }
      fleet_.SetHealth(backend, health);
      BackendHealthGauge(backend).Set(HealthGaugeValue(health));
    }
    if (!SleepFor(options_.health_check_interval_seconds)) return;
  }
}

bool HighlightRouter::SleepFor(double seconds) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  return !stop_cv_.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [this] { return stopping_; });
}

}  // namespace lightor::cluster
