#include "cluster/router.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/metrics.h"
#include "cluster/ring.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/service.h"
#include "sim/viewer.h"
#include "test_stack.h"

namespace lightor::cluster {
namespace {

/// One in-process HighlightServer behind its own HTTP front-end — a
/// cluster backend. All backends share the deterministic test platform
/// (same seed, same corpus-trained model), so per-video state is the
/// only thing that distinguishes them; exactly the production picture
/// the ring's sticky ownership relies on.
struct Backend {
  testutil::ServingStack stack;
  std::unique_ptr<net::HttpServer> http;

  std::string address() const {
    return "127.0.0.1:" + std::to_string(http->port());
  }
};

Backend MakeBackend(
    const std::string& db_dir,
    const std::function<void(serving::ServerOptions&)>& tweak = nullptr) {
  Backend backend;
  backend.stack = testutil::MakeServingStack(db_dir, tweak);
  auto http = net::HttpServer::Create(
      net::NetOptions{}, net::BuildRoutes(backend.stack.server.get()));
  EXPECT_TRUE(http.ok()) << http.status().ToString();
  backend.http = std::move(http).value();
  return backend;
}

class ClusterRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("lightor_cluster_router_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RouterOptions FastRetryOptions(std::vector<std::string> backends) {
    RouterOptions options;
    options.backends = std::move(backends);
    options.health_check_interval_seconds = 0;  // health driven by hand
    options.upstream_timeout_seconds = 2.0;
    options.retry_budget_seconds = 0.25;
    options.retry_backoff_seconds = 0.02;
    options.retry_backoff_max_seconds = 0.1;
    return options;
  }

  std::string dir_;
};

serving::LogSessionRequest MakeLog(const std::string& video_id,
                                   const sim::ViewerSession& session,
                                   uint64_t session_id) {
  serving::LogSessionRequest req;
  req.video_id = video_id;
  req.user = session.user;
  req.session_id = session_id;
  req.events = session.events;
  return req;
}

TEST_F(ClusterRouterTest, ClusterMatchesSingleProcessReference) {
  // The tentpole differential: a 3-node cluster behind the router must
  // answer every route byte-identically to one process holding all the
  // state. Identical request bytes go to both sides; every response —
  // including the final /highlights — must match exactly.
  Backend reference = MakeBackend(dir_ + "/ref");
  std::vector<Backend> fleet;
  std::vector<std::string> addresses;
  for (int i = 0; i < 3; ++i) {
    fleet.push_back(MakeBackend(dir_ + "/b" + std::to_string(i)));
    addresses.push_back(fleet.back().address());
  }
  RouterOptions options = FastRetryOptions(addresses);
  options.retry_budget_seconds = 2.0;
  auto router = HighlightRouter::Create(std::move(options));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  net::HttpClient via_router("127.0.0.1", router.value()->port());
  net::HttpClient direct("127.0.0.1", reference.http->port());
  const auto send_both = [&](std::string_view method, std::string_view target,
                             const std::string& body) {
    auto clustered = via_router.Request(method, target, body);
    auto single = direct.Request(method, target, body);
    EXPECT_TRUE(clustered.ok()) << clustered.status().ToString();
    EXPECT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_EQ(clustered.value().status, single.value().status) << target;
    EXPECT_EQ(clustered.value().body, single.value().body) << target;
    return single.value().body;
  };

  sim::ViewerSimulator viewers;
  common::Rng rng(74);
  uint64_t session_id = 0;
  const auto video_ids = reference.stack.platform->AllVideoIds();
  ASSERT_GE(video_ids.size(), 3u);  // enough keys to spread over the ring
  for (const auto& video_id : video_ids) {
    send_both("POST", "/visit",
              "{\"video_id\":\"" + video_id + "\",\"user\":\"u1\"}");
    // Deterministic viewer sessions built once, sent to both sides.
    const auto video =
        reference.stack.platform->GetVideo(video_id).value();
    const auto dots =
        reference.stack.server->GetHighlights(video_id).value();
    for (const auto& dot : dots.highlights) {
      for (int u = 0; u < 4; ++u) {
        const auto session = viewers.SimulateSession(
            video.truth, dot.dot_position, rng, "w" + std::to_string(u));
        send_both("POST", "/session",
                  net::EncodeJson(MakeLog(video_id, session, ++session_id)));
      }
    }
    send_both("POST", "/refine", "{\"video_id\":\"" + video_id + "\"}");
  }
  for (const auto& video_id : video_ids) {
    send_both("GET", "/highlights?video_id=" + video_id, "");
  }

  // The ring actually spread the videos: with 4+ keys over 3 backends at
  // least two backends must own something (all-on-one would mean the
  // differential never exercised the partitioning).
  size_t backends_used = 0;
  for (const auto& backend : fleet) {
    if (backend.stack.db->interactions().TotalRecords() > 0) {
      ++backends_used;
    }
  }
  EXPECT_GE(backends_used, 2u);

  router.value()->Shutdown();
  for (auto& backend : fleet) backend.http->Shutdown();
  reference.http->Shutdown();
}

TEST_F(ClusterRouterTest, MissingVideoIdIsBadRequest) {
  Backend backend = MakeBackend(dir_ + "/b0");
  auto router =
      HighlightRouter::Create(FastRetryOptions({backend.address()}));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  net::HttpClient client("127.0.0.1", router.value()->port());

  auto no_field = client.Post("/session", "{\"user\":\"u\"}");
  ASSERT_TRUE(no_field.ok());
  EXPECT_EQ(no_field.value().status, 400);
  auto bad_json = client.Post("/visit", "not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json.value().status, 400);
  auto no_param = client.Get("/highlights");
  ASSERT_TRUE(no_param.ok());
  EXPECT_EQ(no_param.value().status, 400);

  router.value()->Shutdown();
  backend.http->Shutdown();
}

TEST_F(ClusterRouterTest, EmptyRingFailsClosed) {
  RouterOptions options = FastRetryOptions({});
  auto router = HighlightRouter::Create(std::move(options));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  net::HttpClient client("127.0.0.1", router.value()->port());

  auto resp = client.Post("/visit", "{\"video_id\":\"v\"}");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 503);
  ASSERT_NE(resp.value().FindHeader("retry-after"), nullptr);

  // The router itself is still alive and says so.
  auto healthz = client.Get("/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz.value().status, 200);
  EXPECT_NE(healthz.value().body.find("\"ring_size\":0"), std::string::npos)
      << healthz.value().body;
  router.value()->Shutdown();
}

TEST_F(ClusterRouterTest, DeadOwnerWithoutFailoverIs503AfterRetries) {
  Backend backend = MakeBackend(dir_ + "/b0");
  RouterOptions options = FastRetryOptions({backend.address()});
  options.failover = false;
  auto router = HighlightRouter::Create(std::move(options));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  const uint64_t retries_before =
      RouterRetriesCounter(backend.address()).value();

  backend.http->Shutdown();  // connections now refused
  net::HttpClient client("127.0.0.1", router.value()->port());
  auto resp = client.Post("/visit", "{\"video_id\":\"v\"}");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 503);
  ASSERT_NE(resp.value().FindHeader("retry-after"), nullptr);
  // The budget was spent retrying the owner, visibly.
  EXPECT_GT(RouterRetriesCounter(backend.address()).value(), retries_before);
  router.value()->Shutdown();
}

TEST_F(ClusterRouterTest, FailoverServesWhenOwnerStaysDead) {
  Backend a = MakeBackend(dir_ + "/a");
  Backend b = MakeBackend(dir_ + "/b");
  auto router = HighlightRouter::Create(
      FastRetryOptions({a.address(), b.address()}));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Find a video owned by `a`, then kill `a`: after the owner-first
  // budget is exhausted the request must land on `b` and succeed (every
  // backend can serve any video of the shared platform).
  std::string victim_video;
  for (const auto& video_id : a.stack.platform->AllVideoIds()) {
    if (router.value()->fleet().Owner(video_id).value() == a.address()) {
      victim_video = video_id;
      break;
    }
  }
  if (victim_video.empty()) GTEST_SKIP() << "ring put every video on b";

  const uint64_t failovers_before = RouterFailoversCounter().value();
  a.http->Shutdown();
  net::HttpClient client("127.0.0.1", router.value()->port());
  auto resp = client.Post(
      "/visit", "{\"video_id\":\"" + victim_video + "\",\"user\":\"u\"}");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 200) << resp.value().body;
  EXPECT_GT(RouterFailoversCounter().value(), failovers_before);

  router.value()->Shutdown();
  b.http->Shutdown();
}

TEST_F(ClusterRouterTest, MembershipReloadRehashesDeterministically) {
  Backend a = MakeBackend(dir_ + "/a");
  Backend b = MakeBackend(dir_ + "/b");
  auto router = HighlightRouter::Create(FastRetryOptions({a.address()}));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  net::HttpClient client("127.0.0.1", router.value()->port());
  const uint64_t version_before = router.value()->fleet().Version();

  auto update = client.Post("/admin/membership",
                            "{\"backends\":[\"" + a.address() + "\",\"" +
                                b.address() + "\"]}");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  ASSERT_EQ(update.value().status, 200) << update.value().body;
  EXPECT_GT(router.value()->fleet().Version(), version_before);

  auto get = client.Get("/admin/membership");
  ASSERT_TRUE(get.ok());
  EXPECT_NE(get.value().body.find(a.address()), std::string::npos);
  EXPECT_NE(get.value().body.find(b.address()), std::string::npos);

  // Deterministic re-hash: the updated fleet must agree key-for-key with
  // a ring built from scratch over the same membership — what lets every
  // router (and a restarted one) route identically after a reload.
  HashRing fresh(router.value()->options().vnodes);
  fresh.SetMembers({a.address(), b.address()});
  for (int i = 0; i < 200; ++i) {
    const std::string key = "video-" + std::to_string(i);
    EXPECT_EQ(router.value()->fleet().Owner(key).value(),
              fresh.Owner(key).value())
        << key;
  }

  // Bad updates change nothing, atomically.
  const uint64_t version = router.value()->fleet().Version();
  auto bad = client.Post("/admin/membership",
                         "{\"backends\":[\"no-port\"]}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, 400);
  EXPECT_EQ(router.value()->fleet().Version(), version);

  router.value()->Shutdown();
  a.http->Shutdown();
  b.http->Shutdown();
}

TEST_F(ClusterRouterTest, MetricsAggregateFleetSeries) {
  Backend a = MakeBackend(dir_ + "/a");
  Backend b = MakeBackend(dir_ + "/b");
  auto router = HighlightRouter::Create(
      FastRetryOptions({a.address(), b.address()}));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  net::HttpClient client("127.0.0.1", router.value()->port());
  const std::string video_id = a.stack.platform->AllVideoIds()[0];
  ASSERT_EQ(client
                .Post("/visit",
                      "{\"video_id\":\"" + video_id + "\",\"user\":\"u\"}")
                .value()
                .status,
            200);

  // JSON export round-trips through the fleet parser (structure only:
  // in-process backends share this test binary's global registry, so
  // exact values double-count — a real multi-process fleet does not).
  auto json = client.Get("/metrics?format=json");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_EQ(json.value().status, 200);
  auto parsed = ParseMetricsJson(json.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  bool saw_router_series = false, saw_backend_series = false;
  for (const auto& counter : parsed.value().counters) {
    if (counter.name == "lightor_cluster_requests_total") {
      saw_router_series = true;
    }
    if (counter.name.rfind("lightor_web_", 0) == 0) {
      saw_backend_series = true;
    }
  }
  EXPECT_TRUE(saw_router_series);
  EXPECT_TRUE(saw_backend_series);

  // Prometheus rendering of the same aggregate.
  auto prom = client.Get("/metrics");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.value().body.find("lightor_cluster_requests_total"),
            std::string::npos);
  EXPECT_NE(prom.value().body.find("lightor_cluster_ring_size"),
            std::string::npos);

  router.value()->Shutdown();
  a.http->Shutdown();
  b.http->Shutdown();
}

TEST(ParseMetricsJsonTest, RejectsCountsThatAreNotWholeUint64) {
  // Counter values, bucket counts and histogram counts become uint64_t:
  // a negative, fractional or >= 2^64 number fails the scrape instead of
  // reaching an undefined cast.
  const auto counter = [](const std::string& value) {
    return "{\"counters\":[{\"name\":\"c\",\"value\":" + value + "}]}";
  };
  const auto histogram = [](const std::string& bucket,
                            const std::string& count) {
    return "{\"histograms\":[{\"name\":\"h\",\"buckets\":[{\"le\":1,"
           "\"count\":" + bucket + "},{\"le\":\"+Inf\",\"count\":0}],"
           "\"sum\":0.5,\"count\":" + count + "}]}";
  };
  auto ok = ParseMetricsJson(counter("18446744073709549568"));  // < 2^64
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().counters[0].value, 18446744073709549568u);
  ASSERT_TRUE(ParseMetricsJson(histogram("3", "3")).ok());

  for (const std::string bad : {"-1", "0.5", "1e20", "18446744073709551616"}) {
    EXPECT_EQ(ParseMetricsJson(counter(bad)).status().code(),
              common::StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(ParseMetricsJson(histogram(bad, "3")).status().code(),
              common::StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(ParseMetricsJson(histogram("3", bad)).status().code(),
              common::StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(ParseMetricsJson(counter("-1")).status().ToString(),
            "InvalidArgument: metrics json: \"value\" must be a whole number "
            "in [0, 2^64)");
}

TEST_F(ClusterRouterTest, HealthCheckerTracksBackendStates) {
  Backend a = MakeBackend(dir_ + "/a");
  Backend b = MakeBackend(dir_ + "/b");
  RouterOptions options = FastRetryOptions({a.address(), b.address()});
  options.health_check_interval_seconds = 0.05;
  auto router = HighlightRouter::Create(std::move(options));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  const auto wait_for = [&](const std::string& address,
                            BackendHealth want) {
    for (int i = 0; i < 100; ++i) {
      if (router.value()->fleet().HealthOf(address) == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  };
  EXPECT_TRUE(wait_for(a.address(), BackendHealth::kHealthy));
  EXPECT_TRUE(wait_for(b.address(), BackendHealth::kHealthy));

  // Lame duck: the backend announces draining; the checker must see it.
  a.stack.server->BeginDrain();
  EXPECT_TRUE(wait_for(a.address(), BackendHealth::kDraining));

  // A dead backend goes down.
  b.http->Shutdown();
  EXPECT_TRUE(wait_for(b.address(), BackendHealth::kDown));

  router.value()->Shutdown();
  a.http->Shutdown();
}

TEST_F(ClusterRouterTest, ValidateRejectsBadOptions) {
  RouterOptions bad_backend;
  bad_backend.backends = {"nope"};
  EXPECT_FALSE(bad_backend.Validate().ok());

  RouterOptions zero_pool;
  zero_pool.upstream_pool_size = 0;
  EXPECT_FALSE(zero_pool.Validate().ok());

  RouterOptions bad_backoff;
  bad_backoff.retry_backoff_seconds = 0.5;
  bad_backoff.retry_backoff_max_seconds = 0.1;
  EXPECT_FALSE(bad_backoff.Validate().ok());

  EXPECT_FALSE(
      HighlightRouter::Create(RouterOptions{.backends = {"nope"}}).ok());
  RouterOptions missing_file;
  missing_file.membership_file = "/nonexistent/members.json";
  EXPECT_FALSE(HighlightRouter::Create(std::move(missing_file)).ok());
}

TEST_F(ClusterRouterTest, ThrottledIngestPassesThrough429ByteExact) {
  // Admission backpressure must survive the router untouched: a 429
  // from the owning backend reaches the client byte-identical to a
  // direct hit (same body, same Retry-After), and the router must not
  // burn its retry budget on it — throttling is the channel telling the
  // client to slow down, not a transient backend failure.
  const auto rate_limited = [](serving::ServerOptions& o) {
    o.ingest_rate_messages_per_sec = 10.0;
    o.ingest_burst_messages = 20.0;
    o.ingest_clock = [] { return 0.0; };  // bucket never refills
  };
  Backend reference = MakeBackend(dir_ + "/ref", rate_limited);
  std::vector<Backend> fleet;
  std::vector<std::string> addresses;
  for (int i = 0; i < 2; ++i) {
    fleet.push_back(MakeBackend(dir_ + "/b" + std::to_string(i),
                                rate_limited));
    addresses.push_back(fleet.back().address());
  }
  auto router = HighlightRouter::Create(FastRetryOptions(addresses));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  net::HttpClient via_router("127.0.0.1", router.value()->port());
  net::HttpClient direct("127.0.0.1", reference.http->port());
  const auto ingest_body = [](size_t count, double start_ts) {
    serving::IngestChatRequest req;
    req.video_id = "hot-stream";
    for (size_t i = 0; i < count; ++i) {
      core::Message m;
      m.timestamp = start_ts + static_cast<double>(i);
      m.user = "u";
      m.text = "spam " + std::to_string(i);
      req.messages.push_back(std::move(m));
    }
    return net::EncodeJson(req);
  };

  // Drain the burst on both sides, then force a throttle.
  const std::string drain = ingest_body(20, 1.0);
  auto drained = via_router.Post("/ingest", drain);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained.value().status, 200) << drained.value().body;
  auto drained_direct = direct.Post("/ingest", drain);
  ASSERT_TRUE(drained_direct.ok()) << drained_direct.status().ToString();
  EXPECT_EQ(drained.value().body, drained_direct.value().body);

  const std::string over = ingest_body(5, 100.0);
  auto throttled = via_router.Post("/ingest", over);
  ASSERT_TRUE(throttled.ok()) << throttled.status().ToString();
  auto throttled_direct = direct.Post("/ingest", over);
  ASSERT_TRUE(throttled_direct.ok()) << throttled_direct.status().ToString();
  EXPECT_EQ(throttled.value().status, 429);
  EXPECT_EQ(throttled_direct.value().status, 429);
  EXPECT_EQ(throttled.value().body, throttled_direct.value().body);
  const std::string* routed_retry =
      throttled.value().FindHeader("retry-after");
  const std::string* direct_retry =
      throttled_direct.value().FindHeader("retry-after");
  ASSERT_NE(routed_retry, nullptr);
  ASSERT_NE(direct_retry, nullptr);
  EXPECT_EQ(*routed_retry, *direct_retry);
  EXPECT_TRUE(net::HttpClient::IsRetryableAfterDelay(throttled.value().status));
  EXPECT_DOUBLE_EQ(net::HttpClient::RetryAfterSeconds(throttled.value(), 9.0),
                   1.0);

  // Exactly one backend saw exactly one throttled batch: the router
  // attempted the owner once and did not retry the 429 anywhere.
  size_t fleet_throttled = 0;
  for (const auto& backend : fleet) {
    for (const auto& channel : backend.stack.server->ChannelsSnapshot()) {
      fleet_throttled += channel.throttled_batches;
    }
  }
  EXPECT_EQ(fleet_throttled, 1u);
}

}  // namespace
}  // namespace lightor::cluster
