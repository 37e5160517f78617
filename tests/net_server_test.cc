#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/http.h"
#include "net/server.h"
#include "net/service.h"
#include "test_stack.h"

namespace lightor::net {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Routes exercising the server mechanics without a serving backend.
Router TestRoutes() {
  Router router;
  router.Handle("GET", "/ping", [](const HttpRequest&) {
    return JsonResponse(200, "{\"pong\":true}");
  });
  router.Handle("POST", "/echo", [](const HttpRequest& req) {
    return JsonResponse(200, std::string(req.body));
  });
  router.Handle("GET", "/slow", [](const HttpRequest& req) {
    const std::string ms = req.QueryParam("ms");
    SleepMs(ms.empty() ? 300 : std::stoi(ms));
    return JsonResponse(200, "{\"slow\":true}");
  });
  router.Handle("GET", "/throw", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  return router;
}

std::unique_ptr<HttpServer> MustStart(NetOptions options) {
  auto server = HttpServer::Create(std::move(options), TestRoutes());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

/// Raw TCP connection for wire-level assertions the HttpClient's
/// conveniences (transparent reconnect) would hide.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads until the peer closes (or the 5s socket timeout trips).
  std::string RecvUntilClose() {
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

TEST(HttpServerTest, RoundTripAndKeepAlive) {
  auto server = MustStart(NetOptions{});
  HttpClient client("127.0.0.1", server->port());

  auto ping = client.Get("/ping");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping.value().status, 200);
  EXPECT_EQ(ping.value().body, "{\"pong\":true}");

  // Second request reuses the same keep-alive connection.
  auto echo = client.Post("/echo", "{\"n\":42}");
  ASSERT_TRUE(echo.ok()) << echo.status().ToString();
  EXPECT_EQ(echo.value().status, 200);
  EXPECT_EQ(echo.value().body, "{\"n\":42}");

  server->Shutdown();
}

TEST(HttpServerTest, RouteMisses404And405) {
  auto server = MustStart(NetOptions{});
  HttpClient client("127.0.0.1", server->port());

  auto missing = client.Get("/no-such-route");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  auto wrong_method = client.Post("/ping", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);

  // A miss does not poison the connection.
  auto ping = client.Get("/ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().status, 200);
  server->Shutdown();
}

TEST(HttpServerTest, HandlerExceptionAnswers500) {
  auto server = MustStart(NetOptions{});
  HttpClient client("127.0.0.1", server->port());
  auto resp = client.Get("/throw");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 500);
  server->Shutdown();
}

TEST(HttpServerTest, ParseErrorAnswers400AndCloses) {
  auto server = MustStart(NetOptions{});
  RawConn conn(server->port());
  conn.Send("BOGUS\r\n\r\n");
  const std::string wire = conn.RecvUntilClose();
  EXPECT_NE(wire.find("HTTP/1.1 400"), std::string::npos) << wire;
  EXPECT_NE(wire.find("connection: close"), std::string::npos) << wire;
  server->Shutdown();
}

TEST(HttpServerTest, OversizedBodyAnswers413) {
  NetOptions options;
  options.max_body_bytes = 16;
  auto server = MustStart(std::move(options));
  HttpClient client("127.0.0.1", server->port());
  auto resp = client.Post("/echo", std::string(64, 'x'));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 413);
  server->Shutdown();
}

TEST(HttpServerTest, PipelinedRequestsAnsweredInOrder) {
  auto server = MustStart(NetOptions{});
  RawConn conn(server->port());
  conn.Send(
      "POST /echo HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"id\":1}\n"
      "POST /echo HTTP/1.1\r\ncontent-length: 9\r\nconnection: close\r\n"
      "\r\n{\"id\":2}\n");
  const std::string wire = conn.RecvUntilClose();
  const size_t first = wire.find("{\"id\":1}");
  const size_t second = wire.find("{\"id\":2}");
  ASSERT_NE(first, std::string::npos) << wire;
  ASSERT_NE(second, std::string::npos) << wire;
  EXPECT_LT(first, second);
  server->Shutdown();
}

TEST(HttpServerTest, DeadlineExpiryAnswers504AndCloses) {
  NetOptions options;
  options.request_deadline_seconds = 0.2;
  auto server = MustStart(std::move(options));
  HttpClient client("127.0.0.1", server->port());

  auto resp = client.Get("/slow?ms=1000");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 504);
  ASSERT_NE(resp.value().FindHeader("connection"), nullptr);
  EXPECT_EQ(*resp.value().FindHeader("connection"), "close");
  server->Shutdown();  // waits out the stranded handler before joining
}

TEST(HttpServerTest, SaturationAnswers503WithRetryAfter) {
  NetOptions options;
  options.max_in_flight = 1;
  options.retry_after_seconds = 1.0;
  auto server = MustStart(std::move(options));

  std::thread occupant([&] {
    HttpClient slow("127.0.0.1", server->port());
    auto resp = slow.Get("/slow?ms=600");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().status, 200);
  });
  SleepMs(150);  // let the slow request occupy the single slot

  HttpClient client("127.0.0.1", server->port());
  auto rejected = client.Get("/ping");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.value().status, 503);
  ASSERT_NE(rejected.value().FindHeader("retry-after"), nullptr);
  EXPECT_EQ(*rejected.value().FindHeader("retry-after"), "1");
  // The rejected connection stays open: retrying after the slot frees
  // succeeds on the same client.
  occupant.join();
  auto retried = client.Get("/ping");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().status, 200);
  server->Shutdown();
}

TEST(HttpServerTest, GracefulDrainFlushesInFlightWork) {
  auto server = MustStart(NetOptions{});
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      HttpClient client("127.0.0.1", server->port());
      auto resp = client.Get("/slow?ms=400");
      if (resp.ok() && resp.value().status == 200) ++ok_count;
    });
  }
  SleepMs(150);  // all four are dispatched and sleeping in handlers
  const auto drain_start = std::chrono::steady_clock::now();
  server->Shutdown();
  const double drain_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    drain_start)
          .count();
  for (auto& t : threads) t.join();
  // Drain must wait for the in-flight handlers and flush their
  // responses, not cut the connections.
  EXPECT_EQ(ok_count.load(), kThreads);
  EXPECT_LT(drain_seconds, server->options().drain_timeout_seconds);

  // After shutdown the port no longer accepts.
  HttpClient late("127.0.0.1", server->port());
  late.set_timeout_seconds(2.0);
  EXPECT_FALSE(late.Get("/ping").ok());
}

TEST(HttpServerTest, ShutdownIsIdempotent) {
  auto server = MustStart(NetOptions{});
  server->Shutdown();
  server->Shutdown();  // second call is a no-op
}

TEST(HttpServerTest, IdleConnectionsAreReaped) {
  NetOptions options;
  options.idle_timeout_seconds = 0.2;
  auto server = MustStart(std::move(options));
  RawConn conn(server->port());
  // Send nothing: a half-open (slowloris) connection must be cut once
  // the idle timeout elapses — RecvUntilClose returns on the reap, well
  // before its own 5s socket timeout.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(conn.RecvUntilClose(), "");
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 3.0);
  server->Shutdown();
}

TEST(HttpServerTest, HealthzReportsDrainingDuringLameDuck) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("lightor_net_server_drain_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  auto stack = testutil::MakeServingStack(dir + "/db");
  auto http = HttpServer::Create(NetOptions{}, BuildRoutes(stack.server.get()));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  HttpClient client("127.0.0.1", http.value()->port());

  auto before = client.Get("/healthz");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before.value().status, 200);
  EXPECT_NE(before.value().body.find("\"state\":\"ok\""), std::string::npos)
      << before.value().body;

  // Lame duck: announced as draining while requests still succeed.
  stack.server->BeginDrain();
  auto during = client.Get("/healthz");
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  ASSERT_EQ(during.value().status, 200);
  EXPECT_NE(during.value().body.find("\"state\":\"draining\""),
            std::string::npos)
      << during.value().body;
  const std::string video_id = stack.platform->AllVideoIds()[0];
  auto visit = client.Post("/visit", "{\"video_id\":\"" + video_id +
                                         "\",\"user\":\"u1\"}");
  ASSERT_TRUE(visit.ok()) << visit.status().ToString();
  EXPECT_EQ(visit.value().status, 200) << visit.value().body;

  http.value()->Shutdown();
  stack.server->Shutdown();
  std::filesystem::remove_all(dir);
}

TEST(HttpClientTest, ConnectRefusedIsUnavailable) {
  // Grab a port that was just listening and no longer is: connecting to
  // it gets a deterministic ECONNREFUSED rather than a hang.
  auto server = MustStart(NetOptions{});
  const uint16_t dead_port = server->port();
  server->Shutdown();
  server.reset();

  HttpClient client("127.0.0.1", dead_port);
  client.set_timeout_seconds(2.0);
  auto resp = client.Get("/ping");
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsUnavailable()) << resp.status().ToString();
}

TEST(HttpClientTest, ReadTimeoutIsDeadlineExceeded) {
  // The server-side request deadline must not fire first, so give the
  // server a long deadline and the client a short socket timeout.
  NetOptions options;
  options.request_deadline_seconds = 10.0;
  auto server = MustStart(std::move(options));

  HttpClient client("127.0.0.1", server->port());
  client.set_timeout_seconds(0.3);
  auto resp = client.Get("/slow?ms=2000");
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsDeadlineExceeded()) << resp.status().ToString();
  server->Shutdown();
}

TEST(HttpServerTest, InvalidOptionsAreRejected) {
  NetOptions zero_workers;
  zero_workers.num_workers = 0;
  EXPECT_FALSE(HttpServer::Create(zero_workers, Router()).ok());

  NetOptions zero_in_flight;
  zero_in_flight.max_in_flight = 0;
  EXPECT_FALSE(HttpServer::Create(zero_in_flight, Router()).ok());
}

}  // namespace
}  // namespace lightor::net
