#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "net/client.h"
#include "net/codec.h"
#include "net/http.h"
#include "net/json_arena.h"
#include "net/server.h"
#include "net/service.h"
#include "test_stack.h"

namespace lightor::net {
namespace {

constexpr std::string_view kPostVisit =
    "POST /visit HTTP/1.1\r\n"
    "Host: localhost\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 20\r\n"
    "\r\n"
    "{\"video_id\":\"vid-1\"}";

/// Owns the parser for the lifetime of the parsed request: the request's
/// string_view fields borrow from the parser's buffer (the zero-copy
/// contract), so handing the request out by value would dangle.
class MustParse {
 public:
  explicit MustParse(std::string_view wire) {
    parser_.Append(wire);
    EXPECT_EQ(parser_.Parse(), RequestParser::State::kReady);
  }
  const HttpRequest* operator->() const { return &parser_.request(); }
  const HttpRequest& operator*() const { return parser_.request(); }

 private:
  RequestParser parser_;
};

TEST(RequestParserTest, CompleteRequestInOneRead) {
  const MustParse req(kPostVisit);
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/visit");
  EXPECT_EQ(req->version_minor, 1);
  EXPECT_EQ(req->body, "{\"video_id\":\"vid-1\"}");
  ASSERT_NE(req->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*req->FindHeader("Content-Type"), "application/json");
}

// Satellite requirement: the parser must produce the identical request
// no matter where the kernel tears the read — split at EVERY byte
// boundary and compare against the one-shot parse.
TEST(RequestParserTest, SplitAtEveryByteBoundary) {
  const MustParse reference(kPostVisit);
  for (size_t split = 0; split <= kPostVisit.size(); ++split) {
    RequestParser parser;
    parser.Append(kPostVisit.substr(0, split));
    const auto first = parser.Parse();
    if (split < kPostVisit.size()) {
      ASSERT_EQ(first, RequestParser::State::kNeedMore) << "split " << split;
      parser.Append(kPostVisit.substr(split));
      ASSERT_EQ(parser.Parse(), RequestParser::State::kReady)
          << "split " << split;
    } else {
      ASSERT_EQ(first, RequestParser::State::kReady) << "split " << split;
    }
    const HttpRequest& req = parser.request();
    EXPECT_EQ(req.method, reference->method) << "split " << split;
    EXPECT_EQ(req.target, reference->target) << "split " << split;
    EXPECT_EQ(req.headers, reference->headers) << "split " << split;
    EXPECT_EQ(req.body, reference->body) << "split " << split;
    EXPECT_EQ(parser.buffered_bytes(), 0u) << "split " << split;
  }
}

TEST(RequestParserTest, OneByteAtATime) {
  RequestParser parser;
  for (size_t i = 0; i < kPostVisit.size(); ++i) {
    parser.Append(kPostVisit.substr(i, 1));
    const auto state = parser.Parse();
    if (i + 1 < kPostVisit.size()) {
      ASSERT_EQ(state, RequestParser::State::kNeedMore) << "byte " << i;
    } else {
      ASSERT_EQ(state, RequestParser::State::kReady);
    }
  }
  EXPECT_EQ(parser.request().body, "{\"video_id\":\"vid-1\"}");
}

TEST(RequestParserTest, TwoPipelinedRequestsInOneRead) {
  RequestParser parser;
  parser.Append(
      "GET /healthz HTTP/1.1\r\n\r\n"
      "POST /refine HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
  ASSERT_EQ(parser.Parse(), RequestParser::State::kReady);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().path, "/healthz");
  EXPECT_GT(parser.buffered_bytes(), 0u);  // second request still queued
  ASSERT_EQ(parser.Parse(), RequestParser::State::kReady);
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().path, "/refine");
  EXPECT_EQ(parser.request().body, "{}");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_EQ(parser.Parse(), RequestParser::State::kNeedMore);
}

TEST(RequestParserTest, MissingContentLengthMeansEmptyBody) {
  EXPECT_EQ(MustParse("GET /metrics HTTP/1.1\r\n\r\n")->body, "");
}

TEST(RequestParserTest, ConnectionClosedMidBodyStaysNeedMore) {
  RequestParser parser;
  parser.Append(
      "POST /visit HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial body");
  // There is no more data coming; the parser simply never reaches kReady.
  EXPECT_EQ(parser.Parse(), RequestParser::State::kNeedMore);
  EXPECT_EQ(parser.Parse(), RequestParser::State::kNeedMore);
  EXPECT_GT(parser.buffered_bytes(), 0u);
}

TEST(RequestParserTest, HeaderBlockOverCapIs431) {
  RequestParser parser(RequestParser::Limits{.max_header_bytes = 64,
                                             .max_body_bytes = 1024});
  parser.Append("GET / HTTP/1.1\r\nX-Big: " + std::string(100, 'a') +
                "\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParserTest, HeaderOverCapDetectedBeforeTerminator) {
  // The cap must fire even when the terminating blank line never arrives,
  // or a slow-loris peer could grow the buffer forever.
  RequestParser parser(RequestParser::Limits{.max_header_bytes = 64,
                                             .max_body_bytes = 1024});
  parser.Append("GET / HTTP/1.1\r\nX-Drip: " + std::string(200, 'b'));
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParserTest, ContentLengthOverCapIs413) {
  RequestParser parser(RequestParser::Limits{.max_header_bytes = 8192,
                                             .max_body_bytes = 16});
  parser.Append("POST /visit HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(RequestParserTest, MalformedContentLengthIs400) {
  for (const char* bad : {"abc", "-1", "1x", "", " 5 5"}) {
    RequestParser parser;
    parser.Append(std::string("POST / HTTP/1.1\r\nContent-Length: ") + bad +
                  "\r\n\r\n");
    EXPECT_EQ(parser.Parse(), RequestParser::State::kError) << bad;
    EXPECT_EQ(parser.error_status(), 400) << bad;
  }
}

TEST(RequestParserTest, OverlongContentLengthIs413) {
  RequestParser parser;
  parser.Append(
      "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(RequestParserTest, ConflictingContentLengthsIs400) {
  RequestParser parser;
  parser.Append(
      "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(RequestParserTest, TransferEncodingIs501) {
  RequestParser parser;
  parser.Append("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(RequestParserTest, MalformedRequestLineIs400) {
  for (const char* bad :
       {"GET\r\n\r\n", "GET /\r\n\r\n", "GET / HTTP/1.1 extra\r\n\r\n",
        "get / HTTP/1.1\r\n\r\n", "/ GET HTTP/1.1\r\n\r\n"}) {
    RequestParser parser;
    parser.Append(bad);
    EXPECT_EQ(parser.Parse(), RequestParser::State::kError) << bad;
    EXPECT_EQ(parser.error_status(), 400) << bad;
  }
}

TEST(RequestParserTest, UnsupportedVersionIs505) {
  RequestParser parser;
  parser.Append("GET / HTTP/2.0\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(RequestParserTest, ObsoleteLineFoldingIs400) {
  RequestParser parser;
  parser.Append("GET / HTTP/1.1\r\nX-A: one\r\n two\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(RequestParserTest, SpaceBeforeColonIs400) {
  RequestParser parser;
  parser.Append("GET / HTTP/1.1\r\nX-A : v\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(RequestParserTest, ErrorStateIsTerminal) {
  RequestParser parser;
  parser.Append("BOGUS\r\n\r\n");
  ASSERT_EQ(parser.Parse(), RequestParser::State::kError);
  // A valid request appended afterwards must not resurrect the parser.
  parser.Append("GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(parser.Parse(), RequestParser::State::kError);
}

TEST(RequestParserTest, QueryParsing) {
  const MustParse req("GET /metrics?format=json&video_id=v-1 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(req->path, "/metrics");
  EXPECT_EQ(req->query, "format=json&video_id=v-1");
  EXPECT_EQ(req->QueryParam("format"), "json");
  EXPECT_EQ(req->QueryParam("video_id"), "v-1");
  EXPECT_EQ(req->QueryParam("missing"), "");
}

TEST(RequestParserTest, KeepAliveSemantics) {
  EXPECT_TRUE(MustParse("GET / HTTP/1.1\r\n\r\n")->keep_alive());
  EXPECT_FALSE(
      MustParse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")->keep_alive());
  EXPECT_FALSE(
      MustParse("GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n")->keep_alive());
  EXPECT_FALSE(MustParse("GET / HTTP/1.0\r\n\r\n")->keep_alive());
  EXPECT_TRUE(
      MustParse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
          ->keep_alive());
}

TEST(HttpResponseTest, SerializeAppendsFramingHeaders) {
  HttpResponse resp = JsonResponse(200, "{\"ok\":true}");
  const std::string wire = resp.Serialize(/*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("content-length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 11), "{\"ok\":true}");

  const std::string closed = resp.Serialize(/*keep_alive=*/false);
  EXPECT_NE(closed.find("connection: close\r\n"), std::string::npos);
}

TEST(HttpResponseTest, ErrorResponseCarriesJsonBody) {
  const HttpResponse resp = ErrorResponse(404, "unknown video");
  EXPECT_EQ(resp.status, 404);
  EXPECT_EQ(resp.body, "{\"error\":\"unknown video\"}");
}

TEST(ResponseParserTest, ParsesAcrossSplitsAndReportsClose) {
  const std::string wire =
      "HTTP/1.1 503 Service Unavailable\r\n"
      "retry-after: 1\r\n"
      "content-length: 5\r\n"
      "connection: close\r\n"
      "\r\n"
      "busy!";
  for (size_t split = 0; split <= wire.size(); ++split) {
    ResponseParser parser;
    parser.Append(wire.substr(0, split));
    auto state = parser.Parse();
    if (split < wire.size()) {
      ASSERT_EQ(state, ResponseParser::State::kNeedMore) << split;
      parser.Append(wire.substr(split));
      state = parser.Parse();
    }
    ASSERT_EQ(state, ResponseParser::State::kReady) << split;
    EXPECT_EQ(parser.response().status, 503);
    EXPECT_EQ(parser.response().body, "busy!");
    ASSERT_NE(parser.response().FindHeader("Retry-After"), nullptr);
    EXPECT_EQ(*parser.response().FindHeader("retry-after"), "1");
  }
}

TEST(ResponseParserTest, LengthlessBodyCompletesOnEof) {
  ResponseParser parser;
  parser.Append("HTTP/1.0 200 OK\r\n\r\npartial strea");
  EXPECT_EQ(parser.Parse(), ResponseParser::State::kNeedMore);
  parser.Append("m");
  EXPECT_EQ(parser.Parse(), ResponseParser::State::kNeedMore);
  EXPECT_EQ(parser.OnEof(), ResponseParser::State::kReady);
  EXPECT_EQ(parser.response().body, "partial stream");
}

TEST(ResponseParserTest, EofMidSizedBodyIsError) {
  ResponseParser parser;
  parser.Append("HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhalf");
  EXPECT_EQ(parser.Parse(), ResponseParser::State::kNeedMore);
  EXPECT_EQ(parser.OnEof(), ResponseParser::State::kError);
}

// ---------------------------------------------------------------------------
// Chunked multi-message ingest frames: the batch wire format is a
// top-level JSON array, so these exercise the parser and the /ingest
// route with `[`-sniffed bodies.

/// A realistic two-channel batch frame body (nested brackets, escaped
/// quotes) — content the parser must treat as opaque bytes.
constexpr std::string_view kBatchBody =
    "[{\"video_id\":\"chan-a\",\"messages\":["
    "{\"timestamp\":1.5,\"user\":\"u1\",\"text\":\"gg wp\"},"
    "{\"timestamp\":2.0,\"user\":\"u2\",\"text\":\"[clip] \\\"nice\\\"\"}]},"
    "{\"video_id\":\"chan-b\",\"messages\":["
    "{\"timestamp\":3.25,\"user\":\"u3\",\"text\":\"pog\"}]}]";

std::string IngestWire(std::string_view body) {
  std::string wire =
      "POST /ingest HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n";
  wire.append(body);
  return wire;
}

TEST(RequestParserTest, SplitAtEveryByteBatchIngestFrame) {
  const std::string wire = IngestWire(kBatchBody);
  const MustParse reference(wire);
  for (size_t split = 0; split <= wire.size(); ++split) {
    RequestParser parser;
    parser.Append(std::string_view(wire).substr(0, split));
    const auto first = parser.Parse();
    if (split < wire.size()) {
      ASSERT_EQ(first, RequestParser::State::kNeedMore) << "split " << split;
      parser.Append(std::string_view(wire).substr(split));
      ASSERT_EQ(parser.Parse(), RequestParser::State::kReady)
          << "split " << split;
    } else {
      ASSERT_EQ(first, RequestParser::State::kReady) << "split " << split;
    }
    const HttpRequest& req = parser.request();
    EXPECT_EQ(req.method, reference->method) << "split " << split;
    EXPECT_EQ(req.target, reference->target) << "split " << split;
    EXPECT_EQ(req.headers, reference->headers) << "split " << split;
    EXPECT_EQ(req.body, reference->body) << "split " << split;
    EXPECT_EQ(parser.buffered_bytes(), 0u) << "split " << split;
  }
}

TEST(RequestParserTest, PipelinedSingleThenBatchIngestFrames) {
  const std::string single_body =
      "{\"video_id\":\"chan-a\",\"messages\":["
      "{\"timestamp\":1.0,\"user\":\"u\",\"text\":\"hi\"}]}";
  const std::string wire = IngestWire(single_body) + IngestWire(kBatchBody);
  RequestParser parser;
  parser.Append(wire);
  ASSERT_EQ(parser.Parse(), RequestParser::State::kReady);
  EXPECT_EQ(parser.request().path, "/ingest");
  EXPECT_EQ(parser.request().body, single_body);
  EXPECT_GT(parser.buffered_bytes(), 0u);  // batch frame still queued
  ASSERT_EQ(parser.Parse(), RequestParser::State::kReady);
  EXPECT_EQ(parser.request().path, "/ingest");
  EXPECT_EQ(parser.request().body, kBatchBody);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_EQ(parser.Parse(), RequestParser::State::kNeedMore);
}

// ---------------------------------------------------------------------------
// Route-level batch/throttle behaviour over a real server.

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

serving::IngestChatRequest MakeIngestBatch(const std::string& video_id,
                                           size_t count, double start_ts) {
  serving::IngestChatRequest req;
  req.video_id = video_id;
  for (size_t i = 0; i < count; ++i) {
    core::Message m;
    m.timestamp = start_ts + static_cast<double>(i);
    m.user = "user-" + std::to_string(i);
    m.text = "message " + std::to_string(i);
    req.messages.push_back(std::move(m));
  }
  return req;
}

TEST(IngestRouteTest, OversizedBatchAnswers413) {
  const std::string dir = FreshDir("lightor_http_batch_caps");
  auto stack = testutil::MakeServingStack(dir + "/db");
  RouteOptions ropts;
  ropts.max_batch_channels = 2;
  ropts.max_batch_messages = 4;
  auto server =
      HttpServer::Create(NetOptions{}, BuildRoutes(stack.server.get(), ropts));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  HttpClient client("127.0.0.1", server.value()->port());

  // Three channels exceed the channel cap.
  auto wide = client.Post(
      "/ingest", EncodeIngestBatchRequest({MakeIngestBatch("cap-a", 1, 1.0),
                                           MakeIngestBatch("cap-b", 1, 1.0),
                                           MakeIngestBatch("cap-c", 1, 1.0)}));
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(wide.value().status, 413);

  // Five messages in one frame exceed the message cap.
  auto deep =
      client.Post("/ingest",
                  EncodeIngestBatchRequest({MakeIngestBatch("cap-a", 5, 1.0)}));
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  EXPECT_EQ(deep.value().status, 413);

  // A refused frame leaves no trace: the in-cap retry lands whole.
  auto good = client.Post(
      "/ingest", EncodeIngestBatchRequest({MakeIngestBatch("cap-a", 2, 1.0),
                                           MakeIngestBatch("cap-b", 2, 1.0)}));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good.value().status, 200);
  auto entries = DecodeIngestBatchResponse(good.value().body);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries.value().size(), 2u);
  for (const auto& entry : entries.value()) {
    EXPECT_EQ(entry.status, 200) << entry.video_id;
    EXPECT_EQ(entry.response.accepted, 2u) << entry.video_id;
  }
  server.value()->Shutdown();
}

TEST(IngestRouteTest, ThrottledSingleFrameCarries429AndRetryAfter) {
  const std::string dir = FreshDir("lightor_http_throttle");
  auto stack =
      testutil::MakeServingStack(dir + "/db", [](serving::ServerOptions& o) {
        o.ingest_rate_messages_per_sec = 10.0;
        o.ingest_burst_messages = 20.0;
        o.ingest_clock = [] { return 0.0; };  // bucket never refills
      });
  auto server =
      HttpServer::Create(NetOptions{}, BuildRoutes(stack.server.get()));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  HttpClient client("127.0.0.1", server.value()->port());

  // The burst admits the first 20 messages...
  auto first = client.Post(
      "/ingest", EncodeJson(MakeIngestBatch("hot", 20, 1.0)));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first.value().status, 200) << first.value().body;
  auto accepted = DecodeIngestChatResponse(first.value().body);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted.value().accepted, 20u);
  EXPECT_FALSE(accepted.value().throttled);

  // ...then the bucket is dry: 5 more need 0.5s of refill, rounded up
  // to a whole-second Retry-After (never under-estimated).
  auto throttled = client.Post(
      "/ingest", EncodeJson(MakeIngestBatch("hot", 5, 100.0)));
  ASSERT_TRUE(throttled.ok()) << throttled.status().ToString();
  ASSERT_EQ(throttled.value().status, 429) << throttled.value().body;
  const std::string* retry_after =
      throttled.value().FindHeader("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");
  EXPECT_DOUBLE_EQ(HttpClient::RetryAfterSeconds(throttled.value(), 9.0), 1.0);
  auto body = DecodeIngestChatResponse(throttled.value().body);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_TRUE(body.value().throttled);
  EXPECT_EQ(body.value().accepted, 0u);
  EXPECT_EQ(body.value().rejected, 0u);
  EXPECT_NEAR(body.value().retry_after_seconds, 0.5, 1e-9);

  // Budgets are per-channel: a cold neighbour is untouched.
  auto cold = client.Post(
      "/ingest", EncodeJson(MakeIngestBatch("cold", 5, 1.0)));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.value().status, 200) << cold.value().body;

  // The client-side retry taxonomy the router and loadgen rely on.
  EXPECT_TRUE(HttpClient::IsRetryableAfterDelay(429));
  EXPECT_TRUE(HttpClient::IsRetryableAfterDelay(503));
  EXPECT_FALSE(HttpClient::IsRetryableAfterDelay(200));
  EXPECT_FALSE(HttpClient::IsRetryableAfterDelay(400));
  EXPECT_FALSE(HttpClient::IsRetryableAfterDelay(409));
  server.value()->Shutdown();
}

TEST(IngestRouteTest, BatchFrameIsolatesThrottledEntries) {
  const std::string dir = FreshDir("lightor_http_batch_throttle");
  auto stack =
      testutil::MakeServingStack(dir + "/db", [](serving::ServerOptions& o) {
        o.ingest_rate_messages_per_sec = 10.0;
        o.ingest_burst_messages = 20.0;
        o.ingest_clock = [] { return 0.0; };
      });
  auto server =
      HttpServer::Create(NetOptions{}, BuildRoutes(stack.server.get()));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  HttpClient client("127.0.0.1", server.value()->port());

  // Drain the hot channel's burst, then send a mixed frame: the hot
  // entry throttles, the cold entry lands, and the frame stays 200.
  auto drain = client.Post(
      "/ingest", EncodeJson(MakeIngestBatch("mixed-hot", 20, 1.0)));
  ASSERT_TRUE(drain.ok()) << drain.status().ToString();
  ASSERT_EQ(drain.value().status, 200);

  auto mixed = client.Post(
      "/ingest",
      EncodeIngestBatchRequest({MakeIngestBatch("mixed-hot", 5, 100.0),
                                MakeIngestBatch("mixed-cold", 5, 1.0)}));
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed.value().status, 200) << mixed.value().body;
  auto entries = DecodeIngestBatchResponse(mixed.value().body);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries.value().size(), 2u);
  EXPECT_EQ(entries.value()[0].video_id, "mixed-hot");
  EXPECT_EQ(entries.value()[0].status, 429);
  EXPECT_TRUE(entries.value()[0].response.throttled);
  EXPECT_NEAR(entries.value()[0].response.retry_after_seconds, 0.5, 1e-9);
  EXPECT_EQ(entries.value()[1].video_id, "mixed-cold");
  EXPECT_EQ(entries.value()[1].status, 200);
  EXPECT_EQ(entries.value()[1].response.accepted, 5u);

  // The frame-level header advertises the worst throttled entry.
  const std::string* retry_after = mixed.value().FindHeader("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");
  server.value()->Shutdown();
}

TEST(IngestRouteTest, DebugChannelsReportsAccounting) {
  const std::string dir = FreshDir("lightor_http_debug_channels");
  auto stack = testutil::MakeServingStack(dir + "/db");
  auto server =
      HttpServer::Create(NetOptions{}, BuildRoutes(stack.server.get()));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  HttpClient client("127.0.0.1", server.value()->port());

  auto ingest = client.Post(
      "/ingest", EncodeJson(MakeIngestBatch("chan-dbg", 3, 1.0)));
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  ASSERT_EQ(ingest.value().status, 200);

  auto debug = client.Get("/debug/channels");
  ASSERT_TRUE(debug.ok()) << debug.status().ToString();
  ASSERT_EQ(debug.value().status, 200);
  auto doc = JsonDoc::Parse(debug.value().body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonDoc::Ref channels = doc.value().root().Find("channels");
  ASSERT_TRUE(channels);
  ASSERT_TRUE(channels.is_array());
  JsonDoc::Ref found;
  for (JsonDoc::Ref channel = channels.first_child(); channel;
       channel = channel.next_sibling()) {
    const JsonDoc::Ref id = channel.Find("video_id");
    ASSERT_TRUE(id);
    if (id.AsString() == "chan-dbg") found = channel;
  }
  ASSERT_TRUE(found) << debug.value().body;
  EXPECT_EQ(found.Find("admitted_messages").AsNumber(), 3.0);
  EXPECT_EQ(found.Find("queued_messages").AsNumber(), 0.0);
  EXPECT_EQ(found.Find("rejected_messages").AsNumber(), 0.0);
  EXPECT_FALSE(found.Find("closed").AsBool());
  server.value()->Shutdown();
}

}  // namespace
}  // namespace lightor::net
