#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "cluster/router.h"
#include "common/strings.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/json_arena.h"
#include "net/loadgen.h"
#include "net/service.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "sim/viewer.h"
#include "test_stack.h"
#include "testing/tree_json.h"

namespace lightor::net {
namespace {

using testing::TreeJson;

// ---------------------------------------------------------------------------
// JsonDoc parser strictness, held against the frozen tree parser

struct StrictnessCase {
  const char* input;
  bool ok;
};

/// Every input goes through both JsonDoc::Parse and the frozen
/// TreeJson::Parse: they must agree on ok() and on the exact error.
const StrictnessCase kStrictnessCases[] = {
    // Whole input required; surrounding whitespace is fine.
    {"1 2", false},
    {"{} extra", false},
    {"[1,2]]", false},
    {"", false},
    {"   ", false},
    {"  [1]  ", true},
    {"{\"a\":1,}", false},
    {"[1,]", false},
    {"{\"a\" 1}", false},
    {"{1:2}", false},
    {"[1 2]", false},
    // Numbers.
    {"012", false},
    {"+1", false},
    {"1.", false},
    {".5", false},
    {"-", false},
    {"1e", false},
    {"1e+", false},
    {"NaN", false},
    {"Infinity", false},
    {"1e999", false},  // overflows to inf
    {"0", true},
    {"-0", true},
    {"0.125", true},
    {"2.5E-1", true},
    // Literals.
    {"tru", false},
    {"nul", false},
    {"falsey", false},
    {"[true,false,null]", true},
    // Duplicate keys.
    {"{\"a\":1,\"a\":2}", false},
    {"{\"a\":1,\"b\":{\"a\":2}}", true},
    {"{\"a\\u0062\":1,\"ab\":2}", false},  // equal once decoded
    {"{\"a\":1,\"b\":2}", true},
    // Strings.
    {"\"a\\nb\"", true},
    {"\"\\uD83D\\uDE00\"", true},
    {"\"\\uD83D\"", false},  // lone high surrogate
    {"\"\\uD83D\\u0041\"", false},  // bad low surrogate
    {"\"\\uDE00\"", false},  // lone low surrogate
    {"\"\\u00G1\"", false},
    {"\"\\u00\"", false},
    {"\"\\x41\"", false},  // unknown escape
    {"\"unterminated", false},
    {"\"esc\\", false},
    {"\"raw\x01control\"", false},
};

TEST(JsonParseTest, StrictnessMatchesTreeParser) {
  for (const StrictnessCase& c : kStrictnessCases) {
    const auto doc = JsonDoc::Parse(c.input);
    const auto tree = TreeJson::Parse(c.input);
    EXPECT_EQ(doc.ok(), c.ok) << c.input;
    ASSERT_EQ(doc.ok(), tree.ok()) << c.input;
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().ToString(), tree.status().ToString()) << c.input;
    }
  }
}

TEST(JsonParseTest, DepthCapped) {
  std::string deep_ok, deep_bad;
  for (int i = 0; i < 30; ++i) deep_ok += '[';
  deep_ok += "1";
  for (int i = 0; i < 30; ++i) deep_ok += ']';
  for (int i = 0; i < 80; ++i) deep_bad += '[';
  deep_bad += "1";
  for (int i = 0; i < 80; ++i) deep_bad += ']';
  EXPECT_TRUE(JsonDoc::Parse(deep_ok).ok());
  const auto doc = JsonDoc::Parse(deep_bad);
  const auto tree = TreeJson::Parse(deep_bad);
  ASSERT_FALSE(doc.ok());
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(doc.status().ToString(), tree.status().ToString());
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonDoc::Parse("null").value().root().is_null());
  EXPECT_TRUE(JsonDoc::Parse("true").value().root().AsBool());
  EXPECT_FALSE(JsonDoc::Parse("false").value().root().AsBool());
  EXPECT_DOUBLE_EQ(JsonDoc::Parse("123").value().root().AsNumber(), 123.0);
  EXPECT_DOUBLE_EQ(JsonDoc::Parse("-0.5").value().root().AsNumber(), -0.5);
  EXPECT_DOUBLE_EQ(JsonDoc::Parse("1e3").value().root().AsNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(JsonDoc::Parse("2.5E-1").value().root().AsNumber(), 0.25);
}

TEST(JsonParseTest, StringEscapes) {
  const std::pair<const char*, std::string> cases[] = {
      {"\"hi\"", "hi"},
      {"\"a\\nb\"", "a\nb"},
      {"\"\\\"\\\\\\/\"", "\"\\/"},
      {"\"\\u0041\"", "A"},
      // Surrogate pair: U+1F600 -> 4-byte UTF-8.
      {"\"\\uD83D\\uDE00\"", "\xF0\x9F\x98\x80"},
  };
  for (const auto& [input, want] : cases) {
    const auto doc = JsonDoc::Parse(input);
    ASSERT_TRUE(doc.ok()) << input;
    EXPECT_EQ(doc.value().root().AsString(), want);
    EXPECT_EQ(TreeJson::Parse(input).value().AsString(), want);
  }
}

TEST(JsonParseTest, FindOnObjects) {
  const std::string text = "{\"a\":1,\"b\":\"two\"}";
  auto parsed = JsonDoc::Parse(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().root().Find("b"));
  EXPECT_EQ(parsed.value().root().Find("b").AsString(), "two");
  EXPECT_FALSE(parsed.value().root().Find("missing"));
  EXPECT_FALSE(parsed.value().root().Find("a").Find("a"));  // non-object
}

TEST(JsonParseTest, LargeFlatObjectDuplicateCheckIsLinear) {
  // A 1 MiB object of ~100k distinct keys (the default max_body_bytes):
  // a pairwise duplicate-key scan pins a worker for tens of seconds.
  std::string body = "{";
  for (int i = 0; body.size() < (1 << 20) - 32; ++i) {
    body += "\"k" + std::to_string(i) + "\":0,";
  }
  std::string unique = body;
  unique.back() = '}';
  body += "\"k0\":1}";

  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  auto parsed = DecodePageVisitRequest(unique);
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(), 5.0);
  ASSERT_FALSE(parsed.ok());  // parses, then lacks "video_id"
  EXPECT_EQ(parsed.status().ToString(),
            "InvalidArgument: codec: field \"video_id\" is missing");
  ASSERT_TRUE(JsonDoc::Parse(unique).ok());

  start = Clock::now();
  auto duplicate = DecodePageVisitRequest(body);
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(), 5.0);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().ToString(),
            "InvalidArgument: json: duplicate object key \"k0\" at byte " +
                std::to_string(body.size() - 3));
}

// ---------------------------------------------------------------------------
// Writers

TEST(JsonWriterTest, NumbersKeepIntegersExact) {
  std::string out;
  for (const double v : {5.0, -3.0, 0.5, 1.0 / 3.0, 12884901897.0, 1e21}) {
    out += ' ';
    common::AppendJsonNumber(v, out);
  }
  EXPECT_EQ(out, " 5 -3 0.5 0.33333333333333331 12884901897 1e+21");
}

TEST(JsonWriterTest, AppendJsonStringEscapesControls) {
  std::string out;
  common::AppendJsonString(std::string("a\"b\\c\n\t\x01z", 9), out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
}

TEST(JsonWriterTest, TelemetryStringsRoundTripThroughJsonDoc) {
  // Span names and routes are written by the one shared escaper: a quote
  // and a control byte must come back byte-for-byte, not as spaces.
  const std::string odd = std::string("a\"b\x01c", 5);
  obs::TraceEvent span;
  span.name = odd;
  span.category = "cat\n";
  const std::string trace = obs::ChromeTraceJson({span});
  auto trace_doc = JsonDoc::Parse(trace);
  ASSERT_TRUE(trace_doc.ok()) << trace_doc.status().ToString() << trace;
  const JsonDoc::Ref event = trace_doc.value().root().first_child();
  EXPECT_EQ(event.Find("name").AsString(), odd);
  EXPECT_EQ(event.Find("cat").AsString(), "cat\n");

  obs::WideEvent wide;
  wide.route = odd;
  wide.method = "POST";
  const std::string line = obs::EncodeWideEventJson(wide);
  auto wide_doc = JsonDoc::Parse(line);
  ASSERT_TRUE(wide_doc.ok()) << wide_doc.status().ToString() << line;
  EXPECT_EQ(wide_doc.value().root().Find("route").AsString(), odd);
}

// ---------------------------------------------------------------------------
// Wire codec round trips

storage::HighlightRecord MakeRecord(int index) {
  storage::HighlightRecord rec;
  rec.video_id = "vid-1";
  rec.dot_index = index;
  rec.dot_position = 10.5 * (index + 1);
  rec.start = rec.dot_position - 5.0;
  rec.end = rec.dot_position + 5.0;
  rec.score = 0.25 * (index + 1);
  rec.iteration = index;
  rec.converged = index % 2 == 0;
  return rec;
}

TEST(CodecTest, PageVisitRoundTrip) {
  serving::PageVisitRequest req;
  req.video_id = "vid-1";
  req.user = "alice";
  auto req_back = DecodePageVisitRequest(EncodeJson(req));
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back.value().video_id, "vid-1");
  EXPECT_EQ(req_back.value().user, "alice");

  serving::PageVisitResponse resp;
  resp.highlights = {MakeRecord(0), MakeRecord(1)};
  resp.first_visit = true;
  resp.snapshot_version = 7;
  resp.provisional = false;
  auto resp_back = DecodePageVisitResponse(EncodeJson(resp));
  ASSERT_TRUE(resp_back.ok());
  EXPECT_EQ(resp_back.value().highlights, resp.highlights);
  EXPECT_TRUE(resp_back.value().first_visit);
  EXPECT_EQ(resp_back.value().snapshot_version, 7u);
}

TEST(CodecTest, LogSessionRoundTripAllEventTypes) {
  serving::LogSessionRequest req;
  req.video_id = "vid-2";
  req.user = "bob";
  req.session_id = (uint64_t{3} << 32) | 9;
  const sim::InteractionType types[] = {
      sim::InteractionType::kPlay, sim::InteractionType::kPause,
      sim::InteractionType::kSeekForward, sim::InteractionType::kSeekBackward};
  double t = 0.0;
  for (const auto type : types) {
    sim::InteractionEvent event;
    event.wall_time = (t += 1.5);
    event.type = type;
    event.position = t * 10;
    event.target = t * 20;
    req.events.push_back(event);
  }
  auto back = DecodeLogSessionRequest(EncodeJson(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().video_id, "vid-2");
  EXPECT_EQ(back.value().session_id, req.session_id);
  ASSERT_EQ(back.value().events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.value().events[i].type, req.events[i].type) << i;
    EXPECT_DOUBLE_EQ(back.value().events[i].wall_time,
                     req.events[i].wall_time);
    EXPECT_DOUBLE_EQ(back.value().events[i].position, req.events[i].position);
    EXPECT_DOUBLE_EQ(back.value().events[i].target, req.events[i].target);
  }
}

TEST(CodecTest, IngestAndFinalizeRoundTrip) {
  serving::IngestChatRequest req;
  req.video_id = "live-1";
  core::Message m;
  m.timestamp = 12.25;
  m.user = "chatter";
  m.text = "gg \"wp\"";
  req.messages.push_back(m);
  auto req_back = DecodeIngestChatRequest(EncodeJson(req));
  ASSERT_TRUE(req_back.ok());
  ASSERT_EQ(req_back.value().messages.size(), 1u);
  EXPECT_EQ(req_back.value().messages[0].text, "gg \"wp\"");
  EXPECT_DOUBLE_EQ(req_back.value().messages[0].timestamp, 12.25);

  serving::IngestChatResponse resp;
  resp.accepted = 31;
  resp.rejected = 1;
  resp.provisional_published = true;
  resp.snapshot_version = 2;
  auto resp_back = DecodeIngestChatResponse(EncodeJson(resp));
  ASSERT_TRUE(resp_back.ok());
  EXPECT_EQ(resp_back.value().accepted, 31u);
  EXPECT_EQ(resp_back.value().rejected, 1u);
  EXPECT_TRUE(resp_back.value().provisional_published);

  serving::FinalizeStreamRequest freq;
  freq.video_id = "live-1";
  freq.video_length = 600.0;
  auto freq_back = DecodeFinalizeStreamRequest(EncodeJson(freq));
  ASSERT_TRUE(freq_back.ok());
  EXPECT_DOUBLE_EQ(freq_back.value().video_length, 600.0);

  serving::FinalizeStreamResponse fresp;
  fresp.highlights = {MakeRecord(2)};
  fresp.snapshot_version = 4;
  fresp.video_length = 601.5;
  auto fresp_back = DecodeFinalizeStreamResponse(EncodeJson(fresp));
  ASSERT_TRUE(fresp_back.ok());
  EXPECT_EQ(fresp_back.value().highlights, fresp.highlights);
  EXPECT_DOUBLE_EQ(fresp_back.value().video_length, 601.5);
}

TEST(CodecTest, GetHighlightsRoundTrip) {
  serving::GetHighlightsResponse resp;
  resp.highlights = {MakeRecord(0)};
  resp.snapshot_version = 9;
  resp.provisional = true;
  auto back = DecodeGetHighlightsResponse(EncodeJson(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().highlights, resp.highlights);
  EXPECT_TRUE(back.value().provisional);
}

TEST(CodecTest, StrictDecodeErrors) {
  // Malformed JSON, missing required field, wrong type: all errors.
  EXPECT_FALSE(DecodePageVisitRequest("not json").ok());
  EXPECT_FALSE(DecodePageVisitRequest("{}").ok());
  EXPECT_FALSE(DecodePageVisitRequest("{\"video_id\":7}").ok());
  EXPECT_FALSE(DecodeLogSessionRequest(
                   "{\"video_id\":\"v\",\"user\":\"u\",\"session_id\":1,"
                   "\"events\":[{\"wall_time\":0,\"type\":\"warp\","
                   "\"position\":0,\"target\":0}]}")
                   .ok());  // unknown event type
  // Unknown top-level fields are tolerated.
  EXPECT_TRUE(DecodePageVisitRequest(
                  "{\"video_id\":\"v\",\"future_field\":true}")
                  .ok());
}

TEST(CodecTest, ThrottleFieldsRoundTripAndTolerateOldServers) {
  serving::IngestChatResponse resp;
  resp.throttled = true;
  resp.retry_after_seconds = 2.5;
  auto back = DecodeIngestChatResponse(EncodeJson(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().throttled);
  EXPECT_DOUBLE_EQ(back.value().retry_after_seconds, 2.5);

  // A pre-admission server's body has no throttle fields; the decoder
  // must default them, not reject the frame.
  auto old = DecodeIngestChatResponse(
      "{\"accepted\":3,\"rejected\":0,\"provisional_published\":false,"
      "\"snapshot_version\":0}");
  ASSERT_TRUE(old.ok());
  EXPECT_FALSE(old.value().throttled);
  EXPECT_DOUBLE_EQ(old.value().retry_after_seconds, 0.0);
}

std::vector<serving::IngestChatRequest> MakeBatchFrame() {
  std::vector<serving::IngestChatRequest> batches;
  for (int c = 0; c < 3; ++c) {
    serving::IngestChatRequest req;
    req.video_id = "chan-" + std::to_string(c);
    for (int m = 0; m < 2 + c; ++m) {
      core::Message msg;
      msg.timestamp = c * 100.0 + m * 0.5;
      msg.user = "u" + std::to_string(m);
      msg.text = "line \"" + std::to_string(m) + "\" é";
      req.messages.push_back(std::move(msg));
    }
    batches.push_back(std::move(req));
  }
  return batches;
}

TEST(CodecTest, BatchIngestFrameRoundTrip) {
  const auto batches = MakeBatchFrame();
  auto back = DecodeIngestBatchRequest(EncodeIngestBatchRequest(batches));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), batches.size());
  for (size_t c = 0; c < batches.size(); ++c) {
    EXPECT_EQ(back.value()[c].video_id, batches[c].video_id);
    ASSERT_EQ(back.value()[c].messages.size(), batches[c].messages.size());
    for (size_t m = 0; m < batches[c].messages.size(); ++m) {
      EXPECT_DOUBLE_EQ(back.value()[c].messages[m].timestamp,
                       batches[c].messages[m].timestamp);
      EXPECT_EQ(back.value()[c].messages[m].user, batches[c].messages[m].user);
      EXPECT_EQ(back.value()[c].messages[m].text, batches[c].messages[m].text);
    }
  }

  std::vector<IngestBatchEntry> entries;
  IngestBatchEntry ok_entry;
  ok_entry.video_id = "chan-0";
  ok_entry.status = 200;
  ok_entry.response.accepted = 2;
  ok_entry.response.snapshot_version = 5;
  entries.push_back(ok_entry);
  IngestBatchEntry throttled;
  throttled.video_id = "chan-1";
  throttled.status = 429;
  throttled.response.throttled = true;
  throttled.response.retry_after_seconds = 1.25;
  entries.push_back(throttled);
  IngestBatchEntry conflict;
  conflict.video_id = "chan-2";
  conflict.status = 409;
  conflict.error = "recorded video";
  entries.push_back(conflict);

  auto entries_back = DecodeIngestBatchResponse(
      EncodeIngestBatchResponse(entries));
  ASSERT_TRUE(entries_back.ok()) << entries_back.status().ToString();
  ASSERT_EQ(entries_back.value().size(), 3u);
  EXPECT_EQ(entries_back.value()[0].status, 200);
  EXPECT_EQ(entries_back.value()[0].response.accepted, 2u);
  EXPECT_EQ(entries_back.value()[0].response.snapshot_version, 5u);
  EXPECT_EQ(entries_back.value()[1].status, 429);
  EXPECT_TRUE(entries_back.value()[1].response.throttled);
  EXPECT_DOUBLE_EQ(entries_back.value()[1].response.retry_after_seconds,
                   1.25);
  EXPECT_EQ(entries_back.value()[2].status, 409);
  EXPECT_EQ(entries_back.value()[2].error, "recorded video");
}

TEST(CodecTest, BatchDecodeMatchesJsonParseReference) {
  // The batch decoder runs over the arena JsonDoc parser; walk the same
  // wire bytes with the independent frozen tree parser and require
  // field-for-field agreement.
  const std::string wire = EncodeIngestBatchRequest(MakeBatchFrame());
  auto arena = DecodeIngestBatchRequest(wire);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  auto tree = TreeJson::Parse(wire);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE(tree.value().is_array());
  const auto& ref_batches = tree.value().AsArray();
  ASSERT_EQ(arena.value().size(), ref_batches.size());
  for (size_t c = 0; c < ref_batches.size(); ++c) {
    const TreeJson* video_id = ref_batches[c].Find("video_id");
    ASSERT_NE(video_id, nullptr);
    EXPECT_EQ(arena.value()[c].video_id, video_id->AsString());
    const TreeJson* messages = ref_batches[c].Find("messages");
    ASSERT_NE(messages, nullptr);
    ASSERT_TRUE(messages->is_array());
    ASSERT_EQ(arena.value()[c].messages.size(), messages->AsArray().size());
    for (size_t m = 0; m < messages->AsArray().size(); ++m) {
      const TreeJson& ref = messages->AsArray()[m];
      EXPECT_DOUBLE_EQ(arena.value()[c].messages[m].timestamp,
                       ref.Find("timestamp")->AsNumber());
      EXPECT_EQ(arena.value()[c].messages[m].user,
                ref.Find("user")->AsString());
      EXPECT_EQ(arena.value()[c].messages[m].text,
                ref.Find("text")->AsString());
    }
  }
}

TEST(CodecTest, BatchStrictDecodeErrors) {
  // A batch frame must be a top-level array of single-frame objects.
  EXPECT_FALSE(DecodeIngestBatchRequest("{}").ok());
  EXPECT_FALSE(DecodeIngestBatchRequest("{\"video_id\":\"v\"}").ok());
  EXPECT_FALSE(DecodeIngestBatchRequest("[1]").ok());
  EXPECT_FALSE(DecodeIngestBatchRequest("[{\"messages\":[]}]").ok());
  EXPECT_FALSE(
      DecodeIngestBatchRequest("[{\"video_id\":\"v\",\"messages\":3}]").ok());
  EXPECT_FALSE(DecodeIngestBatchRequest("[").ok());
  // The empty frame is well-formed (zero channels).
  auto empty = DecodeIngestBatchRequest("[]");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(CodecTest, EncodingIsCanonical) {
  // The differential check and the cluster's byte-identical answers
  // depend on stable byte-for-byte encodings: pin every writer.
  serving::GetHighlightsResponse resp;
  resp.highlights = {MakeRecord(0)};
  resp.snapshot_version = 1;
  EXPECT_EQ(EncodeJson(resp), EncodeJson(resp));
  EXPECT_EQ(
      EncodeJson(resp),
      "{\"highlights\":[{\"video_id\":\"vid-1\",\"dot_index\":0,"
      "\"dot_position\":10.5,\"start\":5.5,\"end\":15.5,\"score\":0.25,"
      "\"iteration\":0,\"converged\":true}],\"snapshot_version\":1,"
      "\"provisional\":false}");

  serving::PageVisitRequest visit;
  visit.video_id = "vid-1";
  EXPECT_EQ(EncodeJson(visit), "{\"video_id\":\"vid-1\"}");
  visit.user = "al\"ice";
  EXPECT_EQ(EncodeJson(visit),
            "{\"video_id\":\"vid-1\",\"user\":\"al\\\"ice\"}");

  serving::PageVisitResponse visit_resp;
  visit_resp.highlights = {MakeRecord(0), MakeRecord(1)};
  visit_resp.first_visit = true;
  visit_resp.snapshot_version = 7;
  visit_resp.provisional = true;
  EXPECT_EQ(EncodeJson(visit_resp),
            "{\"highlights\":[{\"video_id\":\"vid-1\",\"dot_index\":0,"
            "\"dot_position\":10.5,\"start\":5.5,\"end\":15.5,\"score\":0.25,"
            "\"iteration\":0,\"converged\":true},{\"video_id\":\"vid-1\","
            "\"dot_index\":1,\"dot_position\":21,\"start\":16,\"end\":26,"
            "\"score\":0.5,\"iteration\":1,\"converged\":false}],"
            "\"first_visit\":true,\"snapshot_version\":7,"
            "\"provisional\":true}");

  serving::LogSessionRequest session;
  session.video_id = "vid-2";
  session.user = "bob";
  session.session_id = (uint64_t{3} << 32) | 9;
  const sim::InteractionType types[] = {
      sim::InteractionType::kPlay, sim::InteractionType::kPause,
      sim::InteractionType::kSeekForward, sim::InteractionType::kSeekBackward};
  for (int i = 0; i < 4; ++i) {
    sim::InteractionEvent event;
    event.wall_time = 0.1 * (i + 1);  // non-integral: the %.17g path
    event.type = types[i];
    event.position = -2.5 * i;
    event.target = 1e21 + i;
    session.events.push_back(event);
  }
  EXPECT_EQ(EncodeJson(session),
            "{\"video_id\":\"vid-2\",\"user\":\"bob\","
            "\"session_id\":12884901897,"
            "\"events\":[{\"wall_time\":0.10000000000000001,\"type\":\"play\","
            "\"position\":0,\"target\":1e+21},"
            "{\"wall_time\":0.20000000000000001,\"type\":\"pause\","
            "\"position\":-2.5,\"target\":1e+21},"
            "{\"wall_time\":0.30000000000000004,\"type\":\"seek_forward\","
            "\"position\":-5,\"target\":1e+21},"
            "{\"wall_time\":0.40000000000000002,\"type\":\"seek_backward\","
            "\"position\":-7.5,\"target\":1e+21}]}");

  serving::IngestChatRequest ingest;
  ingest.video_id = "live-1";
  core::Message m;
  m.timestamp = 12.25;
  m.user = "chatter";
  m.text = std::string("gg \"wp\"\\\n\t\x01\b\f\r \xC3\xA9\0", 18);
  ingest.messages.push_back(m);
  m.timestamp = 13;
  m.text = "second";
  ingest.messages.push_back(m);
  EXPECT_EQ(EncodeJson(ingest),
            "{\"video_id\":\"live-1\",\"messages\":[{\"timestamp\":12.25,"
            "\"user\":\"chatter\","
            "\"text\":\"gg \\\"wp\\\"\\\\\\n\\t\\u0001\\b\\f\\r "
            "\xC3\xA9\\u0000\"},{\"timestamp\":13,\"user\":\"chatter\","
            "\"text\":\"second\"}]}");

  serving::IngestChatResponse ingest_resp;
  ingest_resp.accepted = 31;
  ingest_resp.rejected = 1;
  ingest_resp.provisional_published = true;
  ingest_resp.snapshot_version = 2;
  ingest_resp.throttled = true;
  ingest_resp.retry_after_seconds = 0.3;
  EXPECT_EQ(EncodeJson(ingest_resp),
            "{\"accepted\":31,\"rejected\":1,\"provisional_published\":true,"
            "\"snapshot_version\":2,\"throttled\":true,"
            "\"retry_after_seconds\":0.29999999999999999}");

  serving::FinalizeStreamRequest finalize;
  finalize.video_id = "live-1";
  EXPECT_EQ(EncodeJson(finalize), "{\"video_id\":\"live-1\"}");
  finalize.video_length = 600.75;
  EXPECT_EQ(EncodeJson(finalize),
            "{\"video_id\":\"live-1\",\"video_length\":600.75}");

  serving::FinalizeStreamResponse finalize_resp;
  finalize_resp.highlights = {MakeRecord(2)};
  finalize_resp.snapshot_version = 4;
  finalize_resp.video_length = 601;
  EXPECT_EQ(EncodeJson(finalize_resp),
            "{\"highlights\":[{\"video_id\":\"vid-1\",\"dot_index\":2,"
            "\"dot_position\":31.5,\"start\":26.5,\"end\":36.5,\"score\":0.75,"
            "\"iteration\":2,\"converged\":true}],\"snapshot_version\":4,"
            "\"video_length\":601}");

  serving::RefineReport report;
  report.video_id = "vid-3";
  report.dots_updated = 1;
  report.sessions_consumed = 12;
  serving::DotRefineOutcome dot;
  dot.dot_index = 0;
  dot.updated = true;
  dot.type = core::DotType::kTypeI;
  dot.enough_plays = true;
  dot.plays_used = 9;
  dot.old_position = 100;
  dot.new_position = 97.125;
  dot.converged = false;
  report.dots.push_back(dot);
  dot.dot_index = 1;
  dot.updated = false;
  dot.type = core::DotType::kTypeII;
  dot.new_position = 1.0 / 3.0;
  dot.converged = true;
  report.dots.push_back(dot);
  EXPECT_EQ(EncodeJson(report),
            "{\"video_id\":\"vid-3\",\"dots_updated\":1,"
            "\"sessions_consumed\":12,\"dots\":[{\"dot_index\":0,"
            "\"updated\":true,\"type\":\"I\","
            "\"enough_plays\":true,\"plays_used\":9,\"old_position\":100,"
            "\"new_position\":97.125,\"converged\":false},{\"dot_index\":1,"
            "\"updated\":false,"
            "\"type\":\"II\",\"enough_plays\":true,\"plays_used\":9,"
            "\"old_position\":100,\"new_position\":0.33333333333333331,"
            "\"converged\":true}]}");

  std::vector<serving::IngestChatRequest> batch = MakeBatchFrame();
  batch.resize(2);
  EXPECT_EQ(EncodeIngestBatchRequest(batch),
            "[{\"video_id\":\"chan-0\",\"messages\":[{\"timestamp\":0,"
            "\"user\":\"u0\",\"text\":\"line \\\"0\\\" \xC3\xA9\"},"
            "{\"timestamp\":0.5,\"user\":\"u1\","
            "\"text\":\"line \\\"1\\\" \xC3\xA9\"}]},{\"video_id\":\"chan-1\","
            "\"messages\":[{\"timestamp\":100,\"user\":\"u0\","
            "\"text\":\"line \\\"0\\\" \xC3\xA9\"},{\"timestamp\":100.5,"
            "\"user\":\"u1\",\"text\":\"line \\\"1\\\" \xC3\xA9\"},"
            "{\"timestamp\":101,\"user\":\"u2\","
            "\"text\":\"line \\\"2\\\" \xC3\xA9\"}]}]");
  EXPECT_EQ(EncodeIngestBatchRequest({}), "[]");

  std::vector<IngestBatchEntry> entries(3);
  entries[0].video_id = "chan-0";
  entries[0].status = 200;
  entries[0].response.accepted = 2;
  entries[0].response.snapshot_version = 5;
  entries[1].video_id = "chan-1";
  entries[1].status = 429;
  entries[1].response.throttled = true;
  entries[1].response.retry_after_seconds = 1.25;
  entries[2].video_id = "chan-2";
  entries[2].status = 409;
  entries[2].error = "recorded \"video\"";
  EXPECT_EQ(EncodeIngestBatchResponse(entries),
            "{\"entries\":[{\"accepted\":2,\"rejected\":0,"
            "\"provisional_published\":false,\"snapshot_version\":5,"
            "\"throttled\":false,\"retry_after_seconds\":0,"
            "\"video_id\":\"chan-0\",\"status\":200},{\"accepted\":0,"
            "\"rejected\":0,\"provisional_published\":false,"
            "\"snapshot_version\":0,\"throttled\":true,"
            "\"retry_after_seconds\":1.25,\"video_id\":\"chan-1\","
            "\"status\":429},{\"video_id\":\"chan-2\",\"status\":409,"
            "\"error\":\"recorded \\\"video\\\"\"}]}");
}

TEST(CodecTest, LoadGenReportEncodingIsCanonical) {
  LoadGenReport report;
  report.requests = 120;
  report.wire_errors = 1;
  report.status_2xx = 110;
  report.status_4xx = 2;
  report.status_5xx = 7;
  report.rejected_503 = 6;
  report.throttled_429 = 3;
  report.flash_cold_failures = 0;
  report.retries = 4;
  report.visits = 40;
  report.sessions = 60;
  report.refines = 5;
  report.ingests = 10;
  report.finalizes = 5;
  report.seconds = 1.5;
  report.throughput_rps = 80;
  report.p50_ms = 0.1;
  report.p95_ms = 2.75;
  report.p99_ms = 10;
  report.max_ms = 12.5;
  report.provisional_p99_ms = 3.3;
  report.slowest.push_back({12.5, "visit", std::string(32, 'a'), 200});
  report.slowest.push_back({11, "session", std::string(32, 'b'), -1});
  report.op_latency.push_back({"visit", 40, 0.5, 9.25});
  report.op_latency.push_back({"session", 60, 0.1, 10});
  report.slo.push_back({"visit", 50, 9.25, true});
  report.slo.push_back({"session", 5, 10, false});
  report.slo_ok = false;
  EXPECT_EQ(EncodeJson(report),
            "{\"requests\":120,\"wire_errors\":1,\"status_2xx\":110,"
            "\"status_4xx\":2,\"status_5xx\":7,\"rejected_503\":6,"
            "\"throttled_429\":3,\"flash_cold_failures\":0,\"retries\":4,"
            "\"ops\":{\"visit\":40,\"session\":60,\"refine\":5,\"ingest\":10,"
            "\"finalize\":5},\"seconds\":1.5,\"throughput_rps\":80,"
            "\"latency\":{\"p50_ms\":0.10000000000000001,\"p95_ms\":2.75,"
            "\"p99_ms\":10,\"max_ms\":12.5},"
            "\"provisional_p99_ms\":3.2999999999999998,"
            "\"slowest\":[{\"ms\":12.5,\"op\":\"visit\","
            "\"trace_id\":\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\",\"status\":200},"
            "{\"ms\":11,\"op\":\"session\","
            "\"trace_id\":\"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\",\"status\":-1}],"
            "\"op_latency\":{\"visit\":{\"count\":40,\"p50_ms\":0.5,"
            "\"p99_ms\":9.25},\"session\":{\"count\":60,"
            "\"p50_ms\":0.10000000000000001,\"p99_ms\":10}},"
            "\"slo\":{\"ok\":false,\"targets\":[{\"op\":\"visit\","
            "\"target_p99_ms\":50,\"actual_p99_ms\":9.25,\"ok\":true},"
            "{\"op\":\"session\",\"target_p99_ms\":5,\"actual_p99_ms\":10,"
            "\"ok\":false}]}}");
  EXPECT_EQ(EncodeJson(LoadGenReport{}),
            "{\"requests\":0,\"wire_errors\":0,\"status_2xx\":0,"
            "\"status_4xx\":0,\"status_5xx\":0,\"rejected_503\":0,"
            "\"throttled_429\":0,\"flash_cold_failures\":0,\"retries\":0,"
            "\"ops\":{\"visit\":0,\"session\":0,\"refine\":0,\"ingest\":0,"
            "\"finalize\":0},\"seconds\":0,\"throughput_rps\":0,"
            "\"latency\":{\"p50_ms\":0,\"p95_ms\":0,\"p99_ms\":0,\"max_ms\":0},"
            "\"provisional_p99_ms\":0,\"slowest\":[],\"op_latency\":{},"
            "\"slo\":{\"ok\":true,\"targets\":[]}}");
}

TEST(CodecTest, DebugChannelsEncodingIsCanonical) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("lightor_json_debug_channels_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  // A frozen ingest clock keeps the staleness columns deterministic.
  auto stack = testutil::MakeServingStack(
      dir + "/db",
      [](serving::ServerOptions& o) { o.ingest_clock = [] { return 0.0; }; });
  const Router routes = BuildRoutes(stack.server.get());
  int error_status = 0;
  const HttpHandler* handler =
      routes.Find("GET", "/debug/channels", &error_status);
  ASSERT_NE(handler, nullptr);
  EXPECT_EQ((*handler)(HttpRequest{}).body, "{\"channels\":[]}");

  for (const char* channel : {"chan-b", "chan-\"a\""}) {
    serving::IngestChatRequest req;
    req.video_id = channel;
    for (int i = 0; i < 3; ++i) {
      core::Message msg;
      msg.timestamp = 1.0 + i;
      msg.user = "user-" + std::to_string(i);
      msg.text = "message " + std::to_string(i);
      req.messages.push_back(std::move(msg));
    }
    ASSERT_TRUE(stack.server->IngestChat(req).ok());
  }
  ASSERT_TRUE(
      stack.server->FinalizeStream(serving::FinalizeStreamRequest{"chan-b"})
          .ok());
  const HttpResponse response = (*handler)(HttpRequest{});
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body,
            "{\"channels\":[{\"video_id\":\"chan-\\\"a\\\"\","
            "\"queued_messages\":0,\"admitted_messages\":3,"
            "\"throttled_batches\":0,\"rejected_messages\":0,\"publishes\":0,"
            "\"last_staleness_seconds\":0,\"max_staleness_seconds\":0,"
            "\"closed\":false},{\"video_id\":\"chan-b\",\"queued_messages\":0,"
            "\"admitted_messages\":3,\"throttled_batches\":0,"
            "\"rejected_messages\":0,\"publishes\":1,"
            "\"last_staleness_seconds\":0,\"max_staleness_seconds\":0,"
            "\"closed\":true}]}");
  stack.server.reset();
  std::filesystem::remove_all(dir);
}

TEST(CodecTest, RouterEncodingIsCanonical) {
  cluster::RouterOptions options;
  options.backends = {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"};
  options.health_check_interval_seconds = 0;  // health driven by hand
  auto router = cluster::HighlightRouter::Create(std::move(options));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  router.value()->fleet().SetHealth("127.0.0.1:2",
                                    cluster::BackendHealth::kHealthy);
  router.value()->fleet().SetHealth("127.0.0.1:3",
                                    cluster::BackendHealth::kDown);
  HttpClient client("127.0.0.1", router.value()->port());
  auto healthz = client.Get("/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz.value().body,
            "{\"status\":\"ok\",\"role\":\"router\",\"ring_size\":3,"
            "\"backends\":[{\"address\":\"127.0.0.1:1\","
            "\"health\":\"unknown\"},{\"address\":\"127.0.0.1:2\","
            "\"health\":\"healthy\"},{\"address\":\"127.0.0.1:3\","
            "\"health\":\"down\"}]}");
  auto membership = client.Get("/admin/membership");
  ASSERT_TRUE(membership.ok()) << membership.status().ToString();
  EXPECT_EQ(membership.value().body,
            "{\"version\":1,\"backends\":[{\"address\":\"127.0.0.1:1\","
            "\"health\":\"unknown\"},{\"address\":\"127.0.0.1:2\","
            "\"health\":\"healthy\"},{\"address\":\"127.0.0.1:3\","
            "\"health\":\"down\"}]}");
  router.value()->Shutdown();
}

}  // namespace
}  // namespace lightor::net
