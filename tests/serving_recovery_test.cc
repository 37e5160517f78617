#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/codec.h"
#include "net/service.h"
#include "obs/metrics.h"
#include "serving/highlight_server.h"
#include "serving/refine.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"
#include "testing/fault_env.h"

namespace lightor::serving {
namespace {

namespace ft = lightor::testing;

/// Shared fixture: one simulated platform and trained pipeline over a
/// memory-backed FaultEnv, so "the machine dies" is one call and restarts
/// reopen the surviving bytes. Mirrors the serving_server_test setup.
class ServingRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::Platform::Options popts;
    popts.num_channels = 2;
    popts.videos_per_channel = 2;
    popts.seed = 71;
    platform_ = std::make_unique<sim::Platform>(popts);

    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 72);
    core::TrainingVideo tv;
    tv.messages = sim::ToCoreMessages(corpus[0].chat);
    tv.video_length = corpus[0].truth.meta.length;
    for (const auto& h : corpus[0].truth.highlights) {
      tv.highlights.push_back(h.span);
    }
    lightor_ = std::make_unique<core::Lightor>();
    ASSERT_TRUE(lightor_->TrainInitializer({tv}).ok());

    video_id_ = platform_->AllVideoIds()[0];
  }

  std::unique_ptr<storage::Database> OpenDb() {
    storage::OpenOptions options;
    options.directory = "db";
    options.env = &env_;
    auto db = storage::DB::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db.value().db);
  }

  std::unique_ptr<HighlightServer> MakeServer(storage::Database* db,
                                              ServerOptions opts = {}) {
    opts.platform = Borrow<const sim::Platform>(platform_.get());
    opts.db = Borrow(db);
    opts.lightor = Borrow<const core::Lightor>(lightor_.get());
    opts.refine_batch_sessions = 0;  // explicit refinement: deterministic
    auto server = HighlightServer::Create(opts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  /// Logs `per_dot` simulated viewer sessions around every current dot.
  /// Returns the number of sessions whose LogSession was acked.
  uint64_t LogSessions(HighlightServer* server, int per_dot,
                       uint64_t rng_seed) {
    const auto video = platform_->GetVideo(video_id_).value();
    const auto dots = server->GetHighlights(video_id_).value();
    sim::ViewerSimulator viewers;
    common::Rng rng(rng_seed);
    uint64_t acked = 0;
    for (const auto& dot : dots.highlights) {
      for (int u = 0; u < per_dot; ++u) {
        const auto session = viewers.SimulateSession(
            video.truth, dot.dot_position, rng, "w" + std::to_string(u));
        LogSessionRequest req;
        req.video_id = video_id_;
        req.user = session.user;
        req.session_id = ++next_session_id_;
        req.events = session.events;
        if (server->LogSession(req).ok()) ++acked;
      }
    }
    return acked;
  }

  /// The /highlights payload with the snapshot version normalized away
  /// (restarts reset the version counter; the dots must not change).
  static std::string ContentBytes(GetHighlightsResponse response) {
    response.snapshot_version = 0;
    return net::EncodeJson(response);
  }

  ft::FaultEnv env_;
  std::unique_ptr<sim::Platform> platform_;
  std::unique_ptr<core::Lightor> lightor_;
  std::string video_id_;
  uint64_t next_session_id_ = 0;
};

// The cold-restart differential: initialize, refine, SIGKILL, reopen.
// Two independent recovered servers must serve byte-identical /highlights
// payloads, the recovered dots must equal the pre-crash refined dots, and
// refinement must keep working after the restart.
TEST_F(ServingRecoveryTest, ColdRestartServesByteIdenticalHighlights) {
  std::string pre_crash_content;
  {
    auto db = OpenDb();
    auto server = MakeServer(db.get());
    ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
    const uint64_t acked = LogSessions(server.get(), 10, 73);
    ASSERT_GT(acked, 0u);
    auto report = server->Refine(video_id_);
    ASSERT_TRUE(report.ok());
    ASSERT_GT(report.value().dots_updated, 0);
    pre_crash_content = ContentBytes(server->GetHighlights(video_id_).value());

    // SIGKILL: no destructor gets to save anything. The zombie teardown
    // below runs against dead file handles.
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }

  // Restart twice from the same surviving bytes: the responses must match
  // byte for byte (including the snapshot version both reset to 1).
  std::string restarted_bytes;
  std::string restarted_content;
  {
    auto db = OpenDb();
    auto server = MakeServer(db.get());
    auto got = server->GetHighlights(video_id_);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().snapshot_version, 1u);
    restarted_bytes = net::EncodeJson(got.value());
    restarted_content = ContentBytes(got.value());
  }
  {
    auto db = OpenDb();
    auto server = MakeServer(db.get());
    auto got = server->GetHighlights(video_id_);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(net::EncodeJson(got.value()), restarted_bytes);
  }
  EXPECT_EQ(restarted_content, pre_crash_content);

  // The recovered server is not read-only: new sessions refine further.
  auto db = OpenDb();
  auto server = MakeServer(db.get());
  const uint64_t acked = LogSessions(server.get(), 10, 74);
  ASSERT_GT(acked, 0u);
  auto report = server->Refine(video_id_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().sessions_consumed, acked);
  EXPECT_GT(report.value().dots_updated, 0);
  EXPECT_GT(server->GetHighlights(video_id_).value().snapshot_version, 1u);
}

// Sessions logged but never refined before the crash replay from the log
// and feed the first post-restart refinement pass: implicit crowdsourcing
// signals survive the restart.
TEST_F(ServingRecoveryTest, ReplayedSessionsFeedPostRestartRefinement) {
  uint64_t acked = 0;
  {
    auto db = OpenDb();
    auto server = MakeServer(db.get());
    ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
    acked = LogSessions(server.get(), 10, 75);
    ASSERT_GT(acked, 0u);
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);  // SIGKILL, no refine
  }

  auto db = OpenDb();
  // Per-record flush: every acked session must have been replayed.
  uint64_t replayed_sessions =
      db->interactions().SessionsForVideo(video_id_).size();
  EXPECT_EQ(replayed_sessions, acked);

  auto server = MakeServer(db.get());
  auto report = server->Refine(video_id_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().sessions_consumed, acked);
  EXPECT_GT(report.value().dots_updated, 0);
}

// Batched session flushes trade the zero-loss guarantee for throughput: a
// crash mid-burst loses at most the sessions since the last flush (the
// refinement pass flushes), never anything older, and never corrupts the
// database.
TEST_F(ServingRecoveryTest, BatchedFlushCrashMidBurstKeepsFlushedPrefix) {
  uint64_t flushed_sessions = 0;
  {
    auto db = OpenDb();
    ServerOptions opts;
    opts.batched_session_flush = true;
    auto server = MakeServer(db.get(), opts);
    ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());

    flushed_sessions = LogSessions(server.get(), 3, 76);
    ASSERT_TRUE(server->Refine(video_id_).ok());  // flushes the batch

    // Crash partway through the next burst.
    env_.CrashAt(env_.io_points() + 7);
    LogSessions(server.get(), 3, 77);  // some acked, then the crash
    EXPECT_TRUE(env_.crashed());
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }

  auto db = OpenDb();  // recovery must succeed, torn tail or not
  const auto sessions = db->interactions().SessionsForVideo(video_id_);
  // Everything flushed before the crash survived; the unflushed burst is
  // allowed to be (partially) gone.
  EXPECT_GE(sessions.size(), flushed_sessions);

  auto server = MakeServer(db.get());
  EXPECT_TRUE(server->GetHighlights(video_id_).ok());
  EXPECT_TRUE(server->Refine(video_id_).ok());
}

// Graceful degradation end to end: when the interaction log cannot accept
// a write, /session answers 503 + Retry-After (the record was NOT taken,
// the client should retry) and the write-error metric counts it.
TEST_F(ServingRecoveryTest, SessionLoggingFailureMaps503OnTheWire) {
  auto* counter = obs::Registry::Global().GetCounter(
      "lightor_storage_write_errors_total", {{"log", "interactions"}});

  auto db = OpenDb();
  auto server = MakeServer(db.get());
  ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
  net::Router routes = net::BuildRoutes(server.get());
  int error_status = 0;
  const net::HttpHandler* handler =
      routes.Find("POST", "/session", &error_status);
  ASSERT_NE(handler, nullptr);

  const auto video = platform_->GetVideo(video_id_).value();
  const auto dots = server->GetHighlights(video_id_).value();
  sim::ViewerSimulator viewers;
  common::Rng rng(78);
  const auto session = viewers.SimulateSession(
      video.truth, dots.highlights[0].dot_position, rng, "w0");
  LogSessionRequest req;
  req.video_id = video_id_;
  req.user = session.user;
  req.session_id = 1;
  req.events = session.events;

  // The request's fields are views; the encoded body must outlive it.
  const std::string body = net::EncodeJson(req);
  net::HttpRequest wire;
  wire.method = "POST";
  wire.path = "/session";
  wire.body = body;

  // Healthy path first: 200.
  EXPECT_EQ((*handler)(wire).status, 200);

  // A resend of the same session id is deduplicated — acked 200 without
  // touching storage, even with every subsequent write poisoned. This is
  // what makes a router retry after a lost ack exactly-once.
  env_.InjectAt(env_.io_points(), ft::FaultKind::kEnospc);
  wire.body = body;
  EXPECT_EQ((*handler)(wire).status, 200);

  const uint64_t errors_before = counter->value();
  req.session_id = 2;  // a fresh session must reach the poisoned log
  const std::string body2 = net::EncodeJson(req);
  wire.body = body2;
  net::HttpResponse response = (*handler)(wire);
  EXPECT_EQ(response.status, 503);
  const std::string* retry = response.FindHeader("retry-after");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(*retry, "1");
  EXPECT_GT(counter->value(), errors_before);
}

// A storage error while /finalize persists its dots must not destroy the
// stream. The call answers 503 + Retry-After, the video stays live (its
// provisional dots served, ingest refused as finalizing) and the metrics
// do not move; the retry persists exactly the dots the batch Initializer
// computes over the acked chat, and a restart loads exactly those.
TEST_F(ServingRecoveryTest, FinalizeSurvivesHighlightWriteError) {
  auto* finalized = obs::Registry::Global().GetCounter(
      "lightor_stream_finalized_total");
  auto* active = obs::Registry::Global().GetGauge(
      "lightor_stream_active_streams");
  const auto video = platform_->GetVideo(video_id_).value();
  const std::vector<core::Message> chat = sim::ToCoreMessages(video.chat);
  std::vector<storage::HighlightRecord> final_records;
  {
    auto db = OpenDb();
    auto server = MakeServer(db.get());
    IngestChatRequest ingest;
    ingest.video_id = video_id_;
    ingest.messages = chat;
    auto acked = server->IngestChat(ingest);
    ASSERT_TRUE(acked.ok()) << acked.status().ToString();
    ASSERT_EQ(acked.value().accepted, chat.size());
    const double finalized_before = finalized->value();
    const double active_before = active->value();

    // The next I/O point is the finalize's first PutHighlight.
    net::Router routes = net::BuildRoutes(server.get());
    int error_status = 0;
    const net::HttpHandler* handler =
        routes.Find("POST", "/finalize", &error_status);
    ASSERT_NE(handler, nullptr);
    const std::string body = "{\"video_id\":\"" + video_id_ + "\"}";
    net::HttpRequest wire;
    wire.method = "POST";
    wire.path = "/finalize";
    wire.body = body;
    env_.InjectAt(env_.io_points(), ft::FaultKind::kEnospc);
    net::HttpResponse response = (*handler)(wire);
    EXPECT_EQ(response.status, 503);
    EXPECT_NE(response.FindHeader("retry-after"), nullptr);
    EXPECT_EQ(finalized->value(), finalized_before);
    EXPECT_EQ(active->value(), active_before);

    auto live = server->GetHighlights(video_id_);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_TRUE(live.value().provisional);
    IngestChatRequest late;
    late.video_id = video_id_;
    late.messages = {chat.back()};
    EXPECT_EQ(server->IngestChat(late).status().code(),
              common::StatusCode::kFailedPrecondition);

    // The failed append wedged the highlight log; a checkpoint starts a
    // fresh generation (storage/checkpoint.h), after which the retry
    // re-puts the dots the first call computed.
    ASSERT_TRUE(server->Checkpoint().ok());
    auto retried = server->FinalizeStream({video_id_, 0.0});
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(finalized->value(), finalized_before + 1);
    EXPECT_EQ(active->value(), active_before - 1);
    final_records = retried.value().highlights;
    const auto batch =
        lightor_->Initialize(chat, video.truth.meta.length, /*top_k=*/5);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(final_records.size(), batch.value().size());
    ASSERT_FALSE(final_records.empty());
    for (size_t i = 0; i < final_records.size(); ++i) {
      EXPECT_EQ(final_records[i].dot_position, batch.value()[i].position)
          << "dot " << i;
      EXPECT_EQ(final_records[i].score, batch.value()[i].score) << "dot " << i;
    }
    auto served = server->GetHighlights(video_id_);
    ASSERT_TRUE(served.ok());
    EXPECT_FALSE(served.value().provisional);
    server->Shutdown();
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }

  auto db = OpenDb();
  auto server = MakeServer(db.get());
  auto loaded = server->GetHighlights(video_id_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().provisional);
  ASSERT_EQ(loaded.value().highlights.size(), final_records.size());
  for (size_t i = 0; i < final_records.size(); ++i) {
    EXPECT_EQ(loaded.value().highlights[i], final_records[i]) << "dot " << i;
  }
}

// A storage error mid-crawl must not leave a prefix of the chat behind
// to be served as the video's chat. The first visit answers 503 with no
// record of the crawl readable; the retry rescues the wedged chat log and
// serves the dots the batch Initializer computes over the full chat; a
// restart loads the full chat (which re-initializes to the same dots) and
// those dots.
TEST_F(ServingRecoveryTest, FailedCrawlLeavesNoPartialChat) {
  const auto video = platform_->GetVideo(video_id_).value();
  const std::vector<core::Message> chat = sim::ToCoreMessages(video.chat);
  ASSERT_GT(chat.size(), 101u);
  const auto batch =
      lightor_->Initialize(chat, video.truth.meta.length, /*top_k=*/5);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch.value().empty());
  std::vector<storage::HighlightRecord> served;
  {
    auto db = OpenDb();
    auto server = MakeServer(db.get());
    net::Router routes = net::BuildRoutes(server.get());
    int error_status = 0;
    const net::HttpHandler* handler =
        routes.Find("POST", "/visit", &error_status);
    ASSERT_NE(handler, nullptr);
    const std::string body = net::EncodeJson(PageVisitRequest{video_id_, "u"});
    net::HttpRequest wire;
    wire.method = "POST";
    wire.path = "/visit";
    wire.body = body;
    // The crawl is the visit's first I/O: two appends per message (frame
    // header, payload), then one flush. Disk full at the 101st message.
    env_.InjectAt(env_.io_points() + 2 * 100, ft::FaultKind::kEnospc);
    EXPECT_EQ((*handler)(wire).status, 503);
    EXPECT_FALSE(db->chat().HasVideo(video_id_));
    EXPECT_FALSE(db->highlights().HasVideo(video_id_));

    auto retried = server->OnPageVisit({video_id_, "u"});
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_TRUE(retried.value().first_visit);
    served = retried.value().highlights;
    ASSERT_EQ(served.size(), batch.value().size());
    for (size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].dot_position, batch.value()[i].position)
          << "dot " << i;
      EXPECT_EQ(served[i].score, batch.value()[i].score) << "dot " << i;
    }
    EXPECT_EQ(db->chat().GetByVideo(video_id_).size(), chat.size());
    server->Shutdown();
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }

  auto db = OpenDb();
  const auto& stored = db->chat().GetByVideo(video_id_);
  ASSERT_EQ(stored.size(), chat.size());
  std::vector<core::Message> replayed;
  for (const auto& rec : stored) {
    replayed.push_back({rec.timestamp, rec.user, rec.text});
  }
  const auto again =
      lightor_->Initialize(replayed, video.truth.meta.length, /*top_k=*/5);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().size(), served.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(again.value()[i].position, served[i].dot_position)
        << "dot " << i;
  }
  auto server = MakeServer(db.get());
  auto loaded = server->GetHighlights(video_id_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().highlights, served);
}

// The same for the dots: a write error between the first dot and the last
// must not leave a partial dot set that later visits serve as the video's
// highlights. The visit answers 503 with no dot readable, and the retry
// serves every dot of the batch Initializer.
TEST_F(ServingRecoveryTest, FailedDotWriteLeavesNoPartialDots) {
  const auto video = platform_->GetVideo(video_id_).value();
  const auto batch = lightor_->Initialize(sim::ToCoreMessages(video.chat),
                                          video.truth.meta.length,
                                          /*top_k=*/5);
  ASSERT_TRUE(batch.ok());
  ASSERT_GT(batch.value().size(), 1u);
  auto db = OpenDb();
  auto server = MakeServer(db.get());
  // The crawl takes two appends per message and one flush; the dots come
  // next, two appends each. Disk full at the second dot.
  env_.InjectAt(env_.io_points() + 2 * video.chat.size() + 1 + 2,
                ft::FaultKind::kEnospc);
  auto failed = server->OnPageVisit({video_id_, "u"});
  EXPECT_TRUE(failed.status().IsIoError()) << failed.status().ToString();
  EXPECT_TRUE(db->chat().HasVideo(video_id_));
  EXPECT_FALSE(db->highlights().HasVideo(video_id_));
  EXPECT_TRUE(server->GetHighlights(video_id_).status().IsNotFound());

  auto retried = server->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried.value().first_visit);
  ASSERT_EQ(retried.value().highlights.size(), batch.value().size());
  for (size_t i = 0; i < batch.value().size(); ++i) {
    EXPECT_EQ(retried.value().highlights[i].dot_position,
              batch.value()[i].position)
        << "dot " << i;
  }
}

// The same for a refine pass: a write error between its first updated
// dot and its last must neither serve dots that are not on disk nor
// consume the sessions behind them. The pass answers 503 + Retry-After
// with the served version and dots unchanged and equal to the store; the
// retry consumes the same sessions into the dots the Extractor computes
// from them, and a restart serves those dots.
TEST_F(ServingRecoveryTest, FailedRefineWriteConsumesNoSessions) {
  std::vector<storage::HighlightRecord> refined;
  {
    auto db = OpenDb();
    auto server = MakeServer(db.get());
    ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
    const auto before = server->GetHighlights(video_id_).value();
    const uint64_t acked = LogSessions(server.get(), 12, 89);
    ASSERT_EQ(acked, 12 * before.highlights.size());
    const RefinePassResult want =
        RunRefinePass(*lightor_, video_id_, before.highlights,
                      db->interactions().SessionsSince(video_id_, 0));
    ASSERT_GT(want.updated.size(), 1u);

    net::Router routes = net::BuildRoutes(server.get());
    int error_status = 0;
    const net::HttpHandler* handler =
        routes.Find("POST", "/refine", &error_status);
    ASSERT_NE(handler, nullptr);
    const std::string body = "{\"video_id\":\"" + video_id_ + "\"}";
    net::HttpRequest wire;
    wire.method = "POST";
    wire.path = "/refine";
    wire.body = body;
    // The pass's first I/O is its dot write, two appends per dot. Disk
    // full inside the second dot's frame.
    env_.InjectAt(env_.io_points() + 3, ft::FaultKind::kEnospc);
    net::HttpResponse response = (*handler)(wire);
    EXPECT_EQ(response.status, 503);
    EXPECT_NE(response.FindHeader("retry-after"), nullptr);
    const auto served = server->GetHighlights(video_id_).value();
    EXPECT_EQ(served.snapshot_version, before.snapshot_version);
    EXPECT_EQ(served.highlights, before.highlights);
    EXPECT_EQ(db->highlights().GetLatest(video_id_), served.highlights);

    auto retried = server->Refine(video_id_);
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(retried.value().sessions_consumed, acked);
    EXPECT_EQ(retried.value().dots_updated, want.report.dots_updated);
    refined = server->GetHighlights(video_id_).value().highlights;
    EXPECT_EQ(refined, want.all);
    EXPECT_EQ(db->highlights().GetLatest(video_id_), refined);
    server->Shutdown();
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }

  auto db = OpenDb();
  auto server = MakeServer(db.get());
  auto loaded = server->GetHighlights(video_id_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().highlights, refined);
}

// A wedged log is rescued by the next write, with no explicit
// Checkpoint(). In batched session-flush mode a failed flush wedges the
// interaction log; the retried Refine runs one "rescue" checkpoint, whose
// image comes from the stores and so holds every acked session, and then
// consumes them all. Every acked session survives a process crash.
TEST_F(ServingRecoveryTest, WedgedLogIsRescuedByTheNextWrite) {
  auto* rescues = obs::Registry::Global().GetCounter(
      "lightor_serving_checkpoint_trigger_total", {{"trigger", "rescue"}});
  const uint64_t rescues_before = rescues->value();
  uint64_t acked = 0;
  {
    auto db = OpenDb();
    ServerOptions opts;
    opts.batched_session_flush = true;
    auto server = MakeServer(db.get(), opts);
    ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
    acked = LogSessions(server.get(), 3, 87);
    ASSERT_GT(acked, 0u);

    // The next I/O point is the refine pass's flush of the buffered
    // sessions.
    env_.InjectAt(env_.io_points(), ft::FaultKind::kEnospc);
    EXPECT_FALSE(server->Refine(video_id_).ok());
    EXPECT_EQ(rescues->value(), rescues_before);

    auto report = server->Refine(video_id_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().sessions_consumed, acked);
    EXPECT_EQ(rescues->value(), rescues_before + 1);

    const uint64_t later = LogSessions(server.get(), 2, 88);
    ASSERT_GT(later, 0u);
    acked += later;
    server->Shutdown();  // flushes the batched sessions
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }
  auto db = OpenDb();
  EXPECT_EQ(db->interactions().SessionsForVideo(video_id_).size(), acked);
}

// Checkpointed restart: after refine + checkpoint + a post-checkpoint
// burst, a SIGKILL restart loads the checkpoint, replays only the log
// suffix, serves byte-identical /highlights, and the first refinement
// pass consumes exactly the replayed suffix sessions (the checkpoint
// dropped the already-consumed ones; nothing is double-counted).
TEST_F(ServingRecoveryTest, CheckpointedRestartReplaysOnlySuffix) {
  std::string pre_crash_content;
  uint64_t suffix_acked = 0;
  size_t checkpoint_records = 0;
  {
    auto db = OpenDb();
    auto server = MakeServer(db.get());
    ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
    ASSERT_GT(LogSessions(server.get(), 10, 81), 0u);
    ASSERT_TRUE(server->Refine(video_id_).ok());

    auto stats = server->Checkpoint();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().gen, 1u);
    EXPECT_GT(stats.value().records_written, 0u);
    EXPECT_GT(stats.value().log_bytes_truncated, 0u);
    checkpoint_records = stats.value().records_written;

    suffix_acked = LogSessions(server.get(), 2, 82);
    ASSERT_GT(suffix_acked, 0u);
    pre_crash_content = ContentBytes(server->GetHighlights(video_id_).value());

    env_.RecoverAfterCrash(ft::CrashModel::kProcess);  // SIGKILL
  }

  storage::OpenOptions options;
  options.directory = "db";
  options.env = &env_;
  auto opened = storage::DB::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().stats.checkpoint_gen, 1u);
  EXPECT_EQ(opened.value().stats.checkpoint_records, checkpoint_records);
  EXPECT_GT(opened.value().stats.records_replayed, 0u);

  auto server = MakeServer(opened.value().db.get());
  server->Bootstrap(opened.value().stats);
  const auto info = server->recovery_info();
  EXPECT_TRUE(info.bootstrapped);
  EXPECT_EQ(info.stats.checkpoint_gen, 1u);

  EXPECT_EQ(ContentBytes(server->GetHighlights(video_id_).value()),
            pre_crash_content);

  // At-most-once across the restart: the video was refined pre-crash, so
  // the seeded watermark treats every replayed interaction as consumed
  // (the coarse restart-dedupe trade-off documented in api.h) — nothing
  // is double-counted into a second refinement.
  auto report = server->Refine(video_id_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().sessions_consumed, 0u);

  // Refinement stays live after the checkpointed restart: sessions logged
  // by THIS process are consumed normally.
  const uint64_t fresh = LogSessions(server.get(), 3, 83);
  ASSERT_GT(fresh, 0u);
  report = server->Refine(video_id_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().sessions_consumed, fresh);
  (void)suffix_acked;
}

// A clean shutdown with the checkpoint machinery enabled leaves a
// checkpoint behind exactly once: an explicit checkpoint right before
// Shutdown() makes the final shutdown pass a clean no-op, and the next
// open replays nothing.
TEST_F(ServingRecoveryTest, CleanShutdownSkipsCheckpointWhenNothingNew) {
  {
    auto db = OpenDb();
    ServerOptions opts;
    opts.checkpoint_interval_seconds = 3600.0;  // thread on, timer idle
    auto server = MakeServer(db.get(), opts);
    ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
    ASSERT_GT(LogSessions(server.get(), 3, 84), 0u);
    ASSERT_TRUE(server->Refine(video_id_).ok());  // drain pending sessions
    auto stats = server->Checkpoint();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().gen, 1u);
    server->Shutdown();  // final pass sees a clean database and skips
  }
  storage::OpenOptions options;
  options.directory = "db";
  options.env = &env_;
  auto opened = storage::DB::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().stats.checkpoint_gen, 1u);
  EXPECT_EQ(opened.value().stats.records_replayed, 0u);
}

// The session-count trigger: every N acked sessions the background thread
// runs a checkpoint, observable through the trigger metric and the
// MANIFEST it installs.
TEST_F(ServingRecoveryTest, SessionCountTriggersBackgroundCheckpoint) {
  auto* counter = obs::Registry::Global().GetCounter(
      "lightor_serving_checkpoint_trigger_total", {{"trigger", "sessions"}});
  const uint64_t before = counter->value();

  auto db = OpenDb();
  ServerOptions opts;
  opts.checkpoint_every_sessions = 2;
  auto server = MakeServer(db.get(), opts);
  ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
  ASSERT_GE(LogSessions(server.get(), 3, 85), 2u);

  for (int i = 0; i < 500 && counter->value() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(counter->value(), before);
  EXPECT_TRUE(env_.FileExists("db/MANIFEST"));
  server->Shutdown();

  storage::OpenOptions options;
  options.directory = "db";
  options.env = &env_;
  auto opened = storage::DB::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_GE(opened.value().stats.checkpoint_gen, 1u);
}

// /healthz surfaces the Bootstrap()-recorded RecoveryStats and
// POST /debug/checkpoint runs one on demand, both over the wire.
TEST_F(ServingRecoveryTest, HealthzAndDebugCheckpointOnTheWire) {
  auto db = OpenDb();
  auto server = MakeServer(db.get());

  storage::RecoveryStats stats;
  stats.checkpoint_gen = 3;
  stats.checkpoint_lsn = 42;
  stats.log_gen = 3;
  stats.checkpoint_records = 40;
  stats.records_replayed = 7;
  server->Bootstrap(stats);

  net::Router routes = net::BuildRoutes(server.get());
  int error_status = 0;
  const net::HttpHandler* health =
      routes.Find("GET", "/healthz", &error_status);
  ASSERT_NE(health, nullptr);
  net::HttpRequest wire;
  wire.method = "GET";
  wire.path = "/healthz";
  net::HttpResponse response = (*health)(wire);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"bootstrapped\":true"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"checkpoint_gen\":3"), std::string::npos);
  EXPECT_NE(response.body.find("\"records_replayed\":7"), std::string::npos);

  // Give the checkpoint something to persist, then trigger it remotely.
  ASSERT_TRUE(server->OnPageVisit({video_id_, "u"}).ok());
  ASSERT_GT(LogSessions(server.get(), 2, 86), 0u);
  const net::HttpHandler* ckpt =
      routes.Find("POST", "/debug/checkpoint", &error_status);
  ASSERT_NE(ckpt, nullptr);
  wire.method = "POST";
  wire.path = "/debug/checkpoint";
  response = (*ckpt)(wire);
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"gen\":1"), std::string::npos)
      << response.body;
  EXPECT_TRUE(env_.FileExists("db/MANIFEST"));
}

}  // namespace
}  // namespace lightor::serving
