#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "serving/highlight_server.h"
#include "serving/refine.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"

namespace lightor::serving {
namespace {

/// The paper's deployment loop composed from its public steps, with no
/// server and no database: the Initializer over the video's chat in
/// timestamp order (stable) on its first visit, the logged sessions of
/// each video keyed by session id (a resent id is kept once), and one
/// Extractor pass over the sessions logged since the previous pass. It
/// shares none of the server's shards, snapshots, watermarks or log
/// reads.
class DeploymentOracle {
 public:
  DeploymentOracle(const sim::Platform* platform, const core::Lightor* lightor,
                   size_t top_k)
      : platform_(platform), lightor_(lightor), top_k_(top_k) {}

  /// The video's current dots; the first call places them.
  std::vector<storage::HighlightRecord> Visit(const std::string& video_id) {
    auto [it, first] = videos_.try_emplace(video_id);
    if (!first) return it->second.dots;
    std::vector<core::Message> chat =
        sim::ToCoreMessages(platform_->FetchChat(video_id).value());
    std::stable_sort(chat.begin(), chat.end(),
                     [](const core::Message& a, const core::Message& b) {
                       return a.timestamp < b.timestamp;
                     });
    const auto dots = lightor_->Initialize(
        chat, platform_->VideoLength(video_id).value(), top_k_);
    EXPECT_TRUE(dots.ok()) << dots.status().ToString();
    const double fallback = lightor_->options().extractor.fallback_length;
    for (size_t i = 0; i < dots.value().size(); ++i) {
      storage::HighlightRecord rec;
      rec.video_id = video_id;
      rec.dot_index = static_cast<int32_t>(i);
      rec.dot_position = dots.value()[i].position;
      rec.start = rec.dot_position;
      rec.end = rec.dot_position + fallback;
      rec.score = dots.value()[i].score;
      it->second.dots.push_back(std::move(rec));
    }
    return it->second.dots;
  }

  void LogSession(const LogSessionRequest& req) {
    Video& video = videos_.at(req.video_id);
    if (!video.logged.insert(req.session_id).second) return;
    auto& records = video.unconsumed[req.session_id];
    for (const auto& ev : req.events) {
      storage::InteractionRecord rec;
      rec.video_id = req.video_id;
      rec.user = req.user;
      rec.session_id = req.session_id;
      rec.event = FromSimType(ev.type);
      rec.wall_time = ev.wall_time;
      rec.position = ev.position;
      rec.target = ev.target;
      records.push_back(std::move(rec));
    }
  }

  RefineReport Refine(const std::string& video_id) {
    Video& video = videos_.at(video_id);
    auto pass = RunRefinePass(*lightor_, video_id, video.dots,
                              video.unconsumed);
    video.unconsumed.clear();
    video.dots = std::move(pass.all);
    return std::move(pass.report);
  }

 private:
  struct Video {
    std::vector<storage::HighlightRecord> dots;
    std::set<uint64_t> logged;
    std::map<uint64_t, std::vector<storage::InteractionRecord>> unconsumed;
  };
  const sim::Platform* platform_;
  const core::Lightor* lightor_;
  size_t top_k_;
  std::map<std::string, Video> videos_;
};

/// Shared fixture: one simulated platform and trained pipeline; each test
/// opens its own database directory.
class HighlightServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("lightor_serving_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);

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
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<storage::Database> OpenDb(const std::string& dir) {
    auto db = storage::DB::Open(storage::OpenOptions(dir));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db.value().db);
  }

  ServerOptions BaseOptions(storage::Database* db) {
    ServerOptions opts;
    opts.platform = Borrow<const sim::Platform>(platform_.get());
    opts.db = Borrow(db);
    opts.lightor = Borrow<const core::Lightor>(lightor_.get());
    return opts;
  }

  LogSessionRequest MakeLog(const std::string& video_id,
                            const sim::ViewerSession& session,
                            uint64_t session_id) {
    LogSessionRequest req;
    req.video_id = video_id;
    req.user = session.user;
    req.session_id = session_id;
    req.events = session.events;
    return req;
  }

  std::string dir_;
  std::unique_ptr<sim::Platform> platform_;
  std::unique_ptr<core::Lightor> lightor_;
  std::string video_id_;
};

TEST_F(HighlightServerTest, CreateValidatesOptions) {
  auto db = OpenDb(dir_);
  ServerOptions opts;  // null deps
  EXPECT_TRUE(HighlightServer::Create(opts).status().IsInvalidArgument());
  opts = BaseOptions(db.get());
  opts.num_shards = 0;
  EXPECT_TRUE(HighlightServer::Create(opts).status().IsInvalidArgument());
  // A publish deadline needs ingest workers to keep it: with none,
  // nothing would publish a channel that went quiet.
  opts = BaseOptions(db.get());
  opts.stream_publish_max_delay_seconds = 0.05;
  EXPECT_TRUE(HighlightServer::Create(opts).status().IsInvalidArgument());
  opts.ingest_workers = 1;
  auto kept = HighlightServer::Create(opts);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  kept.value()->Shutdown();
}

TEST_F(HighlightServerTest, FirstVisitPublishesSnapshotV1) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());
  auto visit = server.value()->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(visit.ok());
  EXPECT_TRUE(visit.value().first_visit);
  EXPECT_EQ(visit.value().snapshot_version, 1u);
  EXPECT_FALSE(visit.value().highlights.empty());
  EXPECT_TRUE(db->highlights().HasVideo(video_id_));

  auto again = server.value()->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().first_visit);
  EXPECT_EQ(again.value().snapshot_version, 1u);

  EXPECT_TRUE(
      server.value()->GetHighlights("missing").status().IsNotFound());
  EXPECT_TRUE(server.value()->Refine("missing").status().IsNotFound());
}

TEST_F(HighlightServerTest, ExplicitRefineAdvancesSnapshotVersion) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.refine_batch_sessions = 0;  // explicit refinement only
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->OnPageVisit({video_id_, "u"}).ok());

  const auto video = platform_->GetVideo(video_id_).value();
  sim::ViewerSimulator viewers;
  common::Rng rng(73);
  const auto dots = server.value()->GetHighlights(video_id_).value();
  uint64_t session_id = 0;
  for (const auto& dot : dots.highlights) {
    for (int u = 0; u < 10; ++u) {
      const auto session = viewers.SimulateSession(
          video.truth, dot.dot_position, rng, "w" + std::to_string(u));
      ASSERT_TRUE(server.value()
                      ->LogSession(MakeLog(video_id_, session, ++session_id))
                      .ok());
    }
  }
  auto report = server.value()->Refine(video_id_);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().dots_updated, 0);
  EXPECT_EQ(report.value().sessions_consumed, session_id);
  for (const auto& dot : report.value().dots) {
    EXPECT_TRUE(dot.updated);
  }

  const auto refined = server.value()->GetHighlights(video_id_).value();
  EXPECT_EQ(refined.snapshot_version, 2u);
  int advanced = 0;
  for (const auto& rec : refined.highlights) {
    if (rec.iteration > 0) ++advanced;
  }
  EXPECT_EQ(advanced, report.value().dots_updated);

  // Nothing new to consume: the pass is a no-op but still versions.
  auto empty = server.value()->Refine(video_id_);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().sessions_consumed, 0u);
  EXPECT_EQ(empty.value().dots_updated, 0);
}

TEST_F(HighlightServerTest, LogSessionIsIdempotentPerSessionId) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.refine_batch_sessions = 0;
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->OnPageVisit({video_id_, "u"}).ok());

  const auto video = platform_->GetVideo(video_id_).value();
  sim::ViewerSimulator viewers;
  common::Rng rng(74);
  const auto dots = server.value()->GetHighlights(video_id_).value();
  const auto session = viewers.SimulateSession(
      video.truth, dots.highlights[0].dot_position, rng, "w0");
  const LogSessionRequest req = MakeLog(video_id_, session, 7);
  ASSERT_TRUE(server.value()->LogSession(req).ok());
  const size_t logged_once = db->interactions().TotalRecords();
  EXPECT_GT(logged_once, 0u);

  // A router retry resends the identical session after a lost ack: it
  // must be acked OK without double-logging any event.
  ASSERT_TRUE(server.value()->LogSession(req).ok());
  EXPECT_EQ(db->interactions().TotalRecords(), logged_once);

  // A different session id from the same user still lands.
  ASSERT_TRUE(server.value()->LogSession(MakeLog(video_id_, session, 8)).ok());
  EXPECT_EQ(db->interactions().TotalRecords(), 2 * logged_once);
}

TEST_F(HighlightServerTest, BackgroundWorkersRefineOnBatchThreshold) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.refine_batch_sessions = 4;
  opts.num_workers = 1;
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->OnPageVisit({video_id_, "u"}).ok());

  const auto video = platform_->GetVideo(video_id_).value();
  sim::ViewerSimulator viewers;
  common::Rng rng(74);
  const auto dots = server.value()->GetHighlights(video_id_).value();
  for (int u = 0; u < 8; ++u) {
    const auto session = viewers.SimulateSession(
        video.truth, dots.highlights[0].dot_position, rng,
        "w" + std::to_string(u));
    ASSERT_TRUE(
        server.value()
            ->LogSession(MakeLog(video_id_, session,
                                 static_cast<uint64_t>(u) + 1))
            .ok());
  }
  // No explicit Refine: a worker must pick the batch up on its own.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  uint64_t version = 1;
  while (std::chrono::steady_clock::now() < deadline) {
    version = server.value()->GetHighlights(video_id_).value().snapshot_version;
    if (version > 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(version, 1u);
}

TEST_F(HighlightServerTest, ShutdownDrainsAndRejects) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.refine_batch_sessions = 1000;  // batches never fire on their own
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->OnPageVisit({video_id_, "u"}).ok());

  const auto video = platform_->GetVideo(video_id_).value();
  sim::ViewerSimulator viewers;
  common::Rng rng(75);
  const auto dots = server.value()->GetHighlights(video_id_).value();
  for (int u = 0; u < 6; ++u) {
    const auto session = viewers.SimulateSession(
        video.truth, dots.highlights[0].dot_position, rng,
        "w" + std::to_string(u));
    ASSERT_TRUE(
        server.value()
            ->LogSession(MakeLog(video_id_, session,
                                 static_cast<uint64_t>(u) + 1))
            .ok());
  }
  server.value()->Shutdown();
  // The drain consumed the pending sessions into one last pass.
  EXPECT_GT(server.value()->GetHighlights(video_id_).value().snapshot_version,
            1u);
  // New work is rejected, reads still succeed; Shutdown is idempotent.
  EXPECT_TRUE(server.value()
                  ->OnPageVisit({video_id_, "u"})
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(server.value()
                  ->LogSession(MakeLog(video_id_, {}, 99))
                  .IsFailedPrecondition());
  EXPECT_TRUE(server.value()->Refine(video_id_).status().IsFailedPrecondition());
  EXPECT_TRUE(server.value()->GetHighlights(video_id_).ok());
  server.value()->Shutdown();
}

TEST_F(HighlightServerTest, RestartDoesNotReconsumeSessions) {
  auto db = OpenDb(dir_);
  {
    ServerOptions opts = BaseOptions(db.get());
    opts.refine_batch_sessions = 0;
    auto server = HighlightServer::Create(opts);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(server.value()->OnPageVisit({video_id_, "u"}).ok());
    const auto video = platform_->GetVideo(video_id_).value();
    sim::ViewerSimulator viewers;
    common::Rng rng(76);
    const auto dots = server.value()->GetHighlights(video_id_).value();
    for (int u = 0; u < 8; ++u) {
      const auto session = viewers.SimulateSession(
          video.truth, dots.highlights[0].dot_position, rng,
          "w" + std::to_string(u));
      ASSERT_TRUE(
          server.value()
              ->LogSession(MakeLog(video_id_, session,
                                   static_cast<uint64_t>(u) + 1))
              .ok());
    }
    ASSERT_TRUE(server.value()->Refine(video_id_).ok());
  }
  // Same database, new server: the seeded watermark marks the refined
  // video's interactions as already consumed.
  auto restarted = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(restarted.ok());
  auto report = restarted.value()->Refine(video_id_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().sessions_consumed, 0u);
  EXPECT_EQ(report.value().dots_updated, 0);
}

/// The differential: the same traffic into the server and into the
/// oracle must yield the same reports and the same dots. Each video gets
/// two rounds of sessions, and each round resends one session (a router
/// retry): the first round a session the pass has not consumed yet, the
/// second round one an earlier pass already consumed. The server's
/// session-id dedupe must make both resends no-ops, as the oracle's does.
TEST_F(HighlightServerTest, MatchesDeploymentOracleOnIdenticalTraffic) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.refine_batch_sessions = 0;  // refinement at explicit points only
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok());
  DeploymentOracle oracle(platform_.get(), lightor_.get(), opts.top_k);

  const auto ids = platform_->AllVideoIds();
  sim::ViewerSimulator viewers;
  uint64_t session_id = 0;
  for (const auto& video_id : ids) {
    auto visit = server.value()->OnPageVisit({video_id, "u"});
    ASSERT_TRUE(visit.ok());
    ASSERT_EQ(visit.value().highlights, oracle.Visit(video_id));

    const auto video = platform_->GetVideo(video_id).value();
    common::Rng rng(700 + session_id);
    std::optional<LogSessionRequest> resend;
    for (int round = 0; round < 2; ++round) {
      for (const auto& dot : oracle.Visit(video_id)) {
        for (int u = 0; u < 6; ++u) {
          ++session_id;
          const auto session = viewers.SimulateSession(
              video.truth, dot.dot_position, rng,
              "w" + std::to_string(session_id));
          const LogSessionRequest req = MakeLog(video_id, session, session_id);
          ASSERT_TRUE(server.value()->LogSession(req).ok());
          oracle.LogSession(req);
          if (!resend.has_value()) resend = req;
        }
      }
      ASSERT_TRUE(server.value()->LogSession(*resend).ok());
      oracle.LogSession(*resend);

      auto got = server.value()->Refine(video_id);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const RefineReport want = oracle.Refine(video_id);
      EXPECT_EQ(got.value().sessions_consumed, want.sessions_consumed)
          << video_id << " round " << round;
      EXPECT_EQ(got.value().dots_updated, want.dots_updated)
          << video_id << " round " << round;
      ASSERT_EQ(got.value().dots.size(), want.dots.size());
      for (size_t i = 0; i < want.dots.size(); ++i) {
        EXPECT_EQ(got.value().dots[i].dot_index, want.dots[i].dot_index);
        EXPECT_EQ(got.value().dots[i].plays_used, want.dots[i].plays_used);
        EXPECT_EQ(got.value().dots[i].new_position,
                  want.dots[i].new_position);
      }
      EXPECT_EQ(server.value()->GetHighlights(video_id).value().highlights,
                oracle.Visit(video_id))
          << video_id << " round " << round;
    }
  }
}

TEST_F(HighlightServerTest, MetricsPageCarriesWebSeries) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->OnPageVisit({video_id_, "u"}).ok());
  const std::string page = server.value()->MetricsPage();
  // One serving implementation: the series carry no `server` label.
  EXPECT_NE(page.find("\nlightor_web_page_visits_total "), std::string::npos);
  EXPECT_EQ(page.find("server=\""), std::string::npos);
  EXPECT_NE(page.find("lightor_serving_queue_depth"), std::string::npos);
}

}  // namespace
}  // namespace lightor::serving
