#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "serving/highlight_server.h"
#include "serving/web_service.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"

namespace lightor::serving {
namespace {

/// Shared fixture: one simulated platform and trained pipeline; each test
/// opens its own database directory (and a second one for differential
/// runs).
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
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_ref");
  }

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
  // A publish deadline needs ingest workers to keep it: on the
  // synchronous path nothing would publish a channel that went quiet.
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
    EXPECT_TRUE(dot.status.ok());
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

/// The differential test of the redesign: the concurrent server and the
/// single-threaded reference implementation run the identical refinement
/// core, so identical traffic into separate databases must yield
/// identical highlights.
TEST_F(HighlightServerTest, MatchesReferenceWebServiceOnIdenticalTraffic) {
  auto db_new = OpenDb(dir_);
  auto db_ref = OpenDb(dir_ + "_ref");

  ServerOptions new_opts = BaseOptions(db_new.get());
  new_opts.refine_batch_sessions = 0;  // refinement at explicit points only
  auto server = HighlightServer::Create(new_opts);
  ASSERT_TRUE(server.ok());
  WebService reference(BaseOptions(db_ref.get()));

  const auto ids = platform_->AllVideoIds();
  sim::ViewerSimulator viewers;
  uint64_t session_id = 0;
  for (const auto& video_id : ids) {
    auto new_visit = server.value()->OnPageVisit({video_id, "u"});
    auto ref_visit = reference.OnPageVisit({video_id, "u"});
    ASSERT_TRUE(new_visit.ok());
    ASSERT_TRUE(ref_visit.ok());
    ASSERT_EQ(new_visit.value().highlights.size(),
              ref_visit.value().highlights.size());

    const auto video = platform_->GetVideo(video_id).value();
    // Identical sessions into both services (fresh Rng per video, forked
    // identically for each service).
    common::Rng rng(700 + session_id);
    for (const auto& dot : new_visit.value().highlights) {
      for (int u = 0; u < 6; ++u) {
        auto fork = rng.Fork();
        auto fork_copy = fork;
        const auto session = viewers.SimulateSession(
            video.truth, dot.dot_position, fork,
            "w" + std::to_string(session_id));
        const auto session_ref = viewers.SimulateSession(
            video.truth, dot.dot_position, fork_copy,
            "w" + std::to_string(session_id));
        ++session_id;
        ASSERT_TRUE(
            server.value()
                ->LogSession(MakeLog(video_id, session, session_id))
                .ok());
        ASSERT_TRUE(
            reference.LogSession(MakeLog(video_id, session_ref, session_id))
                .ok());
      }
    }
    auto new_report = server.value()->Refine(video_id);
    auto ref_report = reference.Refine(video_id);
    ASSERT_TRUE(new_report.ok());
    ASSERT_TRUE(ref_report.ok());
    EXPECT_EQ(new_report.value().dots_updated, ref_report.value().dots_updated);
    EXPECT_EQ(new_report.value().sessions_consumed,
              ref_report.value().sessions_consumed);
  }

  // Every video's final highlights agree field by field.
  for (const auto& video_id : ids) {
    const auto got = server.value()->GetHighlights(video_id).value();
    const auto want = reference.GetHighlights(video_id).value();
    ASSERT_EQ(got.highlights.size(), want.highlights.size());
    for (size_t i = 0; i < got.highlights.size(); ++i) {
      const auto& g = got.highlights[i];
      const auto& w = want.highlights[i];
      EXPECT_EQ(g.dot_index, w.dot_index);
      EXPECT_DOUBLE_EQ(g.dot_position, w.dot_position);
      EXPECT_DOUBLE_EQ(g.start, w.start);
      EXPECT_DOUBLE_EQ(g.end, w.end);
      EXPECT_EQ(g.iteration, w.iteration);
      EXPECT_EQ(g.converged, w.converged);
    }
  }
}

TEST_F(HighlightServerTest, MetricsPageCarriesServerLabel) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->OnPageVisit({video_id_, "u"}).ok());
  const std::string page = server.value()->MetricsPage();
  EXPECT_NE(page.find("lightor_web_page_visits_total{"
                      "server=\"concurrent\"}"),
            std::string::npos);
  EXPECT_NE(page.find("lightor_serving_queue_depth"), std::string::npos);
}

}  // namespace
}  // namespace lightor::serving
