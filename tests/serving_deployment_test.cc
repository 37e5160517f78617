#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "common/rng.h"
#include "core/evaluation.h"
#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"

namespace lightor::serving {
namespace {

/// The Section VI deployment loop end to end on a `HighlightServer` with
/// explicit refinement only: page visit → crawl → Initializer → red dots
/// → logged sessions → Extractor pass → updated dots.
class DeploymentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("lightor_deployment_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);

    sim::Platform::Options popts;
    popts.num_channels = 2;
    popts.videos_per_channel = 2;
    popts.seed = 61;
    platform_ = std::make_unique<sim::Platform>(popts);

    auto db = storage::DB::Open(storage::OpenOptions(dir_));
    ASSERT_TRUE(db.ok());
    db_ = std::move(db.value().db);

    // Train the pipeline on an out-of-platform corpus video.
    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 62);
    core::TrainingVideo tv;
    tv.messages = sim::ToCoreMessages(corpus[0].chat);
    tv.video_length = corpus[0].truth.meta.length;
    for (const auto& h : corpus[0].truth.highlights) {
      tv.highlights.push_back(h.span);
    }
    lightor_ = std::make_unique<core::Lightor>();
    ASSERT_TRUE(lightor_->TrainInitializer({tv}).ok());

    service_ = MakeServer();
    ASSERT_NE(service_, nullptr);
    video_id_ = platform_->AllVideoIds()[0];
  }
  void TearDown() override {
    service_.reset();
    std::filesystem::remove_all(dir_);
  }

  ServerOptions Options() {
    ServerOptions opts;
    opts.platform = Borrow<const sim::Platform>(platform_.get());
    opts.db = Borrow(db_.get());
    opts.lightor = Borrow<const core::Lightor>(lightor_.get());
    opts.top_k = 5;
    opts.refine_batch_sessions = 0;  // explicit refinement only
    return opts;
  }

  std::unique_ptr<HighlightServer> MakeServer() {
    auto server = HighlightServer::Create(Options());
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(server).value() : nullptr;
  }

  common::Status LogSessionFor(HighlightServer* server,
                               const std::string& user, uint64_t session_id,
                               std::vector<sim::InteractionEvent> events) {
    LogSessionRequest req;
    req.video_id = video_id_;
    req.user = user;
    req.session_id = session_id;
    req.events = std::move(events);
    return server->LogSession(req);
  }

  std::string dir_;
  std::unique_ptr<sim::Platform> platform_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<core::Lightor> lightor_;
  std::unique_ptr<HighlightServer> service_;
  std::string video_id_;
};

TEST_F(DeploymentTest, OptionsAreValidated) {
  ServerOptions opts;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());  // null deps
  EXPECT_TRUE(HighlightServer::Create(opts).status().IsInvalidArgument());
  opts = Options();
  EXPECT_TRUE(opts.Validate().ok());
  opts.top_k = 0;
  EXPECT_TRUE(opts.Validate().IsInvalidArgument());
  EXPECT_TRUE(HighlightServer::Create(opts).status().IsInvalidArgument());
}

TEST_F(DeploymentTest, FirstVisitCrawlsAndInitializes) {
  EXPECT_FALSE(db_->chat().HasVideo(video_id_));
  auto visit = service_->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(visit.ok());
  EXPECT_TRUE(visit.value().first_visit);
  EXPECT_FALSE(visit.value().highlights.empty());
  EXPECT_LE(visit.value().highlights.size(), 5u);
  EXPECT_TRUE(db_->chat().HasVideo(video_id_));
  EXPECT_TRUE(db_->highlights().HasVideo(video_id_));
}

TEST_F(DeploymentTest, SecondVisitServedFromStore) {
  auto first = service_->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(first.ok());
  const size_t chat_records = db_->chat().TotalRecords();
  auto second = service_->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().first_visit);
  EXPECT_EQ(db_->chat().TotalRecords(), chat_records);  // no re-crawl
  EXPECT_EQ(second.value().highlights, first.value().highlights);
}

TEST_F(DeploymentTest, MetricsPageReflectsTraffic) {
  ASSERT_TRUE(service_->OnPageVisit({video_id_, "u"}).ok());
  const std::string page = service_->MetricsPage();
  EXPECT_NE(page.find("# TYPE lightor_web_page_visits_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("lightor_web_dot_cache_total{outcome=\"miss\"}"),
            std::string::npos);
  EXPECT_NE(page.find("lightor_storage_chat_cache_total"), std::string::npos);
}

TEST_F(DeploymentTest, UnknownVideoIsNotFound) {
  EXPECT_TRUE(service_->OnPageVisit({"missing", "u"}).status().IsNotFound());
  EXPECT_TRUE(service_->GetHighlights("missing").status().IsNotFound());
  EXPECT_TRUE(service_->Refine("missing").status().IsNotFound());
}

TEST_F(DeploymentTest, FullDeploymentLoopRefinesDots) {
  auto visit = service_->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(visit.ok());
  const auto video = platform_->GetVideo(video_id_).value();

  sim::ViewerSimulator viewers;
  common::Rng rng(63);
  uint64_t session_id = 0;
  // Three rounds of: viewers interact around the published dots -> the
  // server refines.
  for (int round = 0; round < 3; ++round) {
    const auto current = service_->GetHighlights(video_id_).value();
    for (const auto& dot : current.highlights) {
      for (int u = 0; u < 10; ++u) {
        const auto session = viewers.SimulateSession(
            video.truth, dot.dot_position, rng,
            "w" + std::to_string(session_id));
        ASSERT_TRUE(LogSessionFor(service_.get(), session.user, ++session_id,
                                  session.events)
                        .ok());
      }
    }
    auto report = service_->Refine(video_id_);
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report.value().dots_updated, 0);
    EXPECT_GT(report.value().sessions_consumed, 0u);
    // The per-dot outcomes line up with the updated count.
    int updated = 0;
    for (const auto& dot : report.value().dots) {
      if (dot.updated) ++updated;
    }
    EXPECT_EQ(updated, report.value().dots_updated);
  }

  const auto refined = service_->GetHighlights(video_id_).value();
  std::vector<common::Interval> truth;
  for (const auto& h : video.truth.highlights) truth.push_back(h.span);
  std::vector<double> starts;
  int iterations_advanced = 0;
  for (const auto& dot : refined.highlights) {
    starts.push_back(dot.start);
    if (dot.iteration > 0) ++iterations_advanced;
  }
  EXPECT_GT(iterations_advanced, 0);
  EXPECT_GT(core::VideoPrecisionStart(starts, truth), 0.4);
}

TEST_F(DeploymentTest, RestartSeedsWatermarkFromDb) {
  ASSERT_TRUE(service_->OnPageVisit({video_id_, "u"}).ok());
  const auto video = platform_->GetVideo(video_id_).value();
  sim::ViewerSimulator viewers;
  common::Rng rng(65);
  const auto dots = service_->GetHighlights(video_id_).value();
  for (int u = 0; u < 8; ++u) {
    const auto session = viewers.SimulateSession(
        video.truth, dots.highlights[0].dot_position, rng, "w");
    ASSERT_TRUE(
        LogSessionFor(service_.get(), "w", 2000 + u, session.events).ok());
  }
  ASSERT_TRUE(service_->Refine(video_id_).ok());
  service_.reset();

  // A restarted server over the same database must not re-consume the
  // sessions the first instance already refined on.
  auto restarted = MakeServer();
  ASSERT_NE(restarted, nullptr);
  auto report = restarted->Refine(video_id_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().sessions_consumed, 0u);
  EXPECT_EQ(report.value().dots_updated, 0);

  // New sessions logged after the restart are still picked up.
  for (int u = 0; u < 8; ++u) {
    const auto session = viewers.SimulateSession(
        video.truth, dots.highlights[0].dot_position, rng, "w2");
    ASSERT_TRUE(
        LogSessionFor(restarted.get(), "w2", 3000 + u, session.events).ok());
  }
  auto next = restarted->Refine(video_id_);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().sessions_consumed, 8u);
}

}  // namespace
}  // namespace lightor::serving
