/// Multi-threaded stress test of the concurrent HighlightServer: 8 client
/// threads drive mixed traffic (page visits, session uploads, snapshot
/// reads, explicit refines) over 16 videos. Checks afterwards:
///
///   * no lost sessions — every interaction event accepted by LogSession
///     is in the database;
///   * snapshot-consistent reads — every response is a coherent
///     highlight set (one video, unique dot indices) with per-video
///     monotonically non-decreasing versions per client;
///   * the drain consumes every pending batch before shutdown.
///
/// A second test races first visits: the crawl and the Initializer run
/// once per video however many visits arrive together.
///
/// ci.sh also runs this binary under ThreadSanitizer
/// (-DLIGHTOR_SANITIZE=thread); keep the workload modest so that build
/// stays fast on small machines.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <latch>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"

namespace lightor::serving {
namespace {

constexpr int kThreads = 8;
constexpr int kRoundsPerThread = 6;

TEST(ServingStressTest, ConcurrentMixedTrafficIsLossless) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lightor_serving_stress")
          .string();
  std::filesystem::remove_all(dir);

  // 4 channels x 4 videos = 16 videos spread over the shards.
  sim::Platform::Options popts;
  popts.num_channels = 4;
  popts.videos_per_channel = 4;
  popts.seed = 81;
  const sim::Platform platform(popts);

  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 82);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::Lightor lightor;
  ASSERT_TRUE(lightor.TrainInitializer({tv}).ok());

  auto opened = storage::DB::Open(storage::OpenOptions(dir));
  ASSERT_TRUE(opened.ok());
  auto db = std::move(opened.value().db);

  ServerOptions opts;
  opts.platform = Borrow(&platform);
  opts.db = Borrow(db.get());
  opts.lightor = Borrow<const core::Lightor>(&lightor);
  opts.num_shards = 8;
  opts.num_workers = 2;
  opts.refine_batch_sessions = 4;
  opts.max_queue_depth = 32;
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok());
  HighlightServer& server = *created.value();

  const auto ids = platform.AllVideoIds();
  ASSERT_GE(ids.size(), 16u);

  std::atomic<uint64_t> next_session_id{0};
  std::atomic<uint64_t> events_logged{0};
  std::atomic<int> failures{0};

  auto client = [&](int thread_index) {
    sim::ViewerSimulator viewers;
    common::Rng rng(1000 + static_cast<uint64_t>(thread_index));
    // Per-video last-seen snapshot version; reads must never go back.
    std::unordered_map<std::string, uint64_t> last_version;
    for (int round = 0; round < kRoundsPerThread; ++round) {
      const auto& video_id =
          ids[static_cast<size_t>((thread_index + round * 3)) % ids.size()];
      const auto visit = server.OnPageVisit({video_id, "stress"});
      if (!visit.ok()) {
        ++failures;
        continue;
      }
      const auto video = platform.GetVideo(video_id);
      if (!video.ok()) {
        ++failures;
        continue;
      }

      // Snapshot consistency of the visit response.
      std::unordered_set<int32_t> indices;
      for (const auto& rec : visit.value().highlights) {
        if (rec.video_id != video_id) ++failures;
        if (!indices.insert(rec.dot_index).second) ++failures;
      }

      // Upload a few sessions around the published dots.
      for (const auto& rec : visit.value().highlights) {
        const auto session = viewers.SimulateSession(
            video.value().truth, rec.dot_position, rng,
            "t" + std::to_string(thread_index));
        LogSessionRequest log;
        log.video_id = video_id;
        log.user = session.user;
        log.session_id = 1 + next_session_id.fetch_add(1);
        log.events = session.events;
        if (server.LogSession(log).ok()) {
          events_logged.fetch_add(log.events.size());
        } else {
          ++failures;
        }
      }

      // Mixed read/refine traffic on top of the background workers.
      if (round % 3 == 2) {
        if (!server.Refine(video_id).ok()) ++failures;
      }
      const auto read = server.GetHighlights(video_id);
      if (!read.ok()) {
        ++failures;
        continue;
      }
      indices.clear();
      for (const auto& rec : read.value().highlights) {
        if (rec.video_id != video_id) ++failures;
        if (!indices.insert(rec.dot_index).second) ++failures;
      }
      uint64_t& seen = last_version[video_id];
      if (read.value().snapshot_version < seen) ++failures;
      seen = read.value().snapshot_version;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(client, t);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);

  // Drain everything that is still pending, then stop the workers.
  server.Shutdown();

  // No lost sessions: every accepted interaction event is in the store.
  EXPECT_EQ(db->interactions().TotalRecords(), events_logged.load());

  // Every visited video ends with a coherent persisted highlight set.
  for (const auto& video_id : ids) {
    const auto read = server.GetHighlights(video_id);
    if (!read.ok()) continue;  // never visited by any thread
    std::unordered_set<int32_t> indices;
    for (const auto& rec : read.value().highlights) {
      EXPECT_EQ(rec.video_id, video_id);
      EXPECT_TRUE(indices.insert(rec.dot_index).second);
    }
    EXPECT_EQ(db->highlights().GetLatest(video_id).size(),
              read.value().highlights.size());
  }

  std::filesystem::remove_all(dir);
}

/// Shutdown while clients are still sending: late requests are rejected
/// with FailedPrecondition, nothing crashes, and accepted sessions are
/// still never lost.
TEST(ServingStressTest, ShutdownRacesWithClients) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       "lightor_serving_stress_shutdown")
          .string();
  std::filesystem::remove_all(dir);

  sim::Platform::Options popts;
  popts.num_channels = 2;
  popts.videos_per_channel = 2;
  popts.seed = 91;
  const sim::Platform platform(popts);

  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 92);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::Lightor lightor;
  ASSERT_TRUE(lightor.TrainInitializer({tv}).ok());

  auto opened = storage::DB::Open(storage::OpenOptions(dir));
  ASSERT_TRUE(opened.ok());
  auto db = std::move(opened.value().db);

  ServerOptions opts;
  opts.platform = Borrow(&platform);
  opts.db = Borrow(db.get());
  opts.lightor = Borrow<const core::Lightor>(&lightor);
  opts.refine_batch_sessions = 2;
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok());
  HighlightServer& server = *created.value();

  const auto ids = platform.AllVideoIds();
  for (const auto& video_id : ids) {
    ASSERT_TRUE(server.OnPageVisit({video_id, "warm"}).ok());
  }

  std::atomic<uint64_t> events_accepted{0};
  std::atomic<bool> saw_rejection{false};
  auto client = [&](int thread_index) {
    sim::ViewerSimulator viewers;
    common::Rng rng(2000 + static_cast<uint64_t>(thread_index));
    for (int i = 0; i < 40; ++i) {
      const auto& video_id =
          ids[static_cast<size_t>(thread_index + i) % ids.size()];
      const auto video = platform.GetVideo(video_id).value();
      const auto dots = server.GetHighlights(video_id);
      if (!dots.ok() || dots.value().highlights.empty()) continue;
      const auto session = viewers.SimulateSession(
          video.truth, dots.value().highlights[0].dot_position, rng, "x");
      LogSessionRequest log;
      log.video_id = video_id;
      log.user = session.user;
      log.session_id = static_cast<uint64_t>(thread_index) * 1000 +
                       static_cast<uint64_t>(i) + 1;
      log.events = session.events;
      const auto status = server.LogSession(log);
      if (status.ok()) {
        events_accepted.fetch_add(log.events.size());
      } else if (status.IsFailedPrecondition()) {
        saw_rejection.store(true);
        break;  // server is shutting down; a real client would too
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(client, t);
  server.Shutdown();  // races with the clients above
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(db->interactions().TotalRecords(),
            events_accepted.load());
  (void)saw_rejection;  // timing-dependent; either outcome is valid

  std::filesystem::remove_all(dir);
}

/// Single-flight first visits: threads visit two cold videos on the one
/// shard at once. Each video is crawled, initialized and persisted
/// exactly once; the other visits wait for that snapshot and serve it.
TEST(ServingStressTest, ConcurrentFirstVisitsRunOnce) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       "lightor_serving_stress_first_visit")
          .string();
  std::filesystem::remove_all(dir);

  sim::Platform::Options popts;
  popts.num_channels = 1;
  popts.videos_per_channel = 2;
  popts.seed = 95;
  const sim::Platform platform(popts);

  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 96);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::Lightor lightor;
  ASSERT_TRUE(lightor.TrainInitializer({tv}).ok());

  auto opened = storage::DB::Open(storage::OpenOptions(dir));
  ASSERT_TRUE(opened.ok());
  auto db = std::move(opened.value().db);

  ServerOptions opts;
  opts.platform = Borrow(&platform);
  opts.db = Borrow(db.get());
  opts.lightor = Borrow<const core::Lightor>(&lightor);
  opts.num_shards = 1;  // both videos share the shard
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok());
  HighlightServer& server = *created.value();

  const auto ids = platform.AllVideoIds();
  ASSERT_EQ(ids.size(), 2u);
  auto* crawled = obs::Registry::Global().GetCounter(
      "lightor_storage_videos_crawled_total");
  const uint64_t crawled_before = crawled->value();

  // responses[v] collects every visit response for ids[v].
  std::vector<std::vector<PageVisitResponse>> responses(ids.size());
  std::mutex responses_mu;
  std::atomic<int> failures{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t i = 0; i < ids.size(); ++i) {
        const size_t v = (i + static_cast<size_t>(t)) % ids.size();
        auto visit = server.OnPageVisit({ids[v], "race"});
        if (!visit.ok()) {
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> lock(responses_mu);
        responses[v].push_back(std::move(visit).value());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_EQ(crawled->value() - crawled_before, ids.size());
  size_t chat_total = 0;
  for (size_t v = 0; v < ids.size(); ++v) {
    SCOPED_TRACE(ids[v]);
    ASSERT_EQ(responses[v].size(), static_cast<size_t>(kThreads));
    // Exactly one visit ran the Initializer; every visit served its
    // snapshot, version 1 (first_visit aside, the same response body).
    size_t initialized = 0;
    for (const auto& response : responses[v]) {
      if (response.first_visit) ++initialized;
      EXPECT_EQ(response.snapshot_version, 1u);
      EXPECT_FALSE(response.provisional);
      EXPECT_EQ(response.highlights, responses[v][0].highlights);
    }
    EXPECT_EQ(initialized, 1u);

    // Persisted once: top_k dots with one version each, and the full
    // crawl in the chat store.
    const auto dots = db->highlights().GetLatest(ids[v]);
    EXPECT_EQ(dots.size(), opts.top_k);
    EXPECT_EQ(dots, responses[v][0].highlights);
    for (const auto& dot : dots) {
      EXPECT_EQ(db->highlights().GetHistory(ids[v], dot.dot_index).size(),
                1u);
    }
    const size_t messages = platform.GetVideo(ids[v]).value().chat.size();
    EXPECT_EQ(db->chat().GetByVideo(ids[v]).size(), messages);
    chat_total += messages;
  }
  EXPECT_EQ(db->chat().TotalRecords(), chat_total);

  server.Shutdown();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lightor::serving
