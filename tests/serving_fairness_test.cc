/// Fair-share live ingest: per-channel token-bucket admission (429 +
/// Retry-After semantics), deficit-round-robin draining that keeps cold
/// channels fresh under a hot channel's 100x spike, publish deadlines
/// that the drain workers keep however busy or quiet the channels are,
/// and the no-ack-drop guarantee — a throttled batch leaves no trace, so
/// the finalized stream equals a reference fed exactly the acked batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/channel_scheduler.h"
#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/platform.h"
#include "storage/database.h"

namespace lightor::serving {
namespace {

std::vector<core::Message> MakeMessages(size_t count, double start_ts) {
  std::vector<core::Message> messages;
  messages.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    core::Message msg;
    msg.timestamp = start_ts + static_cast<double>(i);
    msg.user = "viewer" + std::to_string(i % 7);
    msg.text = i % 3 == 0 ? "what a goal gg" : "lol nice play";
    messages.push_back(std::move(msg));
  }
  return messages;
}

// ---------------------------------------------------------------------
// ChannelScheduler unit tests (fixed injectable clock). The admission
// cases offer no messages, so nothing is queued and nothing drains.

void NoDrain(const std::string&, std::vector<ChannelScheduler::Batch>) {}

TEST(ChannelSchedulerTest, RetryAfterComesFromBucketRefillTime) {
  double now = 0.0;
  ChannelScheduler::Options opts;
  opts.num_workers = 0;
  opts.rate_messages_per_sec = 10.0;
  opts.burst_messages = 20.0;
  opts.clock = [&now] { return now; };
  auto sched = ChannelScheduler::Create(opts, NoDrain);
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  // The bucket starts full: exactly `burst` messages are admitted.
  auto a = sched.value()->Offer("ch", {}, 20);
  EXPECT_TRUE(a.admitted);
  EXPECT_EQ(a.retry_after_seconds, 0.0);

  // Empty bucket: 5 messages need 5/rate = 0.5 s of refill.
  a = sched.value()->Offer("ch", {}, 5);
  EXPECT_FALSE(a.admitted);
  EXPECT_FALSE(a.closed);
  EXPECT_NEAR(a.retry_after_seconds, 0.5, 1e-9);

  // Advancing the clock by exactly the advertised delay admits it —
  // Retry-After is never an under-estimate.
  now = 0.5;
  a = sched.value()->Offer("ch", {}, 5);
  EXPECT_TRUE(a.admitted);

  // Budgets are per-channel: a different channel is untouched.
  EXPECT_TRUE(sched.value()->Offer("other", {}, 20).admitted);
}

TEST(ChannelSchedulerTest, ZeroRateDisablesAdmissionControl) {
  ChannelScheduler::Options opts;
  opts.num_workers = 0;
  opts.rate_messages_per_sec = 0.0;
  auto sched = ChannelScheduler::Create(opts, NoDrain);
  ASSERT_TRUE(sched.ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(sched.value()->Offer("ch", {}, 100000).admitted);
  }
}

TEST(ChannelSchedulerTest, ClosedChannelRefusesOffersUntilReopened) {
  ChannelScheduler::Options opts;
  opts.num_workers = 0;
  auto sched = ChannelScheduler::Create(opts, NoDrain);
  ASSERT_TRUE(sched.ok());
  EXPECT_TRUE(sched.value()->Offer("ch", {}, 1).admitted);
  sched.value()->CloseChannel("ch");
  auto a = sched.value()->Offer("ch", {}, 1);
  EXPECT_FALSE(a.admitted);
  EXPECT_TRUE(a.closed);
  sched.value()->ReopenChannel("ch");
  EXPECT_TRUE(sched.value()->Offer("ch", {}, 1).admitted);
}

TEST(ChannelSchedulerTest, ZeroWorkersOfferDrainsBeforeReturning) {
  size_t by_drain_fn = 0;
  ChannelScheduler::Options opts;
  opts.num_workers = 0;
  opts.max_queue_messages = 4;
  opts.quantum_messages = 2;
  auto sched = ChannelScheduler::Create(
      opts, [&](const std::string&, std::vector<ChannelScheduler::Batch> b) {
        for (const auto& batch : b) by_drain_fn += batch.messages.size();
      });
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  // Without a drain of its own the caller runs the DrainFn; a batch
  // above the queue cap and the quantum is admitted and drained whole.
  ASSERT_TRUE(sched.value()->Offer("ch", MakeMessages(9, 0.0), 9).admitted);
  EXPECT_EQ(by_drain_fn, 9u);

  // A caller's own drain replaces the DrainFn.
  size_t by_caller = 0;
  ASSERT_TRUE(sched.value()
                  ->Offer("ch", MakeMessages(3, 9.0), 3,
                          [&](const std::string& id,
                              std::vector<ChannelScheduler::Batch> b) {
                            EXPECT_EQ(id, "ch");
                            ASSERT_EQ(b.size(), 1u);
                            by_caller += b[0].messages.size();
                          })
                  .admitted);
  EXPECT_EQ(by_caller, 3u);
  EXPECT_EQ(by_drain_fn, 9u);

  const auto snap = sched.value()->Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].queued_messages, 0u);
  EXPECT_EQ(snap[0].admitted_messages, 12u);
}

TEST(ChannelSchedulerTest, DeficitRoundRobinServesColdAheadOfHotBacklog) {
  // Gate the drain callback so the whole offered load is queued before
  // any draining happens — the recorded drain order is then a pure
  // function of the DRR policy, not of offer/drain races.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::string> order;

  ChannelScheduler::Options opts;
  opts.num_workers = 1;
  opts.quantum_messages = 8;
  opts.max_queue_messages = 100000;
  auto sched = ChannelScheduler::Create(
      opts, [&](const std::string& id, std::vector<ChannelScheduler::Batch>) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
        order.push_back(id);
      });
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  // Hot backlog: 50 batches x 4 messages, far past the quantum. Cold:
  // one 4-message batch each.
  for (int b = 0; b < 50; ++b) {
    ASSERT_TRUE(sched.value()
                    ->Offer("hot", MakeMessages(4, b * 4.0), 4)
                    .admitted);
  }
  const int kCold = 8;
  for (int c = 0; c < kCold; ++c) {
    ASSERT_TRUE(sched.value()
                    ->Offer("cold-" + std::to_string(c), MakeMessages(4, 0.0),
                            4)
                    .admitted);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  sched.value()->FlushAll();

  // Every cold channel must be served before the hot backlog finishes:
  // DRR bounds a cold channel's wait by (active channels x quantum),
  // independent of the hot queue depth.
  size_t hot_last = 0;
  size_t hot_visits = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == "hot") {
      hot_last = i;
      ++hot_visits;
    }
  }
  ASSERT_GE(hot_visits, 10u) << "quantum should split the hot backlog";
  for (int c = 0; c < kCold; ++c) {
    const auto it = std::find(order.begin(), order.end(),
                              "cold-" + std::to_string(c));
    ASSERT_NE(it, order.end());
    const size_t pos = static_cast<size_t>(it - order.begin());
    EXPECT_LT(pos, hot_last)
        << "cold-" << c << " waited behind the whole hot backlog";
    // The cold visit must land within the first few DRR rounds, not
    // merely before the very last hot visit.
    EXPECT_LT(pos, static_cast<size_t>(2 * kCold + 8));
  }
}

// ---------------------------------------------------------------------
// Server-level tests.

class ServingFairnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("lightor_fairness_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_ref");

    sim::Platform::Options popts;
    popts.num_channels = 2;
    popts.videos_per_channel = 2;
    popts.seed = 91;
    platform_ = std::make_unique<sim::Platform>(popts);

    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 92);
    core::TrainingVideo tv;
    tv.messages = sim::ToCoreMessages(corpus[0].chat);
    tv.video_length = corpus[0].truth.meta.length;
    for (const auto& h : corpus[0].truth.highlights) {
      tv.highlights.push_back(h.span);
    }
    lightor_ = std::make_unique<core::Lightor>();
    ASSERT_TRUE(lightor_->TrainInitializer({tv}).ok());
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
    opts.refine_batch_sessions = 0;
    return opts;
  }

  /// An injected ingest clock; the drain workers read it on their own
  /// threads, while they sleep in real time.
  std::function<double()> FakeClock() {
    return [this] { return fake_now_.load(); };
  }
  void Advance(double seconds) { fake_now_.store(fake_now_.load() + seconds); }

  static ChannelScheduler::ChannelSnapshot ChannelOf(
      const HighlightServer& server, const std::string& video_id) {
    for (auto& ch : server.ChannelsSnapshot()) {
      if (ch.video_id == video_id) return ch;
    }
    return {};
  }

  static void Ingest(HighlightServer& server, const std::string& video_id,
                     std::vector<core::Message> messages) {
    IngestChatRequest req;
    req.video_id = video_id;
    req.messages = std::move(messages);
    const size_t count = req.messages.size();
    auto resp = server.IngestChat(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.value().accepted, count);
  }

  /// Waits (real time) until a worker took the channel's queue, plus a
  /// margin for the drain itself. A drain that lands later only weakens
  /// a test (it may publish on its own), never fails it.
  static void AwaitDrained(const HighlightServer& server,
                           const std::string& video_id) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (ChannelOf(server, video_id).queued_messages > 0 &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  /// Keeps the "hot" channel backlogged, so a single drain worker never
  /// goes idle, until `done()` holds or `seconds` of real time pass.
  /// Returns `done()`.
  bool UnderHotLoad(HighlightServer& server, const std::function<bool()>& done,
                    double seconds) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    for (;;) {
      if (done()) return true;
      if (std::chrono::steady_clock::now() >= until) return false;
      IngestChatRequest req;
      req.video_id = "hot";
      req.messages = MakeMessages(kHotBatch, hot_ts_);
      auto resp = server.IngestChat(req);
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      hot_ts_ += static_cast<double>(kHotBatch);
    }
  }

  /// Exact binary fractions, so the deadline sums carry no rounding.
  static constexpr double kBound = 0.0625;
  static constexpr double kStep = 0.015625;
  static constexpr size_t kHotBatch = 256;

  std::string dir_;
  std::unique_ptr<sim::Platform> platform_;
  std::unique_ptr<core::Lightor> lightor_;
  std::atomic<double> fake_now_{128.0};
  double hot_ts_ = 0.0;
};

TEST_F(ServingFairnessTest, ColdChannelStalenessBoundedUnderHotSpike) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.ingest_workers = 2;
  opts.ingest_quantum_messages = 64;
  opts.ingest_queue_messages = 200000;
  opts.stream_refresh_messages = 16;
  opts.stream_publish_max_delay_seconds = 0.05;
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Hot channel first: a backlog ~100x a cold channel's batch. Then N
  // cold channels, one batch each — they arrive while the hot backlog
  // is still queued and must not wait behind it.
  const int kCold = 16;
  const size_t kColdBatch = 32;
  for (int b = 0; b < 100; ++b) {
    IngestChatRequest req;
    req.video_id = "hot";
    req.messages = MakeMessages(kColdBatch, b * 1000.0);
    auto resp = server.value()->IngestChat(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_FALSE(resp.value().throttled);
  }
  for (int c = 0; c < kCold; ++c) {
    IngestChatRequest req;
    req.video_id = "cold-" + std::to_string(c);
    req.messages = MakeMessages(kColdBatch, 0.0);
    auto resp = server.value()->IngestChat(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_FALSE(resp.value().throttled);
    ASSERT_EQ(resp.value().accepted, kColdBatch);
  }
  server.value()->FlushIngest();

  // Every cold channel published a provisional snapshot and its worst
  // enqueue->publish staleness stayed under a generous wall-clock bound
  // (the whole offered load drains in well under a second; the bound
  // only has to catch "cold channel starved behind hot").
  const auto channels = server.value()->ChannelsSnapshot();
  int cold_seen = 0;
  for (const auto& ch : channels) {
    if (ch.video_id.rfind("cold-", 0) != 0) continue;
    ++cold_seen;
    EXPECT_EQ(ch.queued_messages, 0u) << ch.video_id;
    EXPECT_EQ(ch.admitted_messages, kColdBatch) << ch.video_id;
    EXPECT_GE(ch.publishes, 1u) << ch.video_id;
    EXPECT_LT(ch.max_staleness_seconds, 3.0) << ch.video_id;
  }
  EXPECT_EQ(cold_seen, kCold);
  server.value()->Shutdown();
}

// A cold channel's one sub-threshold batch is published by its deadline
// while a hot channel keeps the only drain worker busy: the worker checks
// the deadline heap before every DRR visit instead of waiting for a lull.
TEST_F(ServingFairnessTest, DeadlinePublishesColdChannelUnderHotLoad) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.ingest_workers = 1;
  opts.ingest_queue_messages = 4096;
  opts.stream_refresh_messages = 1 << 20;  // no threshold publishes
  opts.stream_publish_max_delay_seconds = kBound;
  opts.ingest_clock = FakeClock();
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  HighlightServer& server = *created.value();

  const double t0 = fake_now_.load();
  Ingest(server, "cold", MakeMessages(8, 0.0));
  AwaitDrained(server, "cold");
  // The clock crosses the cold deadline in steps, one hot batch per
  // step, then holds while the hot channel stays backlogged.
  while (fake_now_.load() < t0 + kBound) {
    Advance(kStep);
    Ingest(server, "hot", MakeMessages(kHotBatch, hot_ts_));
    hot_ts_ += static_cast<double>(kHotBatch);
  }
  ASSERT_TRUE(UnderHotLoad(
      server, [&] { return ChannelOf(server, "cold").publishes > 0; }, 5.0))
      << "the cold channel waited for the hot channel to go idle";
  const auto cold = ChannelOf(server, "cold");
  EXPECT_EQ(cold.publishes, 1u);
  EXPECT_GE(cold.max_staleness_seconds, kBound);
  EXPECT_LE(cold.max_staleness_seconds, kBound + kStep);
  server.Shutdown();
}

// A channel that goes quiet after one sub-threshold batch is published on
// the real clock with no further traffic at all: an idle worker sleeps
// until the deadline.
TEST_F(ServingFairnessTest, DeadlinePublishesQuietChannelOnSteadyClock) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.ingest_workers = 1;
  opts.stream_publish_max_delay_seconds = 0.05;
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  HighlightServer& server = *created.value();

  Ingest(server, "quiet", MakeMessages(8, 0.0));
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ChannelOf(server, "quiet").publishes == 0 &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto quiet = ChannelOf(server, "quiet");
  EXPECT_EQ(quiet.publishes, 1u);
  // `now >= oldest + bound` may round a hair under `now - oldest`.
  EXPECT_GE(quiet.max_staleness_seconds, 0.05 - 1e-9);
  EXPECT_LT(quiet.max_staleness_seconds, 1.0);  // room for sanitizers
  server.Shutdown();
}

// A channel that reaches the refresh threshold before its deadline
// publishes once: the superseded heap entry is skipped when it surfaces,
// and messages that arrive after the publish get a deadline of their own.
TEST_F(ServingFairnessTest, ThresholdPublishBeforeDeadlinePublishesOnce) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.ingest_workers = 1;
  opts.ingest_queue_messages = 4096;
  opts.stream_refresh_messages = 64;
  opts.stream_publish_max_delay_seconds = kBound;
  opts.ingest_clock = FakeClock();
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  HighlightServer& server = *created.value();
  const auto publishes = [&] { return ChannelOf(server, "ch").publishes; };

  // 10 messages arm the deadline t0 + bound; 54 more reach the threshold
  // one step later and publish.
  const double t0 = fake_now_.load();
  Ingest(server, "ch", MakeMessages(10, 0.0));
  AwaitDrained(server, "ch");
  Advance(kStep);
  Ingest(server, "ch", MakeMessages(54, 10.0));
  ASSERT_TRUE(UnderHotLoad(server, [&] { return publishes() >= 1; }, 5.0));
  EXPECT_EQ(ChannelOf(server, "ch").last_staleness_seconds, kStep);

  // New messages at t1 arm t1 + bound. Past the superseded t0 + bound
  // but before t1 + bound, nothing publishes...
  Advance(kStep);
  const double t1 = fake_now_.load();
  Ingest(server, "ch", MakeMessages(10, 64.0));
  AwaitDrained(server, "ch");
  Advance(t0 + kBound + kStep - fake_now_.load());
  ASSERT_LT(fake_now_.load(), t1 + kBound);
  EXPECT_FALSE(UnderHotLoad(server, [&] { return publishes() > 1; }, 0.2));
  EXPECT_EQ(publishes(), 1u);

  // ... and at t1 + bound the fresh deadline publishes them.
  Advance(t1 + kBound - fake_now_.load());
  ASSERT_TRUE(UnderHotLoad(server, [&] { return publishes() > 1; }, 5.0))
      << "the second deadline was not kept under hot load";
  const auto ch = ChannelOf(server, "ch");
  EXPECT_EQ(ch.publishes, 2u);
  EXPECT_EQ(ch.last_staleness_seconds, kBound);
  server.Shutdown();
}

TEST_F(ServingFairnessTest, ThrottleNeverDropsAckedMessages) {
  // Fixed clock: the bucket never refills, so with burst=100 and
  // 20-message batches exactly the first 5 batches are acked and every
  // later batch is throttled — deterministically.
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.ingest_workers = 1;
  opts.ingest_rate_messages_per_sec = 50.0;
  opts.ingest_burst_messages = 100.0;
  opts.ingest_clock = [] { return 0.0; };
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::string video_id = "live-throttle";
  std::vector<IngestChatRequest> acked;
  size_t throttles = 0;
  for (int b = 0; b < 12; ++b) {
    IngestChatRequest req;
    req.video_id = video_id;
    req.messages = MakeMessages(20, b * 20.0);
    auto resp = server.value()->IngestChat(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp.value().throttled) {
      ++throttles;
      // Refused whole: nothing ingested, nothing queued, and the retry
      // delay names the bucket's refill time for this batch size.
      EXPECT_EQ(resp.value().accepted, 0u);
      EXPECT_EQ(resp.value().rejected, 0u);
      EXPECT_NEAR(resp.value().retry_after_seconds, 20.0 / 50.0, 1e-9);
    } else {
      EXPECT_EQ(resp.value().accepted, 20u);
      acked.push_back(std::move(req));
    }
  }
  EXPECT_EQ(acked.size(), 5u);
  EXPECT_EQ(throttles, 7u);

  FinalizeStreamRequest fin;
  fin.video_id = video_id;
  fin.video_length = 600.0;
  auto finalized = server.value()->FinalizeStream(fin);
  ASSERT_TRUE(finalized.ok()) << finalized.status().ToString();
  server.value()->Shutdown();

  // Reference: a zero-worker server fed exactly the acked batches
  // must finalize to the identical highlight set — i.e. the throttled
  // batches left no trace and the acked ones all landed.
  auto ref_db = OpenDb(dir_ + "_ref");
  ServerOptions ref_opts = BaseOptions(ref_db.get());
  auto reference = HighlightServer::Create(ref_opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const auto& req : acked) {
    auto resp = reference.value()->IngestChat(req);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp.value().accepted, 20u);
  }
  auto ref_finalized = reference.value()->FinalizeStream(fin);
  ASSERT_TRUE(ref_finalized.ok()) << ref_finalized.status().ToString();
  reference.value()->Shutdown();

  EXPECT_EQ(finalized.value().video_length, ref_finalized.value().video_length);
  ASSERT_EQ(finalized.value().highlights.size(),
            ref_finalized.value().highlights.size());
  for (size_t i = 0; i < finalized.value().highlights.size(); ++i) {
    EXPECT_EQ(finalized.value().highlights[i],
              ref_finalized.value().highlights[i])
        << "highlight " << i;
  }
}

TEST_F(ServingFairnessTest, FinalizeClosesTheChannel) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.ingest_workers = 1;
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  IngestChatRequest req;
  req.video_id = "live-close";
  req.messages = MakeMessages(10, 0.0);
  ASSERT_TRUE(server.value()->IngestChat(req).ok());
  FinalizeStreamRequest fin;
  fin.video_id = "live-close";
  fin.video_length = 300.0;
  ASSERT_TRUE(server.value()->FinalizeStream(fin).ok());

  // Post-finalize ingest is a conflict, not a silent drop.
  req.messages = MakeMessages(10, 100.0);
  auto resp = server.value()->IngestChat(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), common::StatusCode::kFailedPrecondition);
  server.value()->Shutdown();
}

TEST_F(ServingFairnessTest, FailedFinalizeReopensTheChannel) {
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.ingest_workers = 1;
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Finalizing a video with no active stream fails — and must not leave
  // the channel closed, or the id could never stream afterwards.
  FinalizeStreamRequest fin;
  fin.video_id = "never-streamed";
  ASSERT_FALSE(server.value()->FinalizeStream(fin).ok());

  IngestChatRequest req;
  req.video_id = "never-streamed";
  req.messages = MakeMessages(5, 0.0);
  auto resp = server.value()->IngestChat(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().accepted, 5u);
  server.value()->Shutdown();
}

}  // namespace
}  // namespace lightor::serving
