/// Backfill phase: the paper's core job. Never-visited recorded videos are
/// each visited once (crawl → Initializer → persist → red dots) by a
/// closed loop of kConnections connections. A round visits every cold
/// video on a fresh server; rounds repeat until the phase's time is spent,
/// and only time inside rounds is counted.
#include <cstdio>
#include <thread>

#include "net/codec.h"
#include "phases.h"
#include "sim/bridge.h"
#include "storage/crawler.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace lightor::e2e {

namespace {

/// Cold videos put through the traced ledger, and through each side of
/// the 1-vs-nproc scaling probe.
constexpr size_t kLedgerVideos = 40;
constexpr size_t kScalingVideos = 48;

std::string FirstVisitBody(const core::Lightor& lightor, const World& world,
                           const std::string& id) {
  const auto video = Must(world.platform->GetVideo(id), id);
  const auto dots = Must(lightor.Initialize(sim::ToCoreMessages(video.chat),
                                            video.truth.meta.length, 5),
                         "reference Initialize " + id);
  serving::PageVisitResponse expected;
  expected.highlights = RecordsFromDots(lightor, id, dots);
  expected.first_visit = true;
  expected.snapshot_version = 1;
  return net::EncodeJson(expected);
}

/// In-process first visits of `ids` on a fresh server with `threads`
/// threads; returns videos per second.
double FirstVisitRate(RunContext& ctx, const std::vector<std::string>& ids,
                      size_t threads, const std::string& dir) {
  auto server = Backend::Start(*ctx.world, dir, {}, /*with_http=*/false);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < ids.size();) {
        Must(server->server().OnPageVisit({ids[i], "scaling"}), "first visit");
      }
    });
  }
  for (auto& thread : pool) thread.join();
  return static_cast<double>(ids.size()) / SecondsSince(start);
}

void BackfillLedger(RunContext& ctx) {
  World& world = *ctx.world;
  SpanLog& spans = ctx.spans;
  const core::HighlightInitializer& init = world.lightor->initializer();
  const text::Tokenizer tokenizer(init.featurizer().tokenizer_options());
  auto twin = Backend::Start(world, ctx.Dir("backfill-twin"), {}, false);
  auto crawl_db = Must(storage::DB::Open(storage::OpenOptions(
                           ctx.Dir("backfill-crawl"))),
                       "scratch db");
  storage::Crawler crawler(world.platform.get(), crawl_db.db.get());
  double tokenize_ns = 0.0;
  size_t tokenized = 0;
  for (size_t v = 0; v < kLedgerVideos; ++v) {
    const std::string& id = world.cold_ids[v];
    const auto video = Must(world.platform->GetVideo(id), id);
    const auto messages = sim::ToCoreMessages(video.chat);
    const double length = video.truth.meta.length;

    const int64_t crawl = spans.Time("storage.ensure_chat", SpanLog::kNone, v,
                                     [&] { Must(crawler.EnsureChat(id), id); });
    const int64_t initialize =
        spans.Time("core.initialize", SpanLog::kNone, v, [&] {
          (void)world.lightor->Initialize(messages, length, 5);
        });
    const int64_t visit = spans.Time("serving.first_visit", SpanLog::kNone, v,
                                     [&] {
      Must(twin->server().OnPageVisit({id, "ledger"}), "twin first visit");
    });
    spans.Adopt(visit, crawl);
    spans.Adopt(visit, initialize);

    // The batch pipeline's stages over the same chat. Initialize replays
    // the streaming engine, so these are not its children.
    std::vector<core::SlidingWindow> scored;
    const int64_t score = spans.Time("core.score_windows", SpanLog::kNone, v,
                                     [&] { scored = init.ScoreWindows(messages, length); });
    const auto windows =
        core::GenerateWindows(messages, length, init.options().window);
    spans.Adopt(score, spans.Time("core.featurize", SpanLog::kNone, v, [&] {
      (void)init.featurizer().ComputeAll(messages, windows);
    }));
    spans.Time("core.topk", SpanLog::kNone, v,
               [&] { (void)init.TopKWindows(scored, 5); });
    text::Vocabulary vocabulary;
    std::vector<uint32_t> ids;
    const Clock::time_point start = Clock::now();
    for (const auto& m : messages) {
      ids.clear();
      tokenizer.TokenizeToIds(m.text, vocabulary, ids);
    }
    tokenize_ns += MsBetween(start, Clock::now()) * 1e6;
    tokenized += messages.size();
  }
  std::vector<std::string> probe(world.cold_ids.begin() + kLedgerVideos,
                                 world.cold_ids.begin() + kLedgerVideos +
                                     kScalingVideos);
  const double serial = FirstVisitRate(ctx, probe, 1, ctx.Dir("scale1"));
  const double parallel =
      FirstVisitRate(ctx, probe, kConnections, ctx.Dir("scaleN"));

  ctx.LayerFromSpans("serving.first_visit_ms", "serving.first_visit", "ms",
                     1e-3);
  ctx.LayerFromSpans("storage.ensure_chat_ms", "storage.ensure_chat", "ms",
                     1e-3);
  ctx.LayerFromSpans("core.initialize_ms", "core.initialize", "ms", 1e-3);
  ctx.LayerFromSpans("core.score_windows_ms", "core.score_windows", "ms",
                     1e-3);
  ctx.LayerFromSpans("core.featurize_ms", "core.featurize", "ms", 1e-3);
  ctx.LayerFromSpans("core.topk_us", "core.topk", "us");
  ctx.layer["text.tokenize_ns_per_msg"] = {tokenize_ns / tokenized, "ns"};
  ctx.layer["serving.first_visit_scaling"] = {parallel / serial, "x"};
}

}  // namespace

void RunBackfillPhase(RunContext& ctx) {
  World& world = *ctx.world;
  common::Rng rng = ctx.RngFor(2);
  std::vector<uint32_t> order(world.cold_ids.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;

  const double budget = 0.25 * ctx.seconds;
  double inside = 0.0;
  size_t visited = 0;
  std::vector<double> round_rates;  ///< first visits/s of each round
  std::vector<double> first_visit_ms;
  // bodies[key] holds every body served for that video across rounds.
  std::vector<std::vector<std::string>> bodies(world.cold_ids.size());
  std::mutex bodies_mu;
  for (int round = 0; inside < budget; ++round) {
    auto backend =
        round == 0
            ? SetUp<Backend>(ctx, [&] { return Backend::Start(world, ctx.Dir("backfill")); })
            : Backend::Start(world, ctx.Dir("backfill"));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    std::vector<Request> visits;
    for (uint32_t key : order) {
      serving::PageVisitRequest req;
      req.video_id = world.cold_ids[key];
      req.user = "backfill";
      visits.push_back({0.0, Op::kFirstVisit, "/visit", net::EncodeJson(req), key});
    }
    const LoopResult result = RunSharedClosedLoop(
        backend->port(), visits, kConnections, budget - inside, ctx.tally,
        ctx.spans,
        [&](size_t, const Request& req, const net::HttpResponse& response) {
          std::lock_guard<std::mutex> lock(bodies_mu);
          bodies[req.key].push_back(response.body);
          return std::string();
        });
    inside += result.elapsed_s;
    visited += result.completed;
    round_rates.push_back(result.completed / result.elapsed_s);
    const auto& ms = result.of(Op::kFirstVisit);
    first_visit_ms.insert(first_visit_ms.end(), ms.begin(), ms.end());
  }
  std::fprintf(stderr,
               "backfill: %zu first visits in %.2f s, p50 %.3f p99 %.3f ms\n",
               visited, inside, Quantile(first_visit_ms, 0.5),
               Quantile(first_visit_ms, 0.99));
  if (!ctx.trace) {
    ctx.e2e["backfill_videos_per_s"] = {Median(round_rates), "videos/s"};
    ctx.e2e["first_visit_p50_ms"] = {Quantile(first_visit_ms, 0.50), "ms"};
  } else {
    ctx.layer["tail.first_visit_p99_ms"] = {Quantile(first_visit_ms, 0.99),
                                            "ms"};
  }

  // Every first-visit body equals the encoded dots of an in-process
  // Initialize over the same chat.
  ParallelFor(bodies.size(), kConnections, [&](size_t key) {
    if (bodies[key].empty()) return;
    const std::string expected =
        FirstVisitBody(*world.lightor, world, world.cold_ids[key]);
    for (const std::string& body : bodies[key]) {
      if (body != expected) {
        ctx.tally.CheckFailed("first visit of " + world.cold_ids[key] +
                              " differs from in-process Initialize");
      }
    }
  });
  if (ctx.trace) BackfillLedger(ctx);
}

}  // namespace lightor::e2e
