/// Routed phase: the viewer phase's open-loop schedule sent through a
/// consistent-hash router over two backends — the only path with the
/// cluster hop.
#include <cstdio>

#include "net/client.h"
#include "net/codec.h"
#include "phases.h"

namespace lightor::e2e {

namespace {

constexpr size_t kLedgerPairs = 200;

/// Serial routed round trips, each paired with the same request sent
/// straight to the owning backend: the hop is the routed span's self time.
void RoutedLedger(RunContext& ctx, RoutedCluster& cluster,
                  ViewerTraffic& traffic) {
  SpanLog& spans = ctx.spans;
  net::HttpClient routed("127.0.0.1", cluster.port());
  std::vector<std::unique_ptr<net::HttpClient>> direct;
  for (auto& backend : cluster.backends()) {
    direct.push_back(
        std::make_unique<net::HttpClient>("127.0.0.1", backend->port()));
  }
  auto send = [&](net::HttpClient& client, const Request& req) {
    ctx.tally.Attempt();
    auto r = req.body.empty() ? client.Get(req.target)
                              : client.Post(req.target, req.body);
    if (!r.ok() || r.value().status != 200) {
      ctx.tally.OpFailed("routed ledger " + req.target);
    }
  };
  uint64_t request_id = 2ULL << 40;
  for (size_t i = 0; i < kLedgerPairs; ++i) {
    const uint32_t v = traffic.PickVideo();
    const std::string& id = traffic.ids()[v];
    size_t owner = 0;
    while (cluster.backends()[owner].get() != &cluster.OwnerOf(id)) ++owner;
    for (Op op : {Op::kVisit, Op::kHighlights, Op::kSession}) {
      const uint64_t rid = ++request_id;
      const Request hop = traffic.Make(op, v);
      const int64_t wire =
          spans.Time(std::string("cluster.routed.") + OpName(op),
                     SpanLog::kNone, rid, [&] { send(routed, hop); });
      // A session is sent once per id; the direct twin gets a fresh one.
      const Request same = op == Op::kSession ? traffic.Make(op, v) : hop;
      spans.Adopt(wire, spans.Time(std::string("cluster.direct.") + OpName(op),
                                   SpanLog::kNone, rid,
                                   [&] { send(*direct[owner], same); }));
    }
  }
  for (Op op : {Op::kVisit, Op::kHighlights, Op::kSession}) {
    ctx.LayerFromSpans(std::string("cluster.hop_us.") + OpName(op),
                       std::string("cluster.routed.") + OpName(op), "us");
  }
}

}  // namespace

void RunRoutedPhase(RunContext& ctx) {
  World& world = *ctx.world;
  auto warmed = SetUp<Warmed<RoutedCluster>>(ctx, [&] {
    auto w = std::make_unique<Warmed<RoutedCluster>>();
    w->stack = RoutedCluster::Start(world, ctx.Dir("routed"));
    w->dots = WarmViewerVideos(world, w->stack->port());
    return w;
  });
  RoutedCluster& cluster = *warmed->stack;
  // The viewer phase's generator seed: the same schedule, routed.
  ViewerTraffic traffic(world, ctx.regime, warmed->dots, ctx.seed * 31 + 1);
  const auto schedule = traffic.OpenSchedule(kViewerRate, 0.15 * ctx.seconds);

  const uint16_t scrape_port = cluster.backends()[0]->port();
  const std::string before = ctx.trace ? ScrapeMetrics(scrape_port) : "";
  VersionWatch watch(ctx.tally, world.viewer_ids);
  const LoopResult open = RunOpenLoop(cluster.port(), schedule, ctx.tally,
                                      ctx.spans, watch.Hook());
  NoteLateness(ctx, "routed", open);
  std::fprintf(stderr, "routed: %zu open-loop requests\n", open.completed);
  if (ctx.trace) {
    // In-process servers share one registry, so any backend's scrape
    // holds the router's counters too.
    const std::string after = ScrapeMetrics(scrape_port);
    ctx.layer["cluster.retries"] = {
        CounterSum(after, "lightor_cluster_retries_total") -
            CounterSum(before, "lightor_cluster_retries_total"),
        "count"};
    ctx.layer["tail.routed_p99_ms"] = {Quantile(open.all_ms, 0.99), "ms"};
  } else {
    ctx.e2e["routed_p50_ms"] = {Quantile(open.all_ms, 0.50), "ms"};
  }

  for (auto& backend : cluster.backends()) backend->server().Flush();
  CheckFinalHighlights(ctx, cluster.port(), world.viewer_ids,
                       [&](const std::string& id) -> serving::HighlightServer& {
                         return cluster.OwnerOf(id).server();
                       });
  if (ctx.trace) RoutedLedger(ctx, cluster, traffic);
}

}  // namespace lightor::e2e
