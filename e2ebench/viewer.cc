/// Viewer phase: a deployed extension's steady state. Dot pollers, page
/// visits on warm videos, interaction uploads and rare explicit refines,
/// first as an open loop at a fixed rate, then as a closed loop that
/// measures capacity.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/client.h"
#include "net/codec.h"
#include "net/http.h"
#include "phases.h"
#include "serving/refine.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"

namespace lightor::e2e {

namespace {

/// Checkpoints run on the timer trigger, every this many seconds while
/// records are written, so they run during both loops. A session-count
/// trigger would tie the checkpoint rate to throughput: the capacity loop
/// then mostly measured checkpoints and swung by a third between runs.
constexpr double kCheckpointIntervalSeconds = 2.0;
/// The capacity loop runs as this many slices of one checkpoint period
/// each; the median is reported.
constexpr size_t kCapacitySlices = 5;
/// Serial request pairs per op in the traced ledger.
constexpr size_t kLedgerPairs = 200;
/// Videos refined explicitly in the traced ledger, and sessions each.
constexpr size_t kLedgerRefineVideos = 40;
constexpr size_t kLedgerSessionsPerVideo = 8;

std::string VisitBody(const std::string& id, const std::string& user) {
  serving::PageVisitRequest req;
  req.video_id = id;
  req.user = user;
  return net::EncodeJson(req);
}

/// The raw bytes an HttpClient puts on the wire for a request, for timing
/// the parser in isolation.
std::string WireBytes(const Request& req) {
  std::string out = req.body.empty() ? "GET " : "POST ";
  out += req.target + " HTTP/1.1\r\nhost: 127.0.0.1\r\n";
  if (!req.body.empty()) {
    out += "content-type: application/json\r\ncontent-length: " +
           std::to_string(req.body.size()) + "\r\n";
  }
  out += "\r\n" + req.body;
  return out;
}

}  // namespace

void RunContext::LayerFromSpans(const std::string& metric,
                                const std::string& span,
                                const std::string& unit, double scale) {
  layer[metric] = {Median(spans.SelfUs(span)) * scale, unit};
}

namespace {

/// Per-op p50/p99 of a loop, on stderr.
void PrintLatencies(const std::string& phase, const LoopResult& result) {
  std::fprintf(stderr, "%s:", phase.c_str());
  for (size_t op = 0; op < kNumOps; ++op) {
    if (result.ms[op].empty()) continue;
    std::fprintf(stderr, " %s n=%zu p50=%.3f p99=%.3f ms;",
                 OpName(static_cast<Op>(op)), result.ms[op].size(),
                 Quantile(result.ms[op], 0.5), Quantile(result.ms[op], 0.99));
  }
  std::fprintf(stderr, " all p99=%.3f ms\n", Quantile(result.all_ms, 0.99));
}

}  // namespace

void NoteLateness(RunContext& ctx, const std::string& phase,
                  const LoopResult& result) {
  PrintLatencies(phase, result);
  const double p99 = Quantile(result.late_ms, 0.99);
  std::fprintf(stderr,
               "%s: generator late p50 %.3f ms p99 %.3f ms max %.3f ms%s\n",
               phase.c_str(), Quantile(result.late_ms, 0.5), p99,
               Quantile(result.late_ms, 1.0),
               result.fell_behind ? " (FELL BEHIND)" : "");
  ctx.layer["loadgen.late_p99_ms." + phase] = {p99, "ms"};
  if (result.fell_behind) ctx.invalid = true;
}

uint64_t SnapshotVersionOf(const std::string& body) {
  static constexpr char kKey[] = "\"snapshot_version\":";
  const size_t at = body.find(kKey);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + std::strlen(kKey), nullptr, 10);
}

std::vector<std::vector<double>> WarmViewerVideos(const World& world,
                                                  uint16_t port) {
  std::vector<Request> visits;
  for (uint32_t v = 0; v < world.viewer_ids.size(); ++v) {
    visits.push_back({0.0, Op::kFirstVisit, "/visit",
                      VisitBody(world.viewer_ids[v], "warmup"), v});
  }
  std::vector<std::vector<double>> dots(visits.size());
  Tally tally;
  SpanLog off(false);
  RunSharedClosedLoop(
      port, visits, kConnections, 1e9, tally, off,
      [&](size_t, const Request& req, const net::HttpResponse& response) {
        auto decoded = net::DecodePageVisitResponse(response.body);
        if (!decoded.ok()) return decoded.status().ToString();
        for (const auto& rec : decoded.value().highlights) {
          dots[req.key].push_back(rec.dot_position);
        }
        return std::string();
      });
  if (tally.failed() != 0) Die("warm-up visits failed: " + tally.problems()[0]);
  for (size_t v = 0; v < dots.size(); ++v) {
    if (dots[v].empty()) Die("warm-up served no dots for " + world.viewer_ids[v]);
  }
  return dots;
}

ViewerTraffic::ViewerTraffic(const World& world, const Regime& regime,
                             std::vector<std::vector<double>> dots,
                             uint64_t seed)
    : regime_(regime),
      ids_(&world.viewer_ids),
      dots_(std::move(dots)),
      rng_(seed),
      next_session_(seed << 24) {
  for (const auto& id : world.viewer_ids) {
    truths_.push_back(Must(world.platform->GetVideo(id), id).truth);
  }
  double total = 0.0;
  for (size_t r = 0; r < world.viewer_ids.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), regime.zipf_s);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

uint32_t ViewerTraffic::PickVideo() {
  const double u = rng_.NextDouble();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(static_cast<size_t>(it - zipf_cdf_.begin()),
                       zipf_cdf_.size() - 1));
}

serving::LogSessionRequest ViewerTraffic::SessionFor(uint32_t video) {
  static const sim::ViewerSimulator viewer_sim;
  const std::vector<double>& dots = dots_[video];
  const double dot = dots[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(dots.size()) - 1))];
  serving::LogSessionRequest req;
  req.video_id = (*ids_)[video];
  req.session_id = ++next_session_;
  req.user = "viewer" + std::to_string(req.session_id);
  req.events =
      viewer_sim.SimulateSession(truths_[video], dot, rng_, req.user).events;
  return req;
}

Request ViewerTraffic::Make(Op op, uint32_t video) {
  const std::string& id = (*ids_)[video];
  Request req;
  req.op = op;
  req.key = video;
  switch (op) {
    case Op::kHighlights:
      req.target = "/highlights?video_id=" + id;
      break;
    case Op::kVisit:
      req.target = "/visit";
      req.body = VisitBody(id, "viewer");
      break;
    case Op::kSession:
      req.target = "/session";
      req.body = net::EncodeJson(SessionFor(video));
      break;
    case Op::kRefine:
      req.target = "/refine";
      req.body = "{\"video_id\":\"" + id + "\"}";
      break;
    default:
      Die("viewer traffic has no op " + std::string(OpName(op)));
  }
  return req;
}

Request ViewerTraffic::Next() {
  const int total = regime_.highlights_w + regime_.visit_w +
                    regime_.session_w + regime_.refine_w;
  int draw = static_cast<int>(rng_.UniformInt(0, total - 1));
  Op op = Op::kRefine;
  if ((draw -= regime_.highlights_w) < 0) {
    op = Op::kHighlights;
  } else if ((draw -= regime_.visit_w) < 0) {
    op = Op::kVisit;
  } else if ((draw -= regime_.session_w) < 0) {
    op = Op::kSession;
  }
  return Make(op, PickVideo());
}

std::vector<std::vector<Request>> ViewerTraffic::OpenSchedule(double rate,
                                                              double seconds) {
  std::vector<std::vector<Request>> schedules(kConnections);
  double t = 0.0;
  for (size_t n = 0;; ++n) {
    t += -std::log(1.0 - rng_.NextDouble()) / rate;
    if (t >= seconds) break;
    Request req = Next();
    req.due_s = t;
    // Pollers and page views, uploads, and refines arrive on connections
    // of their own, as they would from different clients: a session
    // stalled behind a checkpoint holds up later sessions, not reads.
    size_t connection = n % 2;
    if (req.op == Op::kSession) connection = 2;
    if (req.op == Op::kRefine) connection = 3;
    schedules[connection].push_back(std::move(req));
  }
  return schedules;
}

std::vector<std::vector<Request>> ViewerTraffic::ClosedPools(
    size_t per_connection) {
  std::vector<std::vector<Request>> pools(kConnections);
  for (auto& pool : pools) {
    for (size_t i = 0; i < per_connection; ++i) pool.push_back(Next());
  }
  return pools;
}

VersionWatch::VersionWatch(Tally& tally, const std::vector<std::string>& ids)
    : tally_(tally),
      ids_(ids),
      seen_(kConnections, std::vector<uint64_t>(ids.size(), 0)) {}

OnResponse VersionWatch::Hook() {
  return [this](size_t thread, const Request& req,
                const net::HttpResponse& response) {
    if (req.op == Op::kHighlights || req.op == Op::kVisit) {
      const uint64_t version = SnapshotVersionOf(response.body);
      uint64_t& last = seen_[thread][req.key];
      if (version < last) {
        tally_.CheckFailed("snapshot version of " + ids_[req.key] +
                           " went from " + std::to_string(last) + " to " +
                           std::to_string(version));
      }
      last = std::max(last, version);
    }
    return std::string();
  };
}

void CheckFinalHighlights(
    RunContext& ctx, uint16_t port, const std::vector<std::string>& ids,
    const std::function<serving::HighlightServer&(const std::string&)>&
        owner) {
  net::HttpClient client("127.0.0.1", port);
  for (const std::string& id : ids) {
    bool equal = false;
    std::string wire, local;
    for (int attempt = 0; attempt < 2 && !equal; ++attempt) {
      auto response = client.Get("/highlights?video_id=" + id);
      if (!response.ok() || response.value().status != 200) {
        ctx.tally.CheckFailed("final GET /highlights of " + id + " failed");
        break;
      }
      wire = response.value().body;
      local = net::EncodeJson(
          Must(owner(id).GetHighlights(id), "in-process highlights " + id));
      equal = wire == local;
    }
    if (!equal) {
      ctx.tally.CheckFailed("GET /highlights of " + id + " differs: wire " +
                            wire.substr(0, 120) + " vs in-process " +
                            local.substr(0, 120));
    }
  }
}

namespace {

/// Traced ledger of the viewer path: wire/in-process pairs, the parser and
/// codec on the recorded bytes, refinement and storage on a twin server
/// fed the same inputs.
void ViewerLedger(RunContext& ctx, Backend& backend, ViewerTraffic& traffic) {
  World& world = *ctx.world;
  SpanLog& spans = ctx.spans;
  auto twin = Backend::Start(
      world, ctx.Dir("viewer-twin"),
      [](serving::ServerOptions& o) { o.refine_batch_sessions = 0; },
      /*with_http=*/false);
  for (const std::string& id : world.viewer_ids) {
    Must(twin->server().OnPageVisit({id, "warmup"}), "twin warm-up");
  }

  net::HttpClient client("127.0.0.1", backend.port());
  std::vector<serving::LogSessionRequest> sessions;
  uint64_t request_id = 1ULL << 40;
  auto pair = [&](const Request& req, const char* wire_span,
                  const std::function<void()>& in_process,
                  const char* local_span) {
    const uint64_t rid = ++request_id;
    ctx.tally.Attempt();
    const int64_t wire = spans.Time(wire_span, SpanLog::kNone, rid, [&] {
      auto r = req.body.empty() ? client.Get(req.target)
                                : client.Post(req.target, req.body);
      if (!r.ok() || r.value().status != 200) {
        ctx.tally.OpFailed(std::string("ledger ") + wire_span);
      }
    });
    spans.Adopt(wire, spans.Time(local_span, SpanLog::kNone, rid, in_process));
    net::RequestParser parser;
    const std::string bytes = WireBytes(req);
    spans.Time("net.parse", SpanLog::kNone, rid, [&] {
      parser.Append(bytes);
      if (parser.Parse() != net::RequestParser::State::kReady) {
        ctx.tally.CheckFailed("parser rejected recorded request");
      }
    });
  };
  for (size_t i = 0; i < kLedgerPairs; ++i) {
    const uint32_t v = traffic.PickVideo();
    const std::string& id = world.viewer_ids[v];

    const Request get = traffic.Make(Op::kHighlights, v);
    common::Result<serving::GetHighlightsResponse> got =
        common::Status::Internal("unset");
    pair(get, "net.wire.highlights",
         [&] { got = backend.server().GetHighlights(id); },
         "serving.highlights");
    const auto& shown = Must(std::move(got), "in-process highlights");
    spans.Time("net.codec_encode", SpanLog::kNone, 0,
               [&] { (void)net::EncodeJson(shown); });

    const Request visit = traffic.Make(Op::kVisit, v);
    pair(visit, "net.wire.visit",
         [&] { (void)backend.server().OnPageVisit({id, "viewer"}); },
         "serving.visit_warm");
    spans.Time("net.codec_decode", SpanLog::kNone, 0,
               [&] { (void)net::DecodePageVisitRequest(visit.body); });

    Request session;
    session.op = Op::kSession;
    session.target = "/session";
    sessions.push_back(traffic.SessionFor(v));
    session.body = net::EncodeJson(sessions.back());
    pair(session, "net.wire.session",
         [&] { (void)twin->server().LogSession(sessions.back()); },
         "serving.log_session");
    spans.Time("net.codec_decode", SpanLog::kNone, 0,
               [&] { (void)net::DecodeLogSessionRequest(session.body); });
  }

  // Refinement: a batch of sessions per video on the twin, then the
  // grouping, the pass, and the serving call over the same state.
  size_t plays_in = 0, plays_kept = 0;
  const double delta = world.lightor->options().extractor.delta;
  for (uint32_t v = 0; v < kLedgerRefineVideos; ++v) {
    const std::string& id = world.viewer_ids[v];
    for (size_t s = 0; s < kLedgerSessionsPerVideo; ++s) {
      sessions.push_back(traffic.SessionFor(v));
      Must(twin->server().LogSession(sessions.back()), "twin session");
    }
    const auto dots = twin->db().highlights().GetLatest(id);
    const auto logged = twin->db().interactions().SessionsForVideo(id);
    std::unordered_map<int32_t, std::vector<core::Play>> grouped;
    const int64_t group = spans.Time("extractor.group", SpanLog::kNone, v, [&] {
      grouped = serving::GroupPlaysByDot(logged, dots, delta);
    });
    const int64_t pass = spans.Time("extractor.refine_pass", SpanLog::kNone, v,
                                    [&] {
      (void)serving::RunRefinePass(*world.lightor, id, dots, logged);
    });
    spans.Adopt(pass, group);
    spans.Adopt(spans.Time("serving.refine", SpanLog::kNone, v,
                           [&] { (void)twin->server().Refine(id); }),
                pass);
    for (const auto& dot : dots) {
      const auto it = grouped.find(dot.dot_index);
      if (it == grouped.end()) continue;
      plays_in += it->second.size();
      plays_kept += world.lightor->extractor()
                        .FilterPlays(it->second, dot.dot_position)
                        .size();
    }
  }

  // Storage: the session path's appends (flushed in batches, as the
  // server runs them), dot records, and checkpoints of the twin's state.
  {
    auto opened = Must(storage::DB::Open(storage::OpenOptions(
                           ctx.Dir("viewer-storage"))),
                       "scratch db");
    opened.db->SetInteractionFlushEachAppend(false);
    for (const auto& req : sessions) {
      for (const auto& ev : req.events) {
        storage::InteractionRecord rec;
        rec.video_id = req.video_id;
        rec.user = req.user;
        rec.session_id = req.session_id;
        rec.event = serving::FromSimType(ev.type);
        rec.wall_time = ev.wall_time;
        rec.position = ev.position;
        rec.target = ev.target;
        spans.Time("storage.put_interaction", SpanLog::kNone, 0,
                   [&] { (void)opened.db->PutInteraction(rec); });
      }
    }
    for (const std::string& id : world.viewer_ids) {
      for (const auto& rec : twin->db().highlights().GetLatest(id)) {
        spans.Time("storage.put_highlight", SpanLog::kNone, 0,
                   [&] { (void)opened.db->PutHighlight(rec); });
      }
    }
  }
  for (int i = 0; i < 3; ++i) {
    spans.Time("storage.checkpoint", SpanLog::kNone, 0,
               [&] { Must(twin->db().Checkpoint(), "twin checkpoint"); });
  }

  ctx.LayerFromSpans("net.wire_self_us.highlights", "net.wire.highlights", "us");
  ctx.LayerFromSpans("net.wire_self_us.visit", "net.wire.visit", "us");
  ctx.LayerFromSpans("net.wire_self_us.session", "net.wire.session", "us");
  ctx.LayerFromSpans("net.parse_us", "net.parse", "us");
  ctx.LayerFromSpans("net.codec_decode_us", "net.codec_decode", "us");
  ctx.LayerFromSpans("net.codec_encode_us", "net.codec_encode", "us");
  ctx.LayerFromSpans("serving.highlights_us", "serving.highlights", "us");
  ctx.LayerFromSpans("serving.visit_warm_us", "serving.visit_warm", "us");
  ctx.LayerFromSpans("serving.log_session_us", "serving.log_session", "us");
  ctx.LayerFromSpans("serving.refine_us", "serving.refine", "us");
  ctx.LayerFromSpans("extractor.group_us", "extractor.group", "us");
  ctx.LayerFromSpans("extractor.refine_pass_us", "extractor.refine_pass", "us");
  ctx.layer["extractor.plays_kept_ratio"] = {
      plays_in == 0 ? 0.0 : static_cast<double>(plays_kept) / plays_in,
      "ratio"};
  ctx.layer["extractor.plays_filtered_base"] = {static_cast<double>(plays_in),
                                                "count"};
  ctx.LayerFromSpans("storage.put_interaction_us", "storage.put_interaction",
                     "us");
  ctx.LayerFromSpans("storage.put_highlight_us", "storage.put_highlight", "us");
  ctx.LayerFromSpans("storage.checkpoint_ms", "storage.checkpoint", "ms",
                     1e-3);
}

}  // namespace

void RunViewerPhase(RunContext& ctx) {
  World& world = *ctx.world;
  auto warmed = SetUp<Warmed<Backend>>(ctx, [&] {
    auto w = std::make_unique<Warmed<Backend>>();
    w->stack = Backend::Start(world, ctx.Dir("viewer"),
                              [](serving::ServerOptions& o) {
                                o.checkpoint_interval_seconds =
                                    kCheckpointIntervalSeconds;
                              });
    w->dots = WarmViewerVideos(world, w->stack->port());
    return w;
  });
  Backend& backend = *warmed->stack;

  ViewerTraffic traffic(world, ctx.regime, warmed->dots, ctx.seed * 31 + 1);
  const double open_s = 0.22 * ctx.seconds;
  const auto schedule = traffic.OpenSchedule(kViewerRate, open_s);
  // Each capacity slice spans one checkpoint period, so every slice pays
  // for one checkpoint. Requests per connection and slice: more than the
  // reference box can complete (about 40k req/s at most).
  const double slice_s = kCheckpointIntervalSeconds;
  const size_t slice_requests =
      static_cast<size_t>(slice_s * 15000.0);

  const std::string before = ctx.trace ? ScrapeMetrics(backend.port()) : "";
  VersionWatch watch(ctx.tally, world.viewer_ids);
  const LoopResult open = RunOpenLoop(backend.port(), schedule, ctx.tally,
                                      ctx.spans, watch.Hook());
  NoteLateness(ctx, "viewer", open);
  if (!ctx.trace) {
    std::vector<double> rates;
    for (size_t slice = 0; slice < kCapacitySlices; ++slice) {
      const LoopResult part =
          RunClosedLoop(backend.port(), traffic.ClosedPools(slice_requests),
                        slice_s, ctx.tally, ctx.spans, watch.Hook());
      rates.push_back(part.completed / part.elapsed_s);
    }
    ctx.e2e["viewer_capacity_rps"] = {Median(rates), "req/s"};
    ctx.e2e["visit_p50_ms"] = {Quantile(open.of(Op::kVisit), 0.50), "ms"};
    ctx.e2e["highlights_p50_ms"] = {Quantile(open.of(Op::kHighlights), 0.50),
                                    "ms"};
    ctx.e2e["session_p50_ms"] = {Quantile(open.of(Op::kSession), 0.50), "ms"};
    ctx.e2e["refine_p50_ms"] = {Quantile(open.of(Op::kRefine), 0.50), "ms"};
  } else {
    ctx.layer["tail.visit_p99_ms"] = {Quantile(open.of(Op::kVisit), 0.99),
                                      "ms"};
    ctx.layer["tail.highlights_p99_ms"] = {
        Quantile(open.of(Op::kHighlights), 0.99), "ms"};
    ctx.layer["tail.session_p99_ms"] = {Quantile(open.of(Op::kSession), 0.99),
                                        "ms"};
    ctx.layer["tail.refine_p99_ms"] = {Quantile(open.of(Op::kRefine), 0.99),
                                       "ms"};
    // What recording spans costs: the capacity loop in alternating slices
    // with spans off and on.
    SpanLog untraced(false);
    double rate[2] = {0.0, 0.0};
    for (int slice = 0; slice < 4; ++slice) {
      const bool on = slice % 2 == 1;
      const LoopResult part = RunClosedLoop(
          backend.port(), traffic.ClosedPools(slice_requests), slice_s,
          ctx.tally, on ? ctx.spans : untraced, watch.Hook());
      rate[on] += part.completed / part.elapsed_s / 2;
    }
    ctx.layer["obs.tracing_overhead_pct"] = {
        (rate[0] - rate[1]) / rate[0] * 100.0, "%"};
    const std::string after = ScrapeMetrics(backend.port());
    auto delta = [&](const char* counter) {
      return CounterSum(after, counter) - CounterSum(before, counter);
    };
    ctx.layer["serving.shard_contention"] = {
        delta("lightor_serving_shard_contention_total"), "count"};
    ctx.layer["serving.refine_passes"] = {
        delta("lightor_serving_refine_trigger_total"), "count"};
    ctx.layer["serving.refine_dropped"] = {
        delta("lightor_serving_refine_enqueue_dropped_total"), "count"};
    ctx.layer["storage.checkpoint_runs"] = {
        delta("lightor_storage_checkpoint_runs_total"), "count"};
  }
  std::fprintf(stderr, "viewer: %zu open-loop requests\n", open.completed);

  backend.server().Flush();
  CheckFinalHighlights(ctx, backend.port(), world.viewer_ids,
                       [&](const std::string&) -> serving::HighlightServer& {
                         return backend.server();
                       });
  if (ctx.trace) ViewerLedger(ctx, backend, traffic);
}

}  // namespace lightor::e2e
