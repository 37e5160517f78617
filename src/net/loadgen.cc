#include "net/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "net/codec.h"
#include "net/json_arena.h"
#include "obs/trace_context.h"
#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/viewer_simulator.h"

namespace lightor::net {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The /refine request body: {"video_id":...}.
std::string RefineBody(std::string_view video_id) {
  std::string body = "{\"video_id\":";
  common::AppendJsonString(video_id, body);
  body += '}';
  return body;
}

enum class Op { kVisit, kSession, kRefine, kIngest };

/// Per-thread traffic state and tallies, merged after the join.
struct ThreadResult {
  size_t requests = 0;
  size_t wire_errors = 0;
  size_t status_2xx = 0;
  size_t status_4xx = 0;
  size_t status_5xx = 0;
  size_t rejected_503 = 0;
  size_t throttled_429 = 0;
  size_t flash_cold_failures = 0;
  size_t retries = 0;
  size_t visits = 0;
  size_t sessions = 0;
  size_t refines = 0;
  size_t ingests = 0;
  size_t finalizes = 0;
  std::vector<double> latencies_ms;
  /// One row per round trip (wire errors included, status -1): feeds the
  /// slowest-N table, the per-op percentiles, and the SLO verdicts.
  std::vector<SlowRequest> samples;
  RecordedTraffic recorded;
};

class Worker {
 public:
  Worker(const LoadGenOptions& options, size_t index)
      : options_(options),
        index_(index),
        rng_(options.seed + index),
        // Separate stream for trace ids: the traffic mix drawn from rng_
        // must not shift when tracing changes.
        trace_rng_((options.seed ^ 0x9e3779b97f4a7c15ULL) + index),
        client_(options.host, options.port) {
    client_.set_timeout_seconds(options_.timeout_seconds);
    // Round-robin live-stream ownership: each live video has exactly one
    // owner thread, so its batch sequence is totally ordered.
    for (size_t i = index_; i < options_.live_ids.size();
         i += options_.num_threads) {
      live_id_ = options_.live_ids[i];
      break;  // one live video per thread is plenty for the mix
    }
    if (!live_id_.empty()) {
      const auto video = options_.platform->GetVideo(live_id_);
      if (video.ok()) {
        live_messages_ = sim::ToCoreMessages(video.value().chat);
      }
    }
  }

  ThreadResult Run() {
    for (size_t i = 0; i < options_.requests_per_thread; ++i) {
      switch (DrawOp()) {
        case Op::kVisit:
          DoVisit();
          break;
        case Op::kSession:
          DoSession();
          break;
        case Op::kRefine:
          DoRefine();
          break;
        case Op::kIngest:
          DoIngest();
          break;
      }
    }
    // A partially ingested stream must finalize so its served state is a
    // finished snapshot the differential check can compare.
    if (ingested_any_ && !finalized_) DoFinalize();
    return std::move(result_);
  }

 private:
  Op DrawOp() {
    const bool can_ingest = !live_id_.empty() && !finalized_ &&
                            live_cursor_ < live_messages_.size();
    const bool can_recorded = !options_.recorded_ids.empty();
    int visit_w = can_recorded ? options_.visit_weight : 0;
    int session_w = can_recorded ? options_.session_weight : 0;
    int refine_w = can_recorded ? options_.refine_weight : 0;
    int ingest_w = can_ingest ? options_.ingest_weight : 0;
    const int total = visit_w + session_w + refine_w + ingest_w;
    if (total == 0) return Op::kVisit;  // degenerate mix; visit will 4xx
    auto draw = rng_.UniformInt(1, total);
    if ((draw -= visit_w) <= 0) return Op::kVisit;
    if ((draw -= session_w) <= 0) return Op::kSession;
    if ((draw -= refine_w) <= 0) return Op::kRefine;
    return Op::kIngest;
  }

  const std::string& PickRecorded() {
    return options_.recorded_ids[static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(options_.recorded_ids.size()) - 1))];
  }

  /// One round trip with bookkeeping; returns the status code, or -1 on
  /// a wire error. Every request carries a deterministic, per-thread
  /// unique `traceparent` (unsampled: the server's tail sampler decides
  /// what to keep — slow outliers survive, which is exactly what the
  /// slowest-N table points at).
  int Send(const char* op, std::string_view method, std::string_view target,
           std::string_view body) {
    obs::TraceContext ctx;
    ctx.trace_hi = trace_rng_.Next64();
    ctx.trace_lo = trace_rng_.Next64() | 1;  // the all-zero id is invalid
    ctx.span_id = trace_rng_.Next64() | 1;
    client_.set_header("traceparent", obs::FormatTraceparent(ctx));

    const Clock::time_point start = Clock::now();
    auto response = client_.Request(method, target, body);
    // Cluster mode: absorb transient failures instead of tallying them.
    // Only visit/session/refine may retry a *wire* error — they are
    // idempotent upstream (sessions dedup by id); a died-mid-response
    // ingest or finalize may already have been applied. A 503 response
    // means the request was NOT accepted, so any op may retry it.
    if (options_.retry_503) {
      const bool wire_retryable = std::string_view(op) == "visit" ||
                                  std::string_view(op) == "session" ||
                                  std::string_view(op) == "refine";
      double backoff_ms = options_.retry_backoff_ms;
      while ((response.ok() && response.value().status == 503) ||
             (!response.ok() && wire_retryable &&
              common::IsRetryable(response.status()))) {
        if (MsSince(start) / 1000.0 >= options_.retry_budget_seconds) break;
        ++result_.retries;
        const double jitter = 0.5 + trace_rng_.NextDouble();  // [0.5, 1.5)
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            backoff_ms * jitter));
        backoff_ms = std::min(backoff_ms * 2.0, 1000.0);
        response = client_.Request(method, target, body);
      }
    }
    SlowRequest sample;
    sample.ms = MsSince(start);
    sample.op = op;
    sample.trace_id = obs::FormatTraceId(ctx.trace_hi, ctx.trace_lo);
    if (!response.ok()) {
      ++result_.wire_errors;
      sample.status = -1;
      result_.samples.push_back(std::move(sample));
      return -1;
    }
    sample.status = response.value().status;
    result_.latencies_ms.push_back(sample.ms);
    result_.samples.push_back(std::move(sample));
    ++result_.requests;
    const int status = response.value().status;
    if (status < 400) {
      ++result_.status_2xx;
    } else if (status < 500) {
      ++result_.status_4xx;
      if (status == 429) ++result_.throttled_429;
    } else {
      ++result_.status_5xx;
      if (status == 503) ++result_.rejected_503;
    }
    if (status == 200) last_body_ = std::move(response.value().body);
    return status;
  }

  void DoVisit() {
    ++result_.visits;
    serving::PageVisitRequest req;
    req.video_id = PickRecorded();
    req.user = "loadgen" + std::to_string(index_);
    if (Send("visit", "POST", "/visit", EncodeJson(req)) != 200) return;
    result_.recorded.visits.push_back(req);
    auto response = DecodePageVisitResponse(last_body_);
    if (!response.ok()) return;
    std::vector<double>& dots = dot_cache_[req.video_id];
    dots.clear();
    for (const auto& rec : response.value().highlights) {
      dots.push_back(rec.dot_position);
    }
  }

  void DoSession() {
    const std::string video_id = PickRecorded();
    const auto cached = dot_cache_.find(video_id);
    if (cached == dot_cache_.end() || cached->second.empty()) {
      DoVisit();  // closed loop: learn the dots before interacting
      return;
    }
    ++result_.sessions;
    const double dot = cached->second[static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(cached->second.size()) - 1))];
    const auto video = options_.platform->GetVideo(video_id);
    if (!video.ok()) return;
    serving::LogSessionRequest req;
    req.video_id = video_id;
    req.session_id = (static_cast<uint64_t>(index_) << 32) | next_session_++;
    req.user = "viewer" + std::to_string(req.session_id);
    const auto session = viewer_sim_.SimulateSession(video.value().truth,
                                                     dot, rng_, req.user);
    req.events = session.events;
    if (Send("session", "POST", "/session", EncodeJson(req)) != 200) return;
    result_.recorded.sessions.push_back(std::move(req));
  }

  void DoRefine() {
    ++result_.refines;
    Send("refine", "POST", "/refine", RefineBody(PickRecorded()));
  }

  void DoIngest() {
    ++result_.ingests;
    const size_t end = std::min(live_cursor_ + options_.ingest_batch_size,
                                live_messages_.size());
    serving::IngestChatRequest req;
    req.video_id = live_id_;
    req.messages.assign(live_messages_.begin() +
                            static_cast<ptrdiff_t>(live_cursor_),
                        live_messages_.begin() + static_cast<ptrdiff_t>(end));
    if (Send("ingest", "POST", "/ingest", EncodeJson(req)) != 200) return;
    // Advance only on acceptance: a 503'd batch is retried by a later
    // ingest draw, keeping the per-video sequence gap-free.
    live_cursor_ = end;
    ingested_any_ = true;
    result_.recorded.ingests.push_back(std::move(req));
    if (live_cursor_ >= live_messages_.size()) DoFinalize();
  }

  void DoFinalize() {
    ++result_.finalizes;
    serving::FinalizeStreamRequest req;
    req.video_id = live_id_;
    if (Send("finalize", "POST", "/finalize", EncodeJson(req)) != 200) return;
    finalized_ = true;
    result_.recorded.finalizes.push_back(req);
  }

  const LoadGenOptions& options_;
  size_t index_;
  common::Rng rng_;
  common::Rng trace_rng_;
  HttpClient client_;
  sim::ViewerSimulator viewer_sim_;
  ThreadResult result_;
  std::string last_body_;

  /// Red-dot positions from this thread's last /visit, per video.
  std::unordered_map<std::string, std::vector<double>> dot_cache_;
  uint32_t next_session_ = 1;

  std::string live_id_;
  std::vector<core::Message> live_messages_;
  size_t live_cursor_ = 0;
  bool ingested_any_ = false;
  bool finalized_ = false;
};

/// Flash-crowd scenario worker. Thread t owns the cold channels
/// {i : i mod num_threads == t} ("flash-cold-<i>"); thread 0 also owns
/// the hot channel ("flash-hot"). Each round delivers one
/// `ingest_batch_size`-message batch per owned cold channel, packed
/// into chunked frames of `flash_frame_channels` channels, then thread
/// 0 offers `flash_hot_multiplier` hot single frames — far past the hot
/// channel's budget, so the server sheds the excess with 429s while the
/// cold frames must all land.
class FlashWorker {
 public:
  FlashWorker(const LoadGenOptions& options, size_t index)
      : options_(options),
        index_(index),
        trace_rng_((options.seed ^ 0x9e3779b97f4a7c15ULL) + index),
        client_(options.host, options.port) {
    client_.set_timeout_seconds(options.timeout_seconds);
    for (size_t i = index; i < options.flash_channels;
         i += options.num_threads) {
      cold_.push_back(i);
    }
    cold_cursor_.assign(cold_.size(), 0);
  }

  ThreadResult Run() {
    for (size_t round = 0; round < options_.requests_per_thread; ++round) {
      ColdRound();
      if (index_ == 0) HotBurst();
    }
    return std::move(result_);
  }

 private:
  serving::IngestChatRequest MakeCold(size_t slot) {
    serving::IngestChatRequest req;
    req.video_id = "flash-cold-" + std::to_string(cold_[slot]);
    req.messages.reserve(options_.ingest_batch_size);
    for (size_t m = 0; m < options_.ingest_batch_size; ++m) {
      core::Message msg;
      msg.timestamp = static_cast<double>(cold_cursor_[slot] + m);
      msg.user = "crowd";
      msg.text = "flash";
      req.messages.push_back(std::move(msg));
    }
    return req;
  }

  void ColdRound() {
    for (size_t base = 0; base < cold_.size();
         base += options_.flash_frame_channels) {
      const size_t end =
          std::min(base + options_.flash_frame_channels, cold_.size());
      std::vector<serving::IngestChatRequest> frame;
      frame.reserve(end - base);
      for (size_t slot = base; slot < end; ++slot) {
        frame.push_back(MakeCold(slot));
      }
      SendColdFrame(base, frame);
    }
  }

  void SendColdFrame(size_t base,
                     const std::vector<serving::IngestChatRequest>& frame) {
    ++result_.ingests;
    const std::string body = EncodeIngestBatchRequest(frame);
    const Clock::time_point start = Clock::now();
    int status = Send("ingest_batch", body);
    // A non-200 frame-level response (503 storage hiccup, 413 never —
    // frames are sized under the cap) refused the frame whole, so
    // resending it cannot double-apply anything.
    while (status >= 0 && status != 200 &&
           HttpClient::IsRetryableAfterDelay(status) &&
           MsSince(start) / 1000.0 < options_.retry_budget_seconds) {
      ++result_.retries;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(last_retry_after_, options_.retry_backoff_ms / 1000.0)));
      status = Send("ingest_batch", body);
    }
    if (status != 200) {
      result_.flash_cold_failures += frame.size();
      return;
    }
    auto decoded = DecodeIngestBatchResponse(last_body_);
    if (!decoded.ok() || decoded.value().size() != frame.size()) {
      result_.flash_cold_failures += frame.size();
      return;
    }
    for (size_t k = 0; k < frame.size(); ++k) {
      const IngestBatchEntry& entry = decoded.value()[k];
      if (entry.status == 200) {
        cold_cursor_[base + k] += frame[k].messages.size();
        continue;
      }
      if (entry.status == 429) {
        // Entry-level throttles never touch the engine ("a throttled
        // batch leaves no trace"), so the channel's batch retries whole
        // as a single frame after the advertised delay.
        ++result_.throttled_429;
        if (RetrySingle(base + k, frame[k],
                        entry.response.retry_after_seconds, start)) {
          continue;
        }
      }
      ++result_.flash_cold_failures;
    }
  }

  bool RetrySingle(size_t slot, const serving::IngestChatRequest& req,
                   double retry_after, Clock::time_point start) {
    const std::string body = EncodeJson(req);
    double delay = retry_after;
    while (MsSince(start) / 1000.0 < options_.retry_budget_seconds) {
      ++result_.retries;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(delay, options_.retry_backoff_ms / 1000.0)));
      const int status = Send("ingest", body);
      if (status == 200) {
        cold_cursor_[slot] += req.messages.size();
        return true;
      }
      // A wire error may have applied the batch server-side; resending
      // could duplicate messages, so the delivery counts as failed.
      if (status < 0 || !HttpClient::IsRetryableAfterDelay(status)) {
        return false;
      }
      delay = last_retry_after_;
    }
    return false;
  }

  void HotBurst() {
    for (size_t k = 0; k < options_.flash_hot_multiplier; ++k) {
      serving::IngestChatRequest req;
      req.video_id = "flash-hot";
      req.messages.reserve(options_.ingest_batch_size);
      for (size_t m = 0; m < options_.ingest_batch_size; ++m) {
        core::Message msg;
        msg.timestamp = static_cast<double>(hot_cursor_ + m);
        msg.user = "crowd";
        msg.text = "flash";
        req.messages.push_back(std::move(msg));
      }
      ++result_.ingests;
      // 429 here is the scenario working: the hot channel's offered
      // load exceeds its budget and the excess is shed, never retried.
      // The cursor advances only on acceptance so the hot stream's
      // timestamps stay monotone across throttles.
      if (Send("ingest_hot", EncodeJson(req)) == 200) {
        hot_cursor_ += options_.ingest_batch_size;
      }
    }
  }

  int Send(const char* op, std::string_view body) {
    obs::TraceContext ctx;
    ctx.trace_hi = trace_rng_.Next64();
    ctx.trace_lo = trace_rng_.Next64() | 1;
    ctx.span_id = trace_rng_.Next64() | 1;
    client_.set_header("traceparent", obs::FormatTraceparent(ctx));
    const Clock::time_point start = Clock::now();
    auto response = client_.Request("POST", "/ingest", body);
    SlowRequest sample;
    sample.ms = MsSince(start);
    sample.op = op;
    sample.trace_id = obs::FormatTraceId(ctx.trace_hi, ctx.trace_lo);
    if (!response.ok()) {
      ++result_.wire_errors;
      sample.status = -1;
      result_.samples.push_back(std::move(sample));
      return -1;
    }
    sample.status = response.value().status;
    result_.latencies_ms.push_back(sample.ms);
    result_.samples.push_back(std::move(sample));
    ++result_.requests;
    const int status = response.value().status;
    if (status < 400) {
      ++result_.status_2xx;
    } else if (status < 500) {
      ++result_.status_4xx;
      if (status == 429) ++result_.throttled_429;
    } else {
      ++result_.status_5xx;
      if (status == 503) ++result_.rejected_503;
    }
    last_retry_after_ = HttpClient::RetryAfterSeconds(
        response.value(), options_.retry_backoff_ms / 1000.0);
    last_body_ = std::move(response.value().body);
    return status;
  }

  const LoadGenOptions& options_;
  size_t index_;
  common::Rng trace_rng_;
  HttpClient client_;
  ThreadResult result_;
  std::string last_body_;
  double last_retry_after_ = 0.0;

  std::vector<size_t> cold_;         ///< owned cold channel numbers
  std::vector<size_t> cold_cursor_;  ///< messages delivered per slot
  size_t hot_cursor_ = 0;
};

/// Polls GET /debug/channels until every cold channel with admitted
/// messages has an empty queue and at least one provisional publish (or
/// the settle window passes), then returns the p99 across cold channels
/// of each channel's worst provisional staleness, in ms. On timeout the
/// result is floored at the elapsed wait so an SLO gate cannot pass on
/// a wedged scheduler.
common::Result<double> SettleAndScrapeStaleness(
    const LoadGenOptions& options) {
  HttpClient probe(options.host, options.port);
  probe.set_timeout_seconds(options.timeout_seconds);
  const Clock::time_point start = Clock::now();
  const double settle_seconds = std::max(10.0, options.retry_budget_seconds);
  std::vector<double> staleness_ms;
  bool settled = false;
  for (;;) {
    auto response = probe.Get("/debug/channels");
    if (!response.ok()) return response.status();
    if (response.value().status != 200) {
      return common::Status::Internal(
          "loadgen: /debug/channels returned " +
          std::to_string(response.value().status));
    }
    auto parsed = JsonDoc::Parse(response.value().body);
    if (!parsed.ok()) return parsed.status();
    const JsonDoc::Ref channels = parsed.value().root().Find("channels");
    if (!channels || !channels.is_array()) {
      return common::Status::Internal(
          "loadgen: /debug/channels missing \"channels\" array");
    }
    staleness_ms.clear();
    settled = true;
    for (JsonDoc::Ref entry = channels.first_child(); entry;
         entry = entry.next_sibling()) {
      const JsonDoc::Ref id = entry.Find("video_id");
      if (!id || !id.is_string() ||
          !id.AsString().starts_with("flash-cold-")) {
        continue;  // the hot channel's staleness is not the SLO's
      }
      const JsonDoc::Ref admitted = entry.Find("admitted_messages");
      const JsonDoc::Ref queued = entry.Find("queued_messages");
      const JsonDoc::Ref publishes = entry.Find("publishes");
      const JsonDoc::Ref max_staleness = entry.Find("max_staleness_seconds");
      if (!admitted || !queued || !publishes || !max_staleness) {
        return common::Status::Internal(
            "loadgen: /debug/channels entry missing fields");
      }
      if (admitted.AsNumber() <= 0.0) continue;  // nothing ever landed
      if (queued.AsNumber() > 0.0 || publishes.AsNumber() <= 0.0) {
        settled = false;
        break;
      }
      staleness_ms.push_back(max_staleness.AsNumber() * 1000.0);
    }
    if (settled || MsSince(start) / 1000.0 >= settle_seconds) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (staleness_ms.empty()) staleness_ms.push_back(0.0);
  double p99_ms = common::Quantile(staleness_ms, 0.99);
  if (!settled) p99_ms = std::max(p99_ms, MsSince(start));
  return p99_ms;
}

}  // namespace

common::Status LoadGenOptions::Validate() const {
  if (num_threads == 0)
    return common::Status::InvalidArgument("loadgen: num_threads == 0");
  if (requests_per_thread == 0)
    return common::Status::InvalidArgument(
        "loadgen: requests_per_thread == 0");
  if (!scenario.empty() && scenario != "mix" && scenario != "flash-crowd")
    return common::Status::InvalidArgument("loadgen: unknown scenario: " +
                                           scenario);
  const bool flash = scenario == "flash-crowd";
  if (flash) {
    // Flash-crowd synthesizes its own chat and channel names, so the
    // platform/video plumbing of the mix scenario is not required.
    if (flash_channels == 0)
      return common::Status::InvalidArgument("loadgen: flash_channels == 0");
    if (flash_frame_channels == 0)
      return common::Status::InvalidArgument(
          "loadgen: flash_frame_channels == 0");
  } else {
    if (platform == nullptr)
      return common::Status::InvalidArgument("loadgen: null platform");
    if (recorded_ids.empty() && live_ids.empty())
      return common::Status::InvalidArgument("loadgen: no target videos");
    if (visit_weight < 0 || session_weight < 0 || refine_weight < 0 ||
        ingest_weight < 0)
      return common::Status::InvalidArgument("loadgen: negative weight");
    if (visit_weight + session_weight + refine_weight + ingest_weight == 0)
      return common::Status::InvalidArgument("loadgen: all-zero weights");
  }
  if (ingest_batch_size == 0)
    return common::Status::InvalidArgument("loadgen: ingest_batch_size == 0");
  if (retry_503 && (retry_budget_seconds <= 0.0 || retry_backoff_ms <= 0.0))
    return common::Status::InvalidArgument(
        "loadgen: retry_503 needs positive budget and backoff");
  for (const std::string& id : live_ids) {
    if (std::find(recorded_ids.begin(), recorded_ids.end(), id) !=
        recorded_ids.end()) {
      return common::Status::InvalidArgument(
          "loadgen: video in both recorded_ids and live_ids: " + id);
    }
  }
  for (const SloTarget& target : slo_targets) {
    static constexpr const char* kOps[] = {
        "visit",        "session",    "refine",         "ingest",
        "finalize",     "ingest_batch", "ingest_hot",
        "provisional_p99", "all"};
    if (std::find_if(std::begin(kOps), std::end(kOps), [&](const char* op) {
          return target.op == op;
        }) == std::end(kOps)) {
      return common::Status::InvalidArgument("loadgen: unknown SLO op: " +
                                             target.op);
    }
    if (target.p99_ms <= 0.0) {
      return common::Status::InvalidArgument(
          "loadgen: SLO p99_ms must be positive for op: " + target.op);
    }
  }
  return common::Status::OK();
}

namespace {

/// Merges per-thread tallies into the report: totals, whole-mix and
/// per-op percentiles, the slowest-N table. SLO verdicts are evaluated
/// separately (`EvaluateSlos`) because the flash-crowd scenario adds a
/// post-run scrape between aggregation and the verdicts.
LoadGenReport BuildReport(std::vector<ThreadResult>& results, double seconds,
                          const LoadGenOptions& options,
                          RecordedTraffic* recorded) {
  LoadGenReport report;
  report.seconds = seconds;
  std::vector<double> latencies;
  std::vector<SlowRequest> samples;
  for (ThreadResult& r : results) {
    std::move(r.samples.begin(), r.samples.end(),
              std::back_inserter(samples));
    report.requests += r.requests;
    report.wire_errors += r.wire_errors;
    report.status_2xx += r.status_2xx;
    report.status_4xx += r.status_4xx;
    report.status_5xx += r.status_5xx;
    report.rejected_503 += r.rejected_503;
    report.throttled_429 += r.throttled_429;
    report.flash_cold_failures += r.flash_cold_failures;
    report.retries += r.retries;
    report.visits += r.visits;
    report.sessions += r.sessions;
    report.refines += r.refines;
    report.ingests += r.ingests;
    report.finalizes += r.finalizes;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    if (recorded != nullptr) {
      auto& out = *recorded;
      std::move(r.recorded.visits.begin(), r.recorded.visits.end(),
                std::back_inserter(out.visits));
      std::move(r.recorded.sessions.begin(), r.recorded.sessions.end(),
                std::back_inserter(out.sessions));
      std::move(r.recorded.ingests.begin(), r.recorded.ingests.end(),
                std::back_inserter(out.ingests));
      std::move(r.recorded.finalizes.begin(), r.recorded.finalizes.end(),
                std::back_inserter(out.finalizes));
    }
  }
  report.throughput_rps = seconds > 0.0 ? report.requests / seconds : 0.0;
  if (!latencies.empty()) {
    report.p50_ms = common::Quantile(latencies, 0.50);
    report.p95_ms = common::Quantile(latencies, 0.95);
    report.p99_ms = common::Quantile(latencies, 0.99);
    report.max_ms = *std::max_element(latencies.begin(), latencies.end());
  }

  // Slowest-N table, worst first. Wire errors (often timeouts — the very
  // worst tail) are included; their trace ids were still sent upstream.
  if (options.slowest_n > 0 && !samples.empty()) {
    const size_t n = std::min(options.slowest_n, samples.size());
    std::partial_sort(samples.begin(),
                      samples.begin() + static_cast<ptrdiff_t>(n),
                      samples.end(),
                      [](const SlowRequest& a, const SlowRequest& b) {
                        return a.ms > b.ms;
                      });
    report.slowest.assign(std::make_move_iterator(samples.begin()),
                          std::make_move_iterator(samples.begin() +
                                                  static_cast<ptrdiff_t>(n)));
  }

  // Per-op percentiles over completed responses ("all" and the SLO
  // verdicts read these later).
  std::unordered_map<std::string, std::vector<double>> per_op;
  for (const SlowRequest& sample : samples) {
    if (sample.status >= 0) per_op[sample.op].push_back(sample.ms);
  }
  for (const char* op : {"visit", "session", "refine", "ingest", "finalize",
                         "ingest_batch", "ingest_hot"}) {
    auto it = per_op.find(op);
    if (it == per_op.end() || it->second.empty()) continue;
    OpLatency lat;
    lat.op = op;
    lat.count = it->second.size();
    lat.p50_ms = common::Quantile(it->second, 0.50);
    lat.p99_ms = common::Quantile(it->second, 0.99);
    report.op_latency.push_back(std::move(lat));
  }
  return report;
}

void EvaluateSlos(const LoadGenOptions& options, LoadGenReport& report) {
  for (const LoadGenOptions::SloTarget& target : options.slo_targets) {
    SloResult verdict;
    verdict.op = target.op;
    verdict.target_p99_ms = target.p99_ms;
    if (target.op == "all") {
      verdict.actual_p99_ms = report.p99_ms;
    } else if (target.op == "provisional_p99") {
      verdict.actual_p99_ms = report.provisional_p99_ms;
    } else {
      for (const OpLatency& lat : report.op_latency) {
        if (lat.op == target.op) verdict.actual_p99_ms = lat.p99_ms;
      }
    }
    verdict.ok = verdict.actual_p99_ms <= target.p99_ms;
    if (!verdict.ok) report.slo_ok = false;
    report.slo.push_back(std::move(verdict));
  }
}

common::Result<LoadGenReport> RunFlashCrowd(const LoadGenOptions& options) {
  std::vector<ThreadResult> results(options.num_threads);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(options.num_threads);
    for (size_t t = 0; t < options.num_threads; ++t) {
      threads.emplace_back([&options, &results, t] {
        FlashWorker worker(options, t);
        results[t] = worker.Run();
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  LoadGenReport report = BuildReport(results, seconds, options, nullptr);
  LIGHTOR_ASSIGN_OR_RETURN(report.provisional_p99_ms,
                           SettleAndScrapeStaleness(options));
  EvaluateSlos(options, report);
  return report;
}

}  // namespace

common::Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options,
                                         RecordedTraffic* recorded) {
  LIGHTOR_RETURN_IF_ERROR(options.Validate());
  if (options.scenario == "flash-crowd") return RunFlashCrowd(options);

  std::vector<ThreadResult> results(options.num_threads);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(options.num_threads);
    for (size_t t = 0; t < options.num_threads; ++t) {
      threads.emplace_back([&options, &results, t] {
        Worker worker(options, t);
        results[t] = worker.Run();
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  LoadGenReport report = BuildReport(results, seconds, options, recorded);
  EvaluateSlos(options, report);
  return report;
}

std::string EncodeJson(const LoadGenReport& report) {
  using common::AppendJsonNumber;
  using common::AppendJsonString;
  std::string out = "{\"requests\":";
  AppendJsonNumber(report.requests, out);
  out += ",\"wire_errors\":";
  AppendJsonNumber(report.wire_errors, out);
  out += ",\"status_2xx\":";
  AppendJsonNumber(report.status_2xx, out);
  out += ",\"status_4xx\":";
  AppendJsonNumber(report.status_4xx, out);
  out += ",\"status_5xx\":";
  AppendJsonNumber(report.status_5xx, out);
  out += ",\"rejected_503\":";
  AppendJsonNumber(report.rejected_503, out);
  out += ",\"throttled_429\":";
  AppendJsonNumber(report.throttled_429, out);
  out += ",\"flash_cold_failures\":";
  AppendJsonNumber(report.flash_cold_failures, out);
  out += ",\"retries\":";
  AppendJsonNumber(report.retries, out);
  out += ",\"ops\":{\"visit\":";
  AppendJsonNumber(report.visits, out);
  out += ",\"session\":";
  AppendJsonNumber(report.sessions, out);
  out += ",\"refine\":";
  AppendJsonNumber(report.refines, out);
  out += ",\"ingest\":";
  AppendJsonNumber(report.ingests, out);
  out += ",\"finalize\":";
  AppendJsonNumber(report.finalizes, out);
  out += "},\"seconds\":";
  AppendJsonNumber(report.seconds, out);
  out += ",\"throughput_rps\":";
  AppendJsonNumber(report.throughput_rps, out);
  out += ",\"latency\":{\"p50_ms\":";
  AppendJsonNumber(report.p50_ms, out);
  out += ",\"p95_ms\":";
  AppendJsonNumber(report.p95_ms, out);
  out += ",\"p99_ms\":";
  AppendJsonNumber(report.p99_ms, out);
  out += ",\"max_ms\":";
  AppendJsonNumber(report.max_ms, out);
  out += "},\"provisional_p99_ms\":";
  AppendJsonNumber(report.provisional_p99_ms, out);
  out += ",\"slowest\":[";
  for (size_t i = 0; i < report.slowest.size(); ++i) {
    const SlowRequest& row = report.slowest[i];
    out += i == 0 ? "{\"ms\":" : ",{\"ms\":";
    AppendJsonNumber(row.ms, out);
    out += ",\"op\":";
    AppendJsonString(row.op, out);
    out += ",\"trace_id\":";
    AppendJsonString(row.trace_id, out);
    out += ",\"status\":";
    AppendJsonNumber(row.status, out);
    out += '}';
  }
  out += "],\"op_latency\":{";
  for (size_t i = 0; i < report.op_latency.size(); ++i) {
    const OpLatency& lat = report.op_latency[i];
    if (i > 0) out += ',';
    AppendJsonString(lat.op, out);
    out += ":{\"count\":";
    AppendJsonNumber(lat.count, out);
    out += ",\"p50_ms\":";
    AppendJsonNumber(lat.p50_ms, out);
    out += ",\"p99_ms\":";
    AppendJsonNumber(lat.p99_ms, out);
    out += '}';
  }
  out += report.slo_ok ? "},\"slo\":{\"ok\":true,\"targets\":["
                       : "},\"slo\":{\"ok\":false,\"targets\":[";
  for (size_t i = 0; i < report.slo.size(); ++i) {
    const SloResult& verdict = report.slo[i];
    out += i == 0 ? "{\"op\":" : ",{\"op\":";
    AppendJsonString(verdict.op, out);
    out += ",\"target_p99_ms\":";
    AppendJsonNumber(verdict.target_p99_ms, out);
    out += ",\"actual_p99_ms\":";
    AppendJsonNumber(verdict.actual_p99_ms, out);
    out += verdict.ok ? ",\"ok\":true}" : ",\"ok\":false}";
  }
  out += "]}}";
  return out;
}

common::Status RunDifferentialCheck(const RecordedTraffic& recorded,
                                    HttpClient& served,
                                    serving::HighlightServer* reference) {
  // Replay into the reference: visits deduped (repeat visits are reads),
  // then the live streams batch-by-batch in recorded order, then every
  // session. Session-vs-visit interleaving cannot matter — sessions only
  // append to the interaction log, which nothing reads until Refine.
  std::set<std::string> visited;
  for (const auto& visit : recorded.visits) {
    if (!visited.insert(visit.video_id).second) continue;
    if (auto r = reference->OnPageVisit(visit); !r.ok()) {
      return common::Status::Internal("check: reference visit failed: " +
                                      r.status().ToString());
    }
  }
  for (const auto& ingest : recorded.ingests) {
    if (auto r = reference->IngestChat(ingest); !r.ok()) {
      return common::Status::Internal("check: reference ingest failed: " +
                                      r.status().ToString());
    }
  }
  for (const auto& finalize : recorded.finalizes) {
    if (auto r = reference->FinalizeStream(finalize); !r.ok()) {
      return common::Status::Internal("check: reference finalize failed: " +
                                      r.status().ToString());
    }
  }
  for (const auto& session : recorded.sessions) {
    if (auto st = reference->LogSession(session); !st.ok()) {
      return common::Status::Internal("check: reference session failed: " +
                                      st.ToString());
    }
  }

  // One refinement pass per visited video on both sides; the reports
  // themselves must already agree byte-for-byte.
  for (const std::string& video_id : visited) {
    auto over_wire = served.Post("/refine", RefineBody(video_id));
    if (!over_wire.ok()) return over_wire.status();
    if (over_wire.value().status != 200) {
      return common::Status::Internal(
          "check: served /refine " + video_id + " returned " +
          std::to_string(over_wire.value().status) + ": " +
          over_wire.value().body);
    }
    auto local = reference->Refine(video_id);
    if (!local.ok()) {
      return common::Status::Internal("check: reference refine failed: " +
                                      local.status().ToString());
    }
    if (const std::string want = EncodeJson(local.value());
        over_wire.value().body != want) {
      return common::Status::Internal(
          "check: refine report mismatch for " + video_id + "\n  served: " +
          over_wire.value().body + "\n  reference: " + want);
    }
  }

  // Final state: every touched video's served highlights must equal the
  // reference encoding byte-for-byte.
  std::set<std::string> all_videos = visited;
  for (const auto& finalize : recorded.finalizes) {
    all_videos.insert(finalize.video_id);
  }
  for (const std::string& video_id : all_videos) {
    auto over_wire = served.Get("/highlights?video_id=" + video_id);
    if (!over_wire.ok()) return over_wire.status();
    if (over_wire.value().status != 200) {
      return common::Status::Internal(
          "check: served /highlights " + video_id + " returned " +
          std::to_string(over_wire.value().status));
    }
    auto local = reference->GetHighlights(video_id);
    if (!local.ok()) {
      return common::Status::Internal(
          "check: reference GetHighlights failed: " +
          local.status().ToString());
    }
    if (const std::string want = EncodeJson(local.value());
        over_wire.value().body != want) {
      return common::Status::Internal(
          "check: highlights mismatch for " + video_id + "\n  served: " +
          over_wire.value().body + "\n  reference: " + want);
    }
  }
  return common::Status::OK();
}

}  // namespace lightor::net
