#include "serving/metrics.h"

#include <string_view>

#include "obs/export.h"

namespace lightor::serving {

std::string ExportMetricsPage(std::string_view format) {
  const obs::RegistrySnapshot snapshot = obs::Registry::Global().Snapshot();
  if (format == "json") return obs::ExportJson(snapshot);
  return obs::ExportPrometheus(snapshot);
}

namespace {

constexpr const char* kReferenceLabel = "reference";
constexpr const char* kConcurrentLabel = "concurrent";

const char* ServerLabel(ServerKind kind) {
  return kind == ServerKind::kReference ? kReferenceLabel : kConcurrentLabel;
}

obs::Counter& ServerCounter(const char* name, ServerKind kind) {
  // One interned series per (name, server); the registry returns the
  // same pointer for repeated registrations, so the lookup cost is a
  // short mutexed map probe only until the local statics below latch.
  return *obs::Registry::Global().GetCounter(name,
                                             {{"server", ServerLabel(kind)}});
}

}  // namespace

obs::Histogram& RequestLatency(const char* endpoint, ServerKind kind) {
  struct Series {
    obs::Histogram* page_visit;
    obs::Histogram* log_session;
    obs::Histogram* refine;
    obs::Histogram* get_highlights;
  };
  static const auto make = [](ServerKind k) {
    const auto get = [&](const char* ep) {
      return obs::Registry::Global().GetHistogram(
          "lightor_web_request_seconds", obs::Histogram::LatencyBounds(),
          {{"endpoint", ep}, {"server", ServerLabel(k)}});
    };
    return Series{get("page_visit"), get("log_session"), get("refine"),
                  get("get_highlights")};
  };
  static const Series reference = make(ServerKind::kReference);
  static const Series concurrent = make(ServerKind::kConcurrent);
  const Series& s = kind == ServerKind::kReference ? reference : concurrent;
  const std::string_view ep(endpoint);
  if (ep == "page_visit") return *s.page_visit;
  if (ep == "log_session") return *s.log_session;
  if (ep == "get_highlights") return *s.get_highlights;
  return *s.refine;
}

obs::Counter& PageVisitsCounter(ServerKind kind) {
  static obs::Counter* const ref =
      &ServerCounter("lightor_web_page_visits_total", ServerKind::kReference);
  static obs::Counter* const conc =
      &ServerCounter("lightor_web_page_visits_total", ServerKind::kConcurrent);
  return kind == ServerKind::kReference ? *ref : *conc;
}

obs::Counter& DotCacheCounter(ServerKind kind, bool hit) {
  static const auto make = [](ServerKind k, const char* outcome) {
    return obs::Registry::Global().GetCounter(
        "lightor_web_dot_cache_total",
        {{"outcome", outcome}, {"server", ServerLabel(k)}});
  };
  static obs::Counter* const ref_hit = make(ServerKind::kReference, "hit");
  static obs::Counter* const ref_miss = make(ServerKind::kReference, "miss");
  static obs::Counter* const conc_hit = make(ServerKind::kConcurrent, "hit");
  static obs::Counter* const conc_miss = make(ServerKind::kConcurrent, "miss");
  if (kind == ServerKind::kReference) return hit ? *ref_hit : *ref_miss;
  return hit ? *conc_hit : *conc_miss;
}

obs::Counter& SessionsLoggedCounter(ServerKind kind) {
  static obs::Counter* const ref = &ServerCounter(
      "lightor_web_sessions_logged_total", ServerKind::kReference);
  static obs::Counter* const conc = &ServerCounter(
      "lightor_web_sessions_logged_total", ServerKind::kConcurrent);
  return kind == ServerKind::kReference ? *ref : *conc;
}

obs::Counter& DuplicateSessionsCounter(ServerKind kind) {
  static obs::Counter* const ref = &ServerCounter(
      "lightor_web_sessions_duplicate_total", ServerKind::kReference);
  static obs::Counter* const conc = &ServerCounter(
      "lightor_web_sessions_duplicate_total", ServerKind::kConcurrent);
  return kind == ServerKind::kReference ? *ref : *conc;
}

obs::Counter& InteractionEventsCounter(ServerKind kind) {
  static obs::Counter* const ref = &ServerCounter(
      "lightor_web_interaction_events_total", ServerKind::kReference);
  static obs::Counter* const conc = &ServerCounter(
      "lightor_web_interaction_events_total", ServerKind::kConcurrent);
  return kind == ServerKind::kReference ? *ref : *conc;
}

obs::Counter& RefinePassesCounter(ServerKind kind) {
  static obs::Counter* const ref =
      &ServerCounter("lightor_web_refine_passes_total", ServerKind::kReference);
  static obs::Counter* const conc = &ServerCounter(
      "lightor_web_refine_passes_total", ServerKind::kConcurrent);
  return kind == ServerKind::kReference ? *ref : *conc;
}

obs::Counter& DotsUpdatedCounter(ServerKind kind) {
  static obs::Counter* const ref =
      &ServerCounter("lightor_web_dots_updated_total", ServerKind::kReference);
  static obs::Counter* const conc =
      &ServerCounter("lightor_web_dots_updated_total", ServerKind::kConcurrent);
  return kind == ServerKind::kReference ? *ref : *conc;
}

obs::Counter& StreamIngestRequestsCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_stream_ingest_requests_total");
  return *counter;
}

obs::Counter& StreamProvisionalPublishesCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_stream_provisional_publishes_total");
  return *counter;
}

obs::Counter& StreamFinalizedCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_stream_finalized_total");
  return *counter;
}

obs::Gauge& ActiveStreamsGauge() {
  static obs::Gauge* const gauge =
      obs::Registry::Global().GetGauge("lightor_stream_active_streams");
  return *gauge;
}

obs::Histogram& StreamIngestBatchLatency() {
  static obs::Histogram* const histogram = obs::Registry::Global().GetHistogram(
      "lightor_stream_ingest_batch_seconds", obs::Histogram::LatencyBounds());
  return *histogram;
}

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge* const gauge =
      obs::Registry::Global().GetGauge("lightor_serving_queue_depth");
  return *gauge;
}

obs::Counter& ShardContentionCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_serving_shard_contention_total");
  return *counter;
}

obs::Counter& EnqueueDroppedCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_serving_refine_enqueue_dropped_total");
  return *counter;
}

obs::Histogram& RefineBatchSessionsHistogram() {
  static obs::Histogram* const histogram =
      obs::Registry::Global().GetHistogram(
          "lightor_serving_refine_batch_sessions",
          obs::Histogram::LinearBounds(32));
  return *histogram;
}

obs::Histogram& ProvisionalStalenessHistogram() {
  static obs::Histogram* const histogram =
      obs::Registry::Global().GetHistogram(
          "lightor_serving_provisional_staleness_seconds",
          obs::Histogram::LatencyBounds());
  return *histogram;
}

obs::Counter& ChannelAdmittedMessagesCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_serving_channel_admitted_messages_total");
  return *counter;
}

obs::Counter& ChannelThrottledCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_serving_channel_throttled_total");
  return *counter;
}

obs::Counter& ChannelRejectedMessagesCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_serving_channel_rejected_messages_total");
  return *counter;
}

obs::Counter& ChannelDrainRoundsCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_serving_channel_drain_rounds_total");
  return *counter;
}

obs::Gauge& ChannelQueuedMessagesGauge() {
  static obs::Gauge* const gauge = obs::Registry::Global().GetGauge(
      "lightor_serving_channel_queued_messages");
  return *gauge;
}

obs::Gauge& ChannelActiveGauge() {
  static obs::Gauge* const gauge =
      obs::Registry::Global().GetGauge("lightor_serving_channel_active");
  return *gauge;
}

obs::Histogram& RefineLatencyHistogram() {
  static obs::Histogram* const histogram =
      obs::Registry::Global().GetHistogram("lightor_serving_refine_seconds",
                                           obs::Histogram::LatencyBounds());
  return *histogram;
}

obs::Counter& RefineTriggerCounter(const char* trigger) {
  static obs::Counter* const batch = obs::Registry::Global().GetCounter(
      "lightor_serving_refine_trigger_total", {{"trigger", "batch"}});
  static obs::Counter* const explicit_ = obs::Registry::Global().GetCounter(
      "lightor_serving_refine_trigger_total", {{"trigger", "explicit"}});
  static obs::Counter* const drain = obs::Registry::Global().GetCounter(
      "lightor_serving_refine_trigger_total", {{"trigger", "drain"}});
  const std::string_view t(trigger);
  if (t == "batch") return *batch;
  if (t == "drain") return *drain;
  return *explicit_;
}

obs::Counter& CheckpointTriggerCounter(const char* trigger) {
  static obs::Counter* const explicit_ = obs::Registry::Global().GetCounter(
      "lightor_serving_checkpoint_trigger_total", {{"trigger", "explicit"}});
  static obs::Counter* const sessions = obs::Registry::Global().GetCounter(
      "lightor_serving_checkpoint_trigger_total", {{"trigger", "sessions"}});
  static obs::Counter* const interval = obs::Registry::Global().GetCounter(
      "lightor_serving_checkpoint_trigger_total", {{"trigger", "interval"}});
  static obs::Counter* const shutdown = obs::Registry::Global().GetCounter(
      "lightor_serving_checkpoint_trigger_total", {{"trigger", "shutdown"}});
  static obs::Counter* const rescue = obs::Registry::Global().GetCounter(
      "lightor_serving_checkpoint_trigger_total", {{"trigger", "rescue"}});
  const std::string_view t(trigger);
  if (t == "sessions") return *sessions;
  if (t == "interval") return *interval;
  if (t == "shutdown") return *shutdown;
  if (t == "rescue") return *rescue;
  return *explicit_;
}

}  // namespace lightor::serving
