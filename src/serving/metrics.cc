#include "serving/metrics.h"

#include <string_view>

#include "obs/export.h"

namespace lightor::serving {

std::string ExportMetricsPage(std::string_view format) {
  const obs::RegistrySnapshot snapshot = obs::Registry::Global().Snapshot();
  if (format == "json") return obs::ExportJson(snapshot);
  return obs::ExportPrometheus(snapshot);
}

obs::Histogram& RequestLatency(const char* endpoint) {
  static const auto get = [](const char* ep) {
    return obs::Registry::Global().GetHistogram(
        "lightor_web_request_seconds", obs::Histogram::LatencyBounds(),
        {{"endpoint", ep}});
  };
  static obs::Histogram* const page_visit = get("page_visit");
  static obs::Histogram* const log_session = get("log_session");
  static obs::Histogram* const refine = get("refine");
  static obs::Histogram* const get_highlights = get("get_highlights");
  const std::string_view ep(endpoint);
  if (ep == "page_visit") return *page_visit;
  if (ep == "log_session") return *log_session;
  if (ep == "get_highlights") return *get_highlights;
  return *refine;
}

obs::Counter& PageVisitsCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_web_page_visits_total");
  return *counter;
}

obs::Counter& DotCacheCounter(bool hit) {
  static obs::Counter* const hits = obs::Registry::Global().GetCounter(
      "lightor_web_dot_cache_total", {{"outcome", "hit"}});
  static obs::Counter* const misses = obs::Registry::Global().GetCounter(
      "lightor_web_dot_cache_total", {{"outcome", "miss"}});
  return hit ? *hits : *misses;
}

obs::Counter& SessionsLoggedCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_web_sessions_logged_total");
  return *counter;
}

obs::Counter& DuplicateSessionsCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_web_sessions_duplicate_total");
  return *counter;
}

obs::Counter& InteractionEventsCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_web_interaction_events_total");
  return *counter;
}

obs::Counter& RefinePassesCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_web_refine_passes_total");
  return *counter;
}

obs::Counter& DotsUpdatedCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_web_dots_updated_total");
  return *counter;
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
