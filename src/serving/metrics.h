#ifndef LIGHTOR_SERVING_METRICS_H_
#define LIGHTOR_SERVING_METRICS_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace lightor::serving {

/// The one `/metrics` export path: a snapshot of the process-global
/// obs::Registry rendered as Prometheus text (the default) or as the
/// exporter JSON when `format == "json"`. Shared by
/// `HighlightServer::MetricsPage` and the HTTP front-end's
/// `GET /metrics?format=json`; unknown formats fall back to Prometheus so
/// the endpoint never errors on a typo.
std::string ExportMetricsPage(std::string_view format = "prometheus");

/// Request-path series of the serving layer (`lightor_web_*`, as
/// documented in DESIGN.md). No label carries a video id, so cardinality
/// stays bounded however many videos a server handles. Registration is
/// cached in function-local statics; the hot path is one relaxed atomic
/// op.
obs::Histogram& RequestLatency(const char* endpoint);
obs::Counter& PageVisitsCounter();
obs::Counter& DotCacheCounter(bool hit);
obs::Counter& SessionsLoggedCounter();
/// Sessions acked without logging because their id was already stored
/// (router retry after an ack-lost crash; see LogSession idempotence).
obs::Counter& DuplicateSessionsCounter();
obs::Counter& InteractionEventsCounter();
obs::Counter& RefinePassesCounter();
obs::Counter& DotsUpdatedCounter();

/// Live-ingest path (`lightor_stream_*`, shared prefix with the core
/// engine's own series in core/streaming.cc).
obs::Counter& StreamIngestRequestsCounter();
obs::Counter& StreamProvisionalPublishesCounter();
obs::Counter& StreamFinalizedCounter();
obs::Gauge& ActiveStreamsGauge();
obs::Histogram& StreamIngestBatchLatency();

/// Concurrent-server internals (`lightor_serving_*`).
obs::Gauge& QueueDepthGauge();
obs::Counter& ShardContentionCounter();
obs::Counter& EnqueueDroppedCounter();
obs::Histogram& RefineBatchSessionsHistogram();
/// Enqueue-to-publish latency of provisional snapshots: how stale a
/// channel's served dots were at the moment a publish refreshed them.
/// Global (no per-channel labels — the registry's cardinality convention;
/// per-channel detail lives in `/debug/channels`).
obs::Histogram& ProvisionalStalenessHistogram();
/// Multi-channel ingest tier (`lightor_serving_channel_*`): admission
/// budgets + DRR scheduler accounting, aggregated across channels.
obs::Counter& ChannelAdmittedMessagesCounter();
obs::Counter& ChannelThrottledCounter();
obs::Counter& ChannelRejectedMessagesCounter();
obs::Counter& ChannelDrainRoundsCounter();
obs::Gauge& ChannelQueuedMessagesGauge();
obs::Gauge& ChannelActiveGauge();
obs::Histogram& RefineLatencyHistogram();
obs::Counter& RefineTriggerCounter(const char* trigger);
/// Checkpoint passes by what fired them: "explicit" (API / admin
/// endpoint), "sessions", "interval", "shutdown", "rescue" (a write found
/// a log wedged by an earlier I/O error).
obs::Counter& CheckpointTriggerCounter(const char* trigger);

}  // namespace lightor::serving

#endif  // LIGHTOR_SERVING_METRICS_H_
