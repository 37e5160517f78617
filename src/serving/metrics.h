#ifndef LIGHTOR_SERVING_METRICS_H_
#define LIGHTOR_SERVING_METRICS_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace lightor::serving {

/// The one `/metrics` export path: a snapshot of the process-global
/// obs::Registry rendered as Prometheus text (the default) or as the
/// exporter JSON when `format == "json"`. Shared by
/// `WebService::MetricsPage`, `HighlightServer::MetricsPage`, and the
/// HTTP front-end's `GET /metrics?format=json`; unknown formats fall
/// back to Prometheus so the endpoint never errors on a typo.
std::string ExportMetricsPage(std::string_view format = "prometheus");

/// Which serving implementation a sample came from. Metric series shared
/// by both are labelled `server="reference"|"concurrent"` — a constant,
/// video_id-free label, so cardinality stays bounded no matter how many
/// videos a server handles (per-video labels would explode the registry).
enum class ServerKind { kReference, kConcurrent };

/// Request-path series shared by WebService and HighlightServer
/// (`lightor_web_*`, as documented in DESIGN.md). Registration is cached
/// per (family, label) in function-local statics; the hot path is one
/// relaxed atomic op.
obs::Histogram& RequestLatency(const char* endpoint, ServerKind kind);
obs::Counter& PageVisitsCounter(ServerKind kind);
obs::Counter& DotCacheCounter(ServerKind kind, bool hit);
obs::Counter& SessionsLoggedCounter(ServerKind kind);
/// Sessions acked without logging because their id was already stored
/// (router retry after an ack-lost crash; see LogSession idempotence).
obs::Counter& DuplicateSessionsCounter(ServerKind kind);
obs::Counter& InteractionEventsCounter(ServerKind kind);
obs::Counter& RefinePassesCounter(ServerKind kind);
obs::Counter& DotsUpdatedCounter(ServerKind kind);

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
