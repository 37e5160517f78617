#ifndef LIGHTOR_SERVING_API_H_
#define LIGHTOR_SERVING_API_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/extractor.h"
#include "core/lightor.h"
#include "serving/channel_scheduler.h"
#include "sim/platform.h"
#include "sim/viewer.h"
#include "storage/database.h"
#include "storage/record.h"

namespace lightor::serving {

/// Wraps a raw pointer in a non-owning `shared_ptr` (no-op deleter). The
/// serving options hold dependencies as `shared_ptr`s so ownership is
/// explicit at the call site: pass `Borrow(&db)` to lend an object the
/// caller keeps alive, or a real `shared_ptr` to hand over ownership.
template <typename T>
std::shared_ptr<T> Borrow(T* ptr) {
  return std::shared_ptr<T>(ptr, [](T*) {});
}

/// Configuration of a `HighlightServer`.
struct ServerOptions {
  /// Dependencies. Either borrowed (`Borrow(&x)`, caller keeps `x` alive
  /// for the service's lifetime) or owned (a plain `shared_ptr`). The
  /// `lightor` pipeline must already have a trained initializer.
  std::shared_ptr<const sim::Platform> platform;
  std::shared_ptr<storage::Database> db;
  std::shared_ptr<const core::Lightor> lightor;

  /// Red dots published per video.
  size_t top_k = 5;

  // --- Concurrency knobs ---

  /// Striped per-video state shards. Requests for videos on different
  /// shards never contend on server state.
  size_t num_shards = 16;
  /// Background refinement worker threads.
  size_t num_workers = 2;
  /// A video's pending-session count that triggers a background
  /// refinement pass (the watermark-delta threshold). 0 disables
  /// background refinement (explicit `Refine` / `Flush` only).
  size_t refine_batch_sessions = 8;
  /// Bounded refinement task queue. When full, enqueues are dropped (the
  /// next logged session retries), never blocked on.
  size_t max_queue_depth = 256;

  /// Live ingest: publish a fresh provisional snapshot after this many
  /// accepted chat messages on a streaming video. Small values re-score
  /// more often (each publish runs the streaming scorer over the windows
  /// closed so far); large values serve staler provisional dots.
  size_t stream_refresh_messages = 64;

  // --- Multi-channel live ingest ---

  /// Ingest drain worker threads. Admitted batches always land in
  /// per-channel queues drained deficit-round-robin, so one flash-crowd
  /// channel cannot starve a thousand cold ones (see
  /// serving/channel_scheduler.h). With 0 (the default) `IngestChat`
  /// runs the drain visit for its channel itself and returns once its
  /// batch is in the engine; with > 0 worker threads drain the queues
  /// and `IngestChat` returns once the batch is queued.
  size_t ingest_workers = 0;
  /// Per-channel admission budget: token-bucket refill rate in
  /// messages/second. 0 disables admission control. A batch exceeding
  /// the available tokens is refused whole — the response carries
  /// `throttled` plus a Retry-After delay, and nothing is ingested.
  double ingest_rate_messages_per_sec = 0.0;
  /// Token-bucket capacity (burst allowance); 0 defaults to 4× the
  /// rate. Must exceed the largest batch clients send.
  double ingest_burst_messages = 0.0;
  /// Per-channel queued-message cap on the workers' backlog; overflow
  /// throttles. Not applied with no workers (there is no backlog).
  size_t ingest_queue_messages = 8192;
  /// DRR quantum: messages drained per channel per scheduler visit.
  size_t ingest_quantum_messages = 256;
  /// Requires `ingest_workers > 0`: a deadline for provisional dots.
  /// When a drain leaves a channel with unpublished messages, the
  /// scheduler arms a deadline at the oldest one's admission time plus
  /// this delay, and its workers publish the channel when it comes due,
  /// even below the refresh threshold and with no further traffic. 0
  /// disables it (threshold-only publishes).
  double stream_publish_max_delay_seconds = 0.0;
  /// Test seam: monotonic clock (seconds) for admission budgets and
  /// staleness accounting. Null uses the steady clock.
  std::function<double()> ingest_clock;

  /// Batch the interaction-log flushes on the session-logging path:
  /// `LogSession` appends without an fsync-style flush, and the server
  /// flushes before every refinement pass consumes a batch and at
  /// shutdown. Keeps the per-record flush default (zero-loss recovery)
  /// for everything else; a crash loses at most the sessions logged
  /// since the last refinement pass.
  bool batched_session_flush = false;

  // --- Background checkpointing ---

  /// Run a storage checkpoint (snapshot live state, rotate and truncate
  /// the logs — see storage/checkpoint.h) after this many logged
  /// sessions. 0 disables the session-count trigger.
  size_t checkpoint_every_sessions = 0;
  /// Also checkpoint on a timer: every this many seconds, when records
  /// were written since the last checkpoint. 0 disables the timer.
  double checkpoint_interval_seconds = 0.0;

  /// The ingest scheduler's options: `ChannelScheduler` owns the rules
  /// that validate them.
  ChannelScheduler::Options IngestSchedulerOptions() const {
    ChannelScheduler::Options sched;
    sched.num_workers = ingest_workers;
    sched.rate_messages_per_sec = ingest_rate_messages_per_sec;
    sched.burst_messages = ingest_burst_messages;
    sched.max_queue_messages = ingest_queue_messages;
    sched.quantum_messages = ingest_quantum_messages;
    sched.clock = ingest_clock;
    return sched;
  }

  /// Validates the dependency pointers and knob ranges.
  common::Status Validate() const {
    if (platform == nullptr)
      return common::Status::InvalidArgument("ServerOptions: null platform");
    if (db == nullptr)
      return common::Status::InvalidArgument("ServerOptions: null db");
    if (lightor == nullptr)
      return common::Status::InvalidArgument("ServerOptions: null lightor");
    if (top_k == 0)
      return common::Status::InvalidArgument("ServerOptions: top_k == 0");
    if (num_shards == 0)
      return common::Status::InvalidArgument("ServerOptions: num_shards == 0");
    if (max_queue_depth == 0)
      return common::Status::InvalidArgument(
          "ServerOptions: max_queue_depth == 0");
    if (stream_refresh_messages == 0)
      return common::Status::InvalidArgument(
          "ServerOptions: stream_refresh_messages == 0");
    if (stream_publish_max_delay_seconds < 0.0)
      return common::Status::InvalidArgument(
          "ServerOptions: negative stream_publish_max_delay_seconds");
    if (stream_publish_max_delay_seconds > 0.0 && ingest_workers == 0)
      return common::Status::InvalidArgument(
          "ServerOptions: stream_publish_max_delay_seconds needs ingest "
          "workers to keep it");
    return IngestSchedulerOptions().Validate();
  }
};

/// A user opened a recorded-video page.
struct PageVisitRequest {
  std::string video_id;
  std::string user;  ///< optional; for logging only
};

/// The red dots to render on the progress bar.
struct PageVisitResponse {
  std::vector<storage::HighlightRecord> highlights;
  /// True when this visit ran the Highlight Initializer (first visit).
  bool first_visit = false;
  /// Version of the served highlight snapshot; strictly increases with
  /// every refinement pass of the video. 0 only on the empty response of
  /// a live video before its first provisional publish.
  uint64_t snapshot_version = 0;
  /// True while the video is a live stream: the dots come from the
  /// incremental engine's rolling scores and will be atomically replaced
  /// by the batch-exact result when the stream finalizes.
  bool provisional = false;
};

/// A batch of live chat messages for a video that is still broadcasting
/// (the streaming ingest path). Messages must be timestamp-ordered;
/// stragglers with decreasing timestamps are counted and dropped.
struct IngestChatRequest {
  std::string video_id;
  std::vector<core::Message> messages;
};

struct IngestChatResponse {
  size_t accepted = 0;
  size_t rejected = 0;  ///< out-of-order messages dropped
  /// True when this call's drain crossed the refresh threshold and
  /// published a new provisional snapshot. Always false with ingest
  /// workers (accepted messages are queued; publishes happen on drain).
  bool provisional_published = false;
  /// Version of the currently served snapshot (0 before the first
  /// provisional publish).
  uint64_t snapshot_version = 0;
  /// The channel's admission budget refused this batch whole: nothing
  /// was ingested or queued (accepted == rejected == 0), and the client
  /// should retry after `retry_after_seconds`. The HTTP layer turns
  /// this into 429 + Retry-After.
  bool throttled = false;
  /// Seconds until the channel's token bucket has refilled enough for a
  /// batch of this size. 0 unless `throttled`.
  double retry_after_seconds = 0.0;
};

/// Ends a live stream: closes the remaining windows, swaps the
/// provisional snapshot for the batch-exact result, and persists it.
struct FinalizeStreamRequest {
  std::string video_id;
  /// Authoritative video length. <= 0 means resolve automatically: the
  /// platform's metadata when available, else the stream's watermark.
  double video_length = 0.0;
};

struct FinalizeStreamResponse {
  std::vector<storage::HighlightRecord> highlights;
  uint64_t snapshot_version = 0;
  double video_length = 0.0;  ///< the resolved length actually used
};

/// One viewing session's interaction events, uploaded by the frontend.
struct LogSessionRequest {
  std::string video_id;
  std::string user;
  uint64_t session_id = 0;
  std::vector<sim::InteractionEvent> events;
};

/// Current highlights of a video.
struct GetHighlightsResponse {
  std::vector<storage::HighlightRecord> highlights;
  uint64_t snapshot_version = 0;  ///< 0 while live and unpublished
  bool provisional = false;       ///< live-stream dots, not yet finalized
};

/// Outcome of one refinement pass for one red dot.
struct DotRefineOutcome {
  int32_t dot_index = 0;
  /// True when the pass had plays for this dot and re-published it.
  bool updated = false;
  core::DotType type = core::DotType::kTypeII;
  bool enough_plays = false;
  int plays_used = 0;
  double old_position = 0.0;
  double new_position = 0.0;
  bool converged = false;
};

/// Result of one Highlight Extractor refinement pass over a video.
struct RefineReport {
  std::string video_id;
  /// Dots whose state was re-published this pass.
  int dots_updated = 0;
  /// Sessions consumed from the interaction log (the batch size).
  size_t sessions_consumed = 0;
  /// Per-dot outcomes, ordered by dot index (only dots that had plays).
  std::vector<DotRefineOutcome> dots;
};

}  // namespace lightor::serving

#endif  // LIGHTOR_SERVING_API_H_
