#ifndef LIGHTOR_SERVING_HIGHLIGHT_SERVER_H_
#define LIGHTOR_SERVING_HIGHLIGHT_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/streaming.h"
#include "obs/trace_context.h"
#include "serving/api.h"
#include "serving/channel_scheduler.h"
#include "storage/checkpoint.h"
#include "storage/crawler.h"
#include "storage/database.h"

namespace lightor::serving {

/// Thread-safe concurrent serving layer over the LIGHTOR core pipeline:
/// the browser-extension backend of Section VI. A page visit crawls the
/// chat if needed and runs the Highlight Initializer; logged viewing
/// sessions feed Highlight Extractor refinement passes (serving/refine.h),
/// which publish updated dots. serving_server_test checks it against an
/// oracle that composes those public steps with no server or database.
///
/// Architecture:
///
///   * **Striped shards.** Per-video state (highlight snapshot, refine
///     watermark, pending-session count) lives in `num_shards` shards,
///     each under its own mutex, so requests for videos on different
///     shards never contend on server state.
///   * **Snapshot-on-write reads.** `OnPageVisit` / `GetHighlights` serve
///     an immutable versioned snapshot published by the last refinement
///     pass; a running refinement never blocks the read path (readers
///     take the shard mutex only for a pointer copy).
///   * **Background refinement workers.** `LogSession` appends to the
///     write-ahead-logged database and bumps the video's pending-session
///     count; when the count reaches `refine_batch_sessions`, the video
///     is enqueued on a bounded task queue drained by `num_workers`
///     threads, which batch everything logged since the watermark into
///     one `Refine` pass — callers never run refinement synchronously.
///   * **Graceful shutdown.** `Shutdown()` stops intake, drains pending
///     refinements (queued tasks and accumulated batches), and joins the
///     workers; the destructor calls it.
///
/// Lock ordering (deadlock-free by construction):
///   shard mutex → db mutex → queue mutex; never the reverse. The
///   database itself is guarded by one coarse mutex — the WAL serializes
///   writes anyway — while the snapshot cache keeps the hot read path off
///   it entirely. The first visit holds neither across its slow work: the
///   video is marked `initializing` under the shard mutex, the crawl and
///   the Initializer run with no lock held, the db mutex is taken only to
///   read stored chat and to persist, and the snapshot is installed under
///   the shard mutex again — never both locks at once.
class HighlightServer {
 public:
  /// Validates `options` and starts the worker pool. The `lightor`
  /// pipeline must already have a trained initializer.
  static common::Result<std::unique_ptr<HighlightServer>> Create(
      ServerOptions options);

  /// Stops intake, drains pending refinements, joins workers.
  ~HighlightServer();

  /// Explicit lifecycle (PR 7 API redesign): `Bootstrap` records what
  /// the `storage::DB::Open` that produced this server's database
  /// recovered, making recovery state observable by callers and the
  /// `/healthz` endpoint instead of implicit in construction.
  /// Idempotent (last call wins); thread-safe.
  void Bootstrap(const storage::RecoveryStats& stats);

  /// Recovery state recorded by `Bootstrap`, if any.
  struct RecoveryInfo {
    bool bootstrapped = false;
    storage::RecoveryStats stats;
  };
  RecoveryInfo recovery_info() const;

  /// Checkpoints the database now: snapshots live state, rotates to a
  /// fresh log generation, and truncates the history (the full protocol
  /// lives in storage/checkpoint.h). The background trigger
  /// (`checkpoint_every_sessions` / `checkpoint_interval_seconds` in
  /// ServerOptions) runs the same pass, and so does a write that finds a
  /// log wedged by an earlier I/O error (the "rescue" trigger). Thread-
  /// safe; holds the db mutex for the duration, so writes stall while the
  /// image is written.
  common::Result<storage::CheckpointStats> Checkpoint();

  HighlightServer(const HighlightServer&) = delete;
  HighlightServer& operator=(const HighlightServer&) = delete;

  /// A user opened a recorded-video page: serves the current snapshot,
  /// computing and persisting red dots on the video's first visit
  /// (crawling the chat if needed). Thread-safe. The first visit is
  /// single-flight: concurrent visits of the same video wait for its
  /// snapshot (and retry the initialization if it failed), while visits
  /// of every other video, same shard included, go on. For a video that
  /// is still live the visit serves the provisional snapshot (possibly
  /// empty) instead of running the batch initializer.
  common::Result<PageVisitResponse> OnPageVisit(const PageVisitRequest& req);

  /// Live-ingest path: feeds a timestamp-ordered batch of chat messages
  /// into the video's incremental engine, creating it on first touch.
  /// Publishes a fresh provisional snapshot every
  /// `stream_refresh_messages` accepted messages. Fails with
  /// FailedPrecondition when the video already has recorded (finalized
  /// or batch-initialized) highlights. Thread-safe.
  ///
  /// Admission: when a per-channel budget is configured
  /// (`ingest_rate_messages_per_sec`), a batch exceeding the channel's
  /// tokens returns OK with `throttled = true` and nothing applied.
  /// Accepted messages are queued for fair-share (DRR) draining; the
  /// accept/reject tally matches what the engine will do (the admission
  /// mirror enforces the same ordering rule), so an acked count is a
  /// promise the engine keeps. With no ingest workers the call drains
  /// its own batch and returns once it is in the engine, with any
  /// provisional snapshot it crossed the threshold for published.
  common::Result<IngestChatResponse> IngestChat(const IngestChatRequest& req);

  /// Blocks until every queued ingest batch has been drained into its
  /// engine, then publishes every stream's unpublished progress
  /// regardless of age. Test/CLI seam; thread-safe.
  void FlushIngest();

  /// Per-channel live-ingest accounting (queues, budgets, staleness) for
  /// the `/debug/channels` endpoint. Thread-safe.
  std::vector<ChannelScheduler::ChannelSnapshot> ChannelsSnapshot() const;

  /// Ends a live stream: finalizes the incremental engine (bit-exact
  /// with the batch initializer over the same messages), persists the
  /// result, and atomically swaps the provisional snapshot for it.
  /// Thread-safe; finalization itself runs outside the shard lock. A
  /// storage error while persisting returns the IoError and keeps the
  /// computed dots, with the stream still closed to ingest; a retry
  /// persists exactly those dots. A call racing another one on the same
  /// video fails with FailedPrecondition.
  common::Result<FinalizeStreamResponse> FinalizeStream(
      const FinalizeStreamRequest& req);

  /// Logs one viewing session and, when the video's batch threshold
  /// fires, schedules a background refinement pass. Thread-safe; never
  /// blocks on refinement (a full task queue drops the enqueue and the
  /// next session retries).
  common::Status LogSession(const LogSessionRequest& req);

  /// Synchronous on-demand refinement pass (waits for an in-flight
  /// background pass on the same video to finish first). Thread-safe.
  /// The updated dots are persisted all or none: on a storage error the
  /// pass publishes nothing, consumes no session and returns the error.
  common::Result<RefineReport> Refine(const std::string& video_id);

  /// Current highlight snapshot of a video (NotFound before the first
  /// visit). May populate the snapshot cache from the database, hence
  /// non-const. Thread-safe.
  common::Result<GetHighlightsResponse> GetHighlights(
      const std::string& video_id);

  /// Synchronously refines every video with unconsumed sessions. Returns
  /// the number of passes run.
  size_t Flush();

  /// Graceful shutdown with drain semantics: rejects new requests
  /// (FailedPrecondition), flushes pending refinements, joins the worker
  /// pool, and waits for first visits in flight. Idempotent.
  void Shutdown();

  /// Lame-duck announcement: marks the server as draining (visible in
  /// `/healthz` as `"state":"draining"`) WITHOUT rejecting anything —
  /// requests keep succeeding so a cluster router can eject this
  /// backend from its ring before the hard drain starts 503ing.
  /// Idempotent; `Shutdown()` implies it.
  void BeginDrain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// The `/metrics` endpoint. Exports the process-global obs::Registry
  /// (all servers in the process share it; series are told apart by the
  /// constant, video_id-free `server` label — see serving/metrics.h).
  std::string MetricsPage() const;

  const ServerOptions& options() const { return options_; }

 private:
  /// Immutable published highlight state; readers copy the shared_ptr
  /// under the shard mutex and read without it.
  struct Snapshot {
    uint64_t version = 0;
    std::vector<storage::HighlightRecord> records;
    /// Live-stream dots from the incremental engine's rolling scores;
    /// replaced by the batch-exact result on FinalizeStream.
    bool provisional = false;
  };

  /// A finalized stream's dots and the length they were computed at.
  struct FinalDots {
    std::vector<storage::HighlightRecord> records;
    double video_length = 0.0;
  };

  struct VideoState {
    std::shared_ptr<const Snapshot> snapshot;
    /// Interaction generation already consumed by refinement.
    uint64_t watermark = 0;
    /// Sessions logged since the last claimed batch (a failed pass
    /// hands its claimed count back).
    size_t pending_sessions = 0;
    bool refine_queued = false;
    bool refine_inflight = false;
    /// Non-null while the video is a live stream being ingested.
    std::unique_ptr<core::StreamingInitializer> stream;
    /// Accepted messages since the last provisional publish.
    size_t stream_since_publish = 0;
    /// Admission mirror of the engine's ordering rule: the
    /// timestamp of the last message acked for this channel, so the
    /// accept/reject tally computed at admission equals what the engine
    /// will decide at drain time.
    double admit_watermark = 0.0;
    bool admit_any = false;
    /// Admission time of the oldest accepted-but-not-yet-published
    /// message; drives the provisional-staleness histogram and the
    /// age-triggered publish.
    double oldest_unpublished_seconds = 0.0;
    bool has_unpublished = false;
    /// A FinalizeStream call holds the claimed engine or its dots.
    bool finalize_inflight = false;
    /// Dots a FinalizeStream computed but could not persist. The engine
    /// is spent, so the retried finalize re-puts exactly these.
    std::optional<FinalDots> unpersisted_final;
    /// A first visit is crawling and initializing the video with no lock
    /// held; other visits wait on `Shard::first_visit_done` and ingest is
    /// refused.
    bool initializing = false;

    /// Between the finalize claim and the final snapshot: reads serve the
    /// provisional dots and ingest is refused.
    bool finalizing() const {
      return finalize_inflight || unpersisted_final.has_value();
    }
    /// Still a live stream: provisional dots, not yet finalized.
    bool live() const { return stream != nullptr || finalizing(); }
  };

  struct Shard {
    mutable std::mutex mu;
    /// Signalled when an in-flight refinement pass completes.
    std::condition_variable refine_done;
    /// Signalled when a first visit clears its video's `initializing`.
    std::condition_variable first_visit_done;
    /// Values are stable under rehash (node-based map) and never erased.
    std::unordered_map<std::string, VideoState> videos;
  };

  /// A queued background refinement. Carries the trace context of the
  /// `LogSession` that tripped the batch threshold, so the asynchronous
  /// pass stays attributable to the request that caused it.
  struct RefineTask {
    std::string video_id;
    obs::TraceContext ctx;
  };

  explicit HighlightServer(ServerOptions options);

  size_t ShardIndexFor(const std::string& video_id) const;
  Shard& ShardFor(const std::string& video_id);
  /// Locks a shard, counting contention (failed try-lock) into metrics.
  static std::unique_lock<std::mutex> LockShard(const Shard& shard);

  /// Looks the video up in the shard map, loading its state from the
  /// database on first touch. Requires `lk` to hold `shard.mu`; takes
  /// db_mu_ internally. Returns nullptr when the video has no highlights
  /// anywhere, and for a live or initializing video without a snapshot.
  VideoState* FindOrLoadState(Shard& shard, const std::string& video_id,
                              const std::unique_lock<std::mutex>& lk);

  /// First-visit work of a video its caller marked `initializing`: reads
  /// stored chat or fetches the crawl, runs the Initializer, then stores
  /// the crawl and the dots under one db_mu_ hold. Requires no lock held;
  /// the caller installs the returned snapshot (version 1). The
  /// Initializer sees the chat in stored order, so the dots equal those a
  /// restart recomputes from the database.
  common::Result<std::shared_ptr<const Snapshot>> InitializeVideo(
      const std::string& video_id);

  /// Converts red dots to servable highlight records (shared by the
  /// batch first-visit path, provisional publishes, and finalize).
  std::vector<storage::HighlightRecord> RecordsFromDots(
      const std::string& video_id,
      const std::vector<core::RedDot>& dots) const;

  /// Publishes a provisional snapshot for `state` if the refresh
  /// threshold or the staleness age trigger fires (`force` publishes any
  /// unpublished progress regardless). Requires the shard mutex held.
  void MaybePublishProvisional(const std::string& video_id, VideoState& state,
                               bool force);

  /// ChannelScheduler drain callback on its workers: takes the shard lock
  /// and runs `DrainIntoEngine`.
  void DrainChannelBatches(const std::string& video_id,
                           std::vector<ChannelScheduler::Batch> batches);
  /// Feeds a channel's admitted batches into its engine and publishes
  /// when due. Requires the shard mutex held; with no ingest workers
  /// `IngestChat` passes it to `ChannelScheduler::Offer`.
  void DrainIntoEngine(const std::string& video_id, VideoState& state,
                       std::vector<ChannelScheduler::Batch> batches);

  /// Arms the channel's publish deadline (oldest unpublished admission +
  /// `stream_publish_max_delay_seconds`) when it has unpublished
  /// messages and the bound is set. Requires the shard mutex held.
  void ArmPublishDeadline(const std::string& video_id,
                          const VideoState& state);

  /// ChannelScheduler deadline callback: publishes the channel if its
  /// oldest unpublished message has aged past the bound (a no-op when a
  /// drain or finalize published it first).
  void PublishDueProvisional(const std::string& video_id);

  /// Flush tail of `FlushIngest` and `Shutdown`: publishes every
  /// stream's unpublished progress regardless of age.
  void PublishAllProvisionals();

  /// One full refinement pass (the worker body and the synchronous
  /// `Refine`). `trigger` is "batch", "explicit", or "drain".
  common::Result<RefineReport> RefinePass(const std::string& video_id,
                                          const char* trigger);

  /// Ends a failed pass: clears the claim, hands the claimed pending
  /// count back (the watermark did not move, so those sessions are still
  /// unconsumed), and wakes waiters. Takes the shard lock: never call it
  /// with db_mu_ held.
  void ReleaseRefineClaim(Shard& shard, const std::string& video_id,
                          size_t claimed_pending);

  /// Pushes a refine task unless the queue is full; returns whether the
  /// task was accepted. Never blocks.
  bool TryEnqueueRefine(const std::string& video_id);

  void WorkerLoop();

  /// One checkpoint run; requires db_mu_ held. `trigger` labels the
  /// metric ("explicit", "sessions", "interval", "shutdown", "rescue").
  /// With `skip_if_clean`, a run with no records since the last
  /// checkpoint is skipped (the timer must not churn empty generations).
  common::Result<storage::CheckpointStats> CheckpointPass(
      const char* trigger, bool skip_if_clean);
  /// Called before a write, with db_mu_ held: when an earlier I/O error
  /// wedged a log, runs one "rescue" checkpoint, whose fresh generation
  /// un-wedges it. If that fails the write answers the wedge's IoError.
  void RescueWedgedLog();
  /// Wakes the checkpoint thread (session-count trigger fired).
  void RequestCheckpoint();
  void CheckpointLoop();

  ServerOptions options_;
  storage::Crawler crawler_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Per-channel admission budgets + DRR drain tier. Its workers call
  /// back into `DrainChannelBatches` and `PublishDueProvisional`, which
  /// take shard locks — the scheduler never holds its own lock across a
  /// callback, so shard → scheduler ordering is acyclic. With no workers
  /// the ingesting caller drains under the shard lock it already holds.
  std::unique_ptr<ChannelScheduler> ingest_scheduler_;

  /// Coarse database mutex; see the lock-ordering note above.
  std::mutex db_mu_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<RefineTask> queue_;
  bool stop_ = false;  ///< guarded by queue_mu_

  std::atomic<bool> accepting_{true};
  /// Lame-duck flag: announce-only; set by BeginDrain() and Shutdown().
  std::atomic<bool> draining_{false};
  bool shut_down_ = false;  ///< guarded by shutdown_mu_
  std::mutex shutdown_mu_;

  std::vector<std::thread> workers_;

  mutable std::mutex recovery_mu_;
  RecoveryInfo recovery_;  ///< guarded by recovery_mu_

  /// Sessions logged since the last checkpoint (trigger accounting).
  std::atomic<size_t> sessions_since_checkpoint_{0};
  uint64_t last_checkpoint_lsn_ = 0;  ///< guarded by db_mu_
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  bool ckpt_requested_ = false;  ///< guarded by ckpt_mu_
  bool ckpt_stop_ = false;       ///< guarded by ckpt_mu_
  /// Runs CheckpointLoop when either background trigger is enabled.
  std::thread checkpoint_thread_;
};

}  // namespace lightor::serving

#endif  // LIGHTOR_SERVING_HIGHLIGHT_SERVER_H_
