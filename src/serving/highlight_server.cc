#include "serving/highlight_server.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serving/metrics.h"
#include "serving/refine.h"

namespace lightor::serving {

namespace {
common::Status ShuttingDown(const char* endpoint) {
  return common::Status::FailedPrecondition(
      std::string("HighlightServer: shutting down, rejected ") + endpoint);
}

std::vector<core::Message> ToMessages(
    const std::vector<storage::ChatRecord>& chat) {
  std::vector<core::Message> messages;
  messages.reserve(chat.size());
  for (const auto& rec : chat) {
    core::Message m;
    m.timestamp = rec.timestamp;
    m.user = rec.user;
    m.text = rec.text;
    messages.push_back(std::move(m));
  }
  return messages;
}
}  // namespace

common::Result<std::unique_ptr<HighlightServer>> HighlightServer::Create(
    ServerOptions options) {
  LIGHTOR_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<HighlightServer>(
      new HighlightServer(std::move(options)));
}

HighlightServer::HighlightServer(ServerOptions options)
    : options_(std::move(options)),
      crawler_(options_.platform.get(), options_.db.get()) {
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.batched_session_flush) {
    options_.db->SetInteractionFlushEachAppend(false);
  }
  // Restart dedupe happens eagerly, before any request can race it:
  // videos refined in a previous process have consumed everything
  // currently in the interaction log (see refine.h for the trade-off).
  for (auto& [video_id, watermark] : SeedWatermarksFromDb(*options_.db)) {
    ShardFor(video_id).videos[video_id].watermark = watermark;
  }
  // The per-channel admission + DRR tier. Always constructed: with
  // ingest_workers == 0 it is admission-only (and free when no budget is
  // configured); its workers call DrainChannelBatches, which takes shard
  // locks, so it must come after the shards and may start immediately.
  {
    ChannelScheduler::Options sched;
    sched.num_workers = options_.ingest_workers;
    sched.rate_messages_per_sec = options_.ingest_rate_messages_per_sec;
    sched.burst_messages = options_.ingest_burst_messages;
    sched.max_queue_messages = options_.ingest_queue_messages;
    sched.quantum_messages = options_.ingest_quantum_messages;
    sched.clock = options_.ingest_clock;
    ingest_scheduler_ =
        ChannelScheduler::Create(
            std::move(sched),
            [this](const std::string& id,
                   std::vector<ChannelScheduler::Batch> batches) {
              DrainChannelBatches(id, std::move(batches));
            },
            [this](const std::string& id) { PublishDueProvisional(id); })
            .value();
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // "Clean" for checkpoint purposes means: no records since this point.
  last_checkpoint_lsn_ = options_.db->lsn();
  if (options_.checkpoint_every_sessions > 0 ||
      options_.checkpoint_interval_seconds > 0.0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
}

HighlightServer::~HighlightServer() { Shutdown(); }

void HighlightServer::Bootstrap(const storage::RecoveryStats& stats) {
  std::lock_guard<std::mutex> lk(recovery_mu_);
  recovery_.bootstrapped = true;
  recovery_.stats = stats;
  LIGHTOR_LOG(Info) << "serving: bootstrapped from recovery (checkpoint gen "
                    << stats.checkpoint_gen << ", lsn " << stats.checkpoint_lsn
                    << ", " << stats.records_replayed << " records replayed in "
                    << stats.wall_seconds << "s)";
}

HighlightServer::RecoveryInfo HighlightServer::recovery_info() const {
  std::lock_guard<std::mutex> lk(recovery_mu_);
  return recovery_;
}

common::Result<storage::CheckpointStats> HighlightServer::Checkpoint() {
  std::lock_guard<std::mutex> db_lock(db_mu_);
  return CheckpointPass("explicit", /*skip_if_clean=*/false);
}

common::Result<storage::CheckpointStats> HighlightServer::CheckpointPass(
    const char* trigger, bool skip_if_clean) {
  if (skip_if_clean && options_.db->lsn() == last_checkpoint_lsn_) {
    return common::Status::FailedPrecondition(
        "checkpoint skipped: no records since the last one");
  }
  // In batched mode buffered interactions must hit the kernel before the
  // image snapshots them and the old log generation is dropped. A wedged
  // log is skipped: its buffer is gone, and the image comes from the
  // stores, which hold every acked record.
  if (options_.batched_session_flush &&
      !options_.db->interactions_wedged()) {
    LIGHTOR_RETURN_IF_ERROR(options_.db->FlushInteractions());
  }
  auto result = options_.db->Checkpoint();
  if (!result.ok()) {
    LIGHTOR_LOG(Warning) << "serving: checkpoint (" << trigger
                         << ") failed: " << result.status().ToString();
    return result.status();
  }
  last_checkpoint_lsn_ = result.value().lsn;
  sessions_since_checkpoint_.store(0, std::memory_order_relaxed);
  CheckpointTriggerCounter(trigger).Increment();
  LIGHTOR_LOG(Info) << "serving: checkpoint (" << trigger << ") wrote gen "
                    << result.value().gen << " at lsn " << result.value().lsn
                    << ", truncated " << result.value().log_bytes_truncated
                    << " log bytes";
  return result;
}

void HighlightServer::RescueWedgedLog() {
  if (options_.db->wedged()) {
    (void)CheckpointPass("rescue", /*skip_if_clean=*/false);
  }
}

void HighlightServer::RequestCheckpoint() {
  {
    std::lock_guard<std::mutex> lk(ckpt_mu_);
    ckpt_requested_ = true;
  }
  ckpt_cv_.notify_one();
}

void HighlightServer::CheckpointLoop() {
  const double interval = options_.checkpoint_interval_seconds;
  std::unique_lock<std::mutex> lk(ckpt_mu_);
  for (;;) {
    const auto woken = [&] { return ckpt_stop_ || ckpt_requested_; };
    if (interval > 0.0) {
      ckpt_cv_.wait_for(lk, std::chrono::duration<double>(interval), woken);
    } else {
      ckpt_cv_.wait(lk, woken);
    }
    if (ckpt_stop_) return;
    const bool requested = ckpt_requested_;
    ckpt_requested_ = false;
    lk.unlock();
    {
      // Timer ticks with nothing new skip quietly (FailedPrecondition).
      std::lock_guard<std::mutex> db_lock(db_mu_);
      (void)CheckpointPass(requested ? "sessions" : "interval",
                           /*skip_if_clean=*/true);
    }
    lk.lock();
  }
}

size_t HighlightServer::ShardIndexFor(const std::string& video_id) const {
  return std::hash<std::string>{}(video_id) % shards_.size();
}

HighlightServer::Shard& HighlightServer::ShardFor(
    const std::string& video_id) {
  const size_t index = ShardIndexFor(video_id);
  // Annotates the in-flight request's wide event (no-op outside one).
  obs::SetCurrentTraceShard(static_cast<int>(index));
  return *shards_[index];
}

std::unique_lock<std::mutex> HighlightServer::LockShard(const Shard& shard) {
  std::unique_lock<std::mutex> lk(shard.mu, std::try_to_lock);
  if (!lk.owns_lock()) {
    ShardContentionCounter().Increment();
    lk.lock();
  }
  return lk;
}

HighlightServer::VideoState* HighlightServer::FindOrLoadState(
    Shard& shard, const std::string& video_id,
    const std::unique_lock<std::mutex>& lk) {
  (void)lk;  // documents the precondition: shard.mu is held
  auto it = shard.videos.find(video_id);
  if (it != shard.videos.end() && it->second.snapshot != nullptr) {
    return &it->second;
  }
  // A live stream's only database dots are a prefix a failed finalize
  // began to persist; they are not final until its retry succeeds. A
  // first visit in flight installs its own snapshot.
  if (it != shard.videos.end() &&
      (it->second.live() || it->second.initializing)) {
    return nullptr;
  }
  // First touch this process (or only a seeded watermark so far): pull
  // the published state from the database, if any.
  std::vector<storage::HighlightRecord> records;
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    if (!options_.db->highlights().HasVideo(video_id)) return nullptr;
    records = options_.db->highlights().GetLatest(video_id);
  }
  VideoState& state = shard.videos[video_id];  // keeps a seeded watermark
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->version = 1;
  snapshot->records = std::move(records);
  state.snapshot = std::move(snapshot);
  return &state;
}

common::Result<std::shared_ptr<const HighlightServer::Snapshot>>
HighlightServer::InitializeVideo(const std::string& video_id) {
  obs::ScopedSpan span("serving.InitializeVideo");
  // Chat an earlier process (or a visit whose dots failed to persist)
  // stored is read back; otherwise the crawl's fetch step runs with no
  // lock held.
  std::vector<core::Message> messages;
  std::vector<storage::ChatRecord> crawled;
  bool stored = false;
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    stored = crawler_.HasChat(video_id);
    if (stored) messages = ToMessages(options_.db->chat().GetByVideo(video_id));
  }
  if (!stored) {
    LIGHTOR_ASSIGN_OR_RETURN(crawled, crawler_.Fetch(video_id));
    messages = ToMessages(crawled);
  }
  // The platform knows the true video length; fall back to the last
  // message (both orders are by timestamp) when metadata is unavailable.
  double video_length = messages.empty() ? 0.0 : messages.back().timestamp;
  if (auto length = options_.platform->VideoLength(video_id); length.ok()) {
    video_length = length.value();
  }
  auto dots =
      options_.lightor->Initialize(messages, video_length, options_.top_k);
  if (!dots.ok()) return dots.status();

  auto snapshot = std::make_shared<Snapshot>();
  snapshot->version = 1;
  snapshot->records = RecordsFromDots(video_id, dots.value());
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    RescueWedgedLog();
    if (!stored && !options_.db->chat().HasVideo(video_id)) {
      LIGHTOR_RETURN_IF_ERROR(crawler_.Store(std::move(crawled)));
    }
    LIGHTOR_RETURN_IF_ERROR(options_.db->PutHighlight(snapshot->records));
  }
  LIGHTOR_LOG(Info) << "serving: first visit of " << video_id << " placed "
                    << snapshot->records.size() << " red dots";
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

std::vector<storage::HighlightRecord> HighlightServer::RecordsFromDots(
    const std::string& video_id,
    const std::vector<core::RedDot>& dots) const {
  const double fallback =
      options_.lightor->options().extractor.fallback_length;
  std::vector<storage::HighlightRecord> records;
  records.reserve(dots.size());
  for (size_t i = 0; i < dots.size(); ++i) {
    const core::RedDot& dot = dots[i];
    storage::HighlightRecord rec;
    rec.video_id = video_id;
    rec.dot_index = static_cast<int32_t>(i);
    rec.dot_position = dot.position;
    rec.start = dot.position;
    rec.end = dot.position + fallback;
    rec.score = dot.score;
    rec.iteration = 0;
    rec.converged = false;
    records.push_back(std::move(rec));
  }
  return records;
}

common::Result<PageVisitResponse> HighlightServer::OnPageVisit(
    const PageVisitRequest& req) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return ShuttingDown("OnPageVisit");
  }
  obs::ScopedSpan span("serving.OnPageVisit");
  obs::ScopedTimer timer(&RequestLatency("page_visit"));
  PageVisitsCounter().Increment();

  Shard& shard = ShardFor(req.video_id);
  PageVisitResponse response;
  {
    auto lk = LockShard(shard);
    for (;;) {
      if (VideoState* state = FindOrLoadState(shard, req.video_id, lk)) {
        DotCacheCounter(/*hit=*/true).Increment();
        response.highlights = state->snapshot->records;
        response.snapshot_version = state->snapshot->version;
        response.provisional = state->snapshot->provisional;
        return response;
      }
      auto it = shard.videos.find(req.video_id);
      if (it == shard.videos.end()) break;
      VideoState& state = it->second;
      if (state.live()) {
        // Live video before its first provisional publish: nothing to
        // show yet, and the batch initializer must not run on a moving
        // target.
        response.provisional = true;
        return response;
      }
      if (!state.initializing) break;
      // Single flight: another visit is initializing this video. Serve
      // its snapshot, or take over if it failed.
      shard.first_visit_done.wait(lk, [&] { return !state.initializing; });
    }
    shard.videos[req.video_id].initializing = true;
  }
  // Crawl, Initialize and persist with no shard lock held: reads of the
  // shard's other videos go on, and so do first visits elsewhere.
  DotCacheCounter(/*hit=*/false).Increment();
  auto snapshot = InitializeVideo(req.video_id);
  {
    auto lk = LockShard(shard);
    VideoState& state = shard.videos[req.video_id];
    state.initializing = false;
    if (snapshot.ok()) state.snapshot = snapshot.value();
  }
  shard.first_visit_done.notify_all();
  if (!snapshot.ok()) return snapshot.status();
  response.highlights = snapshot.value()->records;
  response.snapshot_version = snapshot.value()->version;
  response.first_visit = true;
  return response;
}

double HighlightServer::IngestNow() const {
  if (options_.ingest_clock) return options_.ingest_clock();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool HighlightServer::MaybePublishProvisional(const std::string& video_id,
                                              VideoState& state, bool force) {
  if (state.stream == nullptr || state.stream_since_publish == 0) return false;
  const double now = IngestNow();
  const bool threshold =
      state.stream_since_publish >= options_.stream_refresh_messages;
  // The same sum the armed deadline holds: `now - oldest >= delay` can
  // round below the deadline the scheduler already found due.
  const double max_delay = options_.stream_publish_max_delay_seconds;
  const bool aged =
      max_delay > 0.0 && state.has_unpublished &&
      now >= state.oldest_unpublished_seconds + max_delay;
  if (!threshold && !aged && !force) return false;
  state.stream_since_publish = 0;
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->version =
      state.snapshot == nullptr ? 1 : state.snapshot->version + 1;
  snapshot->provisional = true;
  snapshot->records =
      RecordsFromDots(video_id, state.stream->Provisional(options_.top_k));
  state.snapshot = std::move(snapshot);
  StreamProvisionalPublishesCounter().Increment();
  // Staleness: admission of the oldest message this snapshot newly
  // covers → now. On the synchronous path that is intra-request time;
  // on the async path it includes the DRR queue wait, which is the
  // number the fairness SLO bounds.
  const double staleness =
      state.has_unpublished
          ? std::max(0.0, now - state.oldest_unpublished_seconds)
          : 0.0;
  state.has_unpublished = false;
  ProvisionalStalenessHistogram().Observe(staleness);
  ingest_scheduler_->RecordPublish(video_id, staleness);
  return true;
}

common::Result<IngestChatResponse> HighlightServer::IngestChat(
    const IngestChatRequest& req) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return ShuttingDown("IngestChat");
  }
  obs::ScopedSpan span("serving.IngestChat");
  obs::ScopedTimer timer(&StreamIngestBatchLatency());
  StreamIngestRequestsCounter().Increment();

  Shard& shard = ShardFor(req.video_id);
  auto lk = LockShard(shard);
  const VideoState* existing = FindOrLoadState(shard, req.video_id, lk);
  VideoState& state = shard.videos[req.video_id];
  if ((existing != nullptr && !existing->live()) || state.initializing) {
    return common::Status::FailedPrecondition(
        "IngestChat: video already has recorded highlights: " + req.video_id);
  }
  if (state.finalizing()) {
    return common::Status::FailedPrecondition(
        "IngestChat: stream is finalizing: " + req.video_id);
  }
  if (state.stream == nullptr) {
    state.stream = std::make_unique<core::StreamingInitializer>(
        &options_.lightor->initializer());
    ActiveStreamsGauge().Add(1.0);
    LIGHTOR_LOG(Info) << "serving: live stream opened for " << req.video_id;
  }
  IngestChatResponse response;
  if (options_.ingest_workers == 0) {
    // Synchronous path: admission check, then feed the engine inline.
    const ChannelScheduler::Admission admission =
        ingest_scheduler_->Admit(req.video_id, req.messages.size());
    if (!admission.admitted) {
      if (admission.closed) {
        return common::Status::FailedPrecondition(
            "IngestChat: stream is finalizing: " + req.video_id);
      }
      response.throttled = true;
      response.retry_after_seconds = admission.retry_after_seconds;
    } else {
      auto counts = state.stream->IngestBatch(req.messages);
      if (!counts.ok()) return counts.status();
      response.accepted = counts.value().accepted;
      response.rejected = counts.value().rejected;
      ingest_scheduler_->RecordRejected(req.video_id, response.rejected);
      if (response.accepted > 0) {
        state.stream_since_publish += response.accepted;
        if (!state.has_unpublished) {
          state.has_unpublished = true;
          state.oldest_unpublished_seconds = IngestNow();
        }
      }
      response.provisional_published =
          MaybePublishProvisional(req.video_id, state, /*force=*/false);
    }
  } else {
    // Fair-share path: mirror the engine's ordering rule here so the
    // tally acked to the client equals what the engine will decide at
    // drain time, then hand the accepted tail to the DRR queues. The
    // watermark only advances when the batch clears the budget — a
    // throttled batch leaves no trace.
    std::vector<core::Message> accepted;
    accepted.reserve(req.messages.size());
    double watermark = state.admit_watermark;
    bool any = state.admit_any;
    size_t rejected = 0;
    for (const auto& m : req.messages) {
      if (any && m.timestamp < watermark) {
        ++rejected;
        continue;
      }
      watermark = m.timestamp;
      any = true;
      accepted.push_back(m);
    }
    const size_t accepted_count = accepted.size();
    const ChannelScheduler::Admission admission = ingest_scheduler_->Offer(
        req.video_id, std::move(accepted), req.messages.size());
    if (!admission.admitted) {
      if (admission.closed) {
        return common::Status::FailedPrecondition(
            "IngestChat: stream is finalizing: " + req.video_id);
      }
      response.throttled = true;
      response.retry_after_seconds = admission.retry_after_seconds;
    } else {
      state.admit_watermark = watermark;
      state.admit_any = any;
      response.accepted = accepted_count;
      response.rejected = rejected;
      ingest_scheduler_->RecordRejected(req.video_id, rejected);
    }
  }
  if (state.snapshot != nullptr) {
    response.snapshot_version = state.snapshot->version;
  }
  return response;
}

void HighlightServer::DrainChannelBatches(
    const std::string& video_id,
    std::vector<ChannelScheduler::Batch> batches) {
  obs::ScopedSpan span("serving.DrainChannel");
  Shard& shard = ShardFor(video_id);
  auto lk = LockShard(shard);
  auto it = shard.videos.find(video_id);
  if (it == shard.videos.end() || it->second.stream == nullptr) {
    // The stream vanished between admission and drain. FinalizeStream
    // closes and flushes the channel before claiming the engine, so
    // this only happens when Shutdown dropped the stream; keep the
    // accounting honest.
    size_t lost = 0;
    for (const auto& b : batches) lost += b.messages.size();
    ingest_scheduler_->RecordRejected(video_id, lost);
    return;
  }
  VideoState& state = it->second;
  const bool was_unpublished = state.has_unpublished;
  for (auto& batch : batches) {
    auto counts = state.stream->IngestBatch(batch.messages);
    if (!counts.ok()) {
      ingest_scheduler_->RecordRejected(video_id, batch.messages.size());
      continue;
    }
    if (counts.value().accepted > 0 && !state.has_unpublished) {
      state.has_unpublished = true;
      state.oldest_unpublished_seconds = batch.enqueue_seconds;
    }
    state.stream_since_publish += counts.value().accepted;
    if (counts.value().rejected > 0) {
      ingest_scheduler_->RecordRejected(video_id, counts.value().rejected);
    }
  }
  MaybePublishProvisional(video_id, state, /*force=*/false);
  // First unpublished messages since the last publish: the bound becomes
  // a deadline the scheduler's workers keep, however quiet the channel
  // goes from here.
  if (!was_unpublished) ArmPublishDeadline(video_id, state);
}

void HighlightServer::ArmPublishDeadline(const std::string& video_id,
                                         const VideoState& state) {
  const double max_delay = options_.stream_publish_max_delay_seconds;
  if (max_delay <= 0.0 || !state.has_unpublished) return;
  ingest_scheduler_->ArmDeadline(video_id,
                                 state.oldest_unpublished_seconds + max_delay);
}

void HighlightServer::PublishDueProvisional(const std::string& video_id) {
  Shard& shard = ShardFor(video_id);
  auto lk = LockShard(shard);
  auto it = shard.videos.find(video_id);
  if (it == shard.videos.end()) return;
  MaybePublishProvisional(video_id, it->second, /*force=*/false);
}

void HighlightServer::PublishAllProvisionals() {
  for (auto& shard : shards_) {
    auto lk = LockShard(*shard);
    for (auto& [video_id, state] : shard->videos) {
      MaybePublishProvisional(video_id, state, /*force=*/true);
    }
  }
}

void HighlightServer::FlushIngest() {
  if (options_.ingest_workers > 0) ingest_scheduler_->FlushAll();
  PublishAllProvisionals();
}

std::vector<ChannelScheduler::ChannelSnapshot>
HighlightServer::ChannelsSnapshot() const {
  return ingest_scheduler_->Snapshot();
}

common::Result<FinalizeStreamResponse> HighlightServer::FinalizeStream(
    const FinalizeStreamRequest& req) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return ShuttingDown("FinalizeStream");
  }
  obs::ScopedSpan span("serving.FinalizeStream");

  // No-ack-drop: before the engine is claimed, stop the channel's
  // admission and drain its queue, so every 200-acked message is in the
  // engine when the final scores are computed. Must run without the
  // shard lock (the drain workers take it).
  ingest_scheduler_->CloseChannel(req.video_id);

  // Claim the engine: moving it out under the shard lock makes finalize
  // one-shot and lets the (possibly long) batch tail run without holding
  // the lock. Readers keep being served the last provisional snapshot.
  // A video whose earlier finalize computed its dots but failed to
  // persist them skips straight to the persist step with those dots.
  Shard& shard = ShardFor(req.video_id);
  std::unique_ptr<core::StreamingInitializer> engine;
  FinalDots final_dots;
  {
    auto lk = LockShard(shard);
    auto it = shard.videos.find(req.video_id);
    if (it != shard.videos.end() && it->second.finalize_inflight) {
      return common::Status::FailedPrecondition(
          "FinalizeStream: already finalizing: " + req.video_id);
    }
    if (it == shard.videos.end() || !it->second.live()) {
      lk.unlock();
      ingest_scheduler_->ReopenChannel(req.video_id);
      return common::Status::FailedPrecondition(
          "FinalizeStream: no active stream for video: " + req.video_id);
    }
    it->second.finalize_inflight = true;
    if (it->second.unpersisted_final.has_value()) {
      final_dots = *it->second.unpersisted_final;
    } else {
      engine = std::move(it->second.stream);
    }
  }

  if (engine != nullptr) {
    // Resolve the authoritative length: caller > platform metadata >
    // stream watermark (the platform is immutable, no lock needed).
    double video_length = req.video_length;
    if (video_length <= 0.0) {
      video_length = options_.platform->VideoLength(req.video_id)
                         .value_or(engine->stats().watermark);
    }
    auto dots = engine->Finalize(video_length, options_.top_k);
    auto lk = LockShard(shard);
    VideoState& state = shard.videos[req.video_id];
    if (!dots.ok()) {
      // e.g. a length behind the watermark: hand the engine back (and
      // reopen the channel's admission) so the caller can retry with a
      // valid length. A deadline that came due meanwhile found no engine.
      state.stream = std::move(engine);
      state.finalize_inflight = false;
      ArmPublishDeadline(req.video_id, state);
      lk.unlock();
      ingest_scheduler_->ReopenChannel(req.video_id);
      return dots.status();
    }
    final_dots.records = RecordsFromDots(req.video_id, dots.value());
    final_dots.video_length = video_length;
    state.unpersisted_final = final_dots;
  }

  // Persist. On a storage error the dots stay on the video's state and
  // the channel stays closed: the caller gets the IoError (503 +
  // Retry-After on the wire), and a retry re-puts the same records, which
  // is idempotent because the store keeps the latest record per dot.
  common::Status persisted;
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    RescueWedgedLog();
    persisted = options_.db->PutHighlight(final_dots.records);
  }
  FinalizeStreamResponse response;
  response.video_length = final_dots.video_length;
  {
    auto lk = LockShard(shard);
    VideoState& state = shard.videos[req.video_id];
    state.finalize_inflight = false;
    if (!persisted.ok()) return persisted;
    state.unpersisted_final.reset();
    auto snapshot = std::make_shared<Snapshot>();
    snapshot->version =
        state.snapshot == nullptr ? 1 : state.snapshot->version + 1;
    snapshot->records = final_dots.records;
    state.snapshot = std::move(snapshot);
    response.snapshot_version = state.snapshot->version;
    // The final snapshot covers whatever the provisional publishes had
    // not yet; account its staleness like any other publish.
    if (state.has_unpublished) {
      const double staleness =
          std::max(0.0, IngestNow() - state.oldest_unpublished_seconds);
      ProvisionalStalenessHistogram().Observe(staleness);
      ingest_scheduler_->RecordPublish(req.video_id, staleness);
      state.has_unpublished = false;
    }
  }
  ActiveStreamsGauge().Add(-1.0);
  StreamFinalizedCounter().Increment();
  response.highlights = std::move(final_dots.records);
  LIGHTOR_LOG(Info) << "serving: stream " << req.video_id << " finalized at "
                    << response.video_length << "s with "
                    << response.highlights.size() << " red dots";
  return response;
}

common::Status HighlightServer::LogSession(const LogSessionRequest& req) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return ShuttingDown("LogSession");
  }
  obs::ScopedTimer timer(&RequestLatency("log_session"));
  SessionsLoggedCounter().Increment();
  InteractionEventsCounter().Increment(req.events.size());
  {
    // The durable write is the dominant cost of this endpoint; charge it
    // to the storage_flush stage of the in-flight request's trace.
    obs::ScopedStage stage(obs::Stage::kStorageFlush);
    std::lock_guard<std::mutex> db_lock(db_mu_);
    // Idempotence: a router may resend a session whose ack was lost in a
    // backend crash after some durable writes. Events are separate log
    // records, so a crash can persist a strict *prefix* of the session;
    // dedup therefore works at event granularity. Retries carry the
    // identical body (session ids are unique per video), so events
    // [0, have) are exactly the ones already logged — append only the
    // missing suffix, and ack without writing when nothing is missing.
    const size_t have = options_.db->interactions().SessionEventCount(
        req.video_id, req.session_id);
    if (have >= req.events.size()) {
      DuplicateSessionsCounter().Increment();
      return common::Status::OK();
    }
    if (have > 0) DuplicateSessionsCounter().Increment();
    RescueWedgedLog();
    for (size_t i = have; i < req.events.size(); ++i) {
      const auto& ev = req.events[i];
      storage::InteractionRecord rec;
      rec.video_id = req.video_id;
      rec.user = req.user;
      rec.session_id = req.session_id;
      rec.event = FromSimType(ev.type);
      rec.wall_time = ev.wall_time;
      rec.position = ev.position;
      rec.target = ev.target;
      LIGHTOR_RETURN_IF_ERROR(options_.db->PutInteraction(rec));
    }
  }
  if (options_.checkpoint_every_sessions > 0 &&
      sessions_since_checkpoint_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          options_.checkpoint_every_sessions) {
    RequestCheckpoint();
  }
  // Batch accounting. Videos without published dots have nothing to
  // refine; their sessions stay in the log until the first page visit.
  Shard& shard = ShardFor(req.video_id);
  auto lk = LockShard(shard);
  VideoState* state = FindOrLoadState(shard, req.video_id, lk);
  if (state == nullptr) return common::Status::OK();
  // Provisional dots move with the stream; refining them would waste a
  // pass on positions about to be replaced. The sessions stay in the log
  // and are picked up by the first post-finalize pass.
  if (state->stream != nullptr || state->snapshot->provisional) {
    return common::Status::OK();
  }
  ++state->pending_sessions;
  const size_t threshold = options_.refine_batch_sessions;
  if (threshold > 0 && state->pending_sessions >= threshold &&
      !state->refine_queued && !state->refine_inflight) {
    if (TryEnqueueRefine(req.video_id)) {
      state->refine_queued = true;
    } else {
      EnqueueDroppedCounter().Increment();
    }
  }
  return common::Status::OK();
}

common::Result<GetHighlightsResponse> HighlightServer::GetHighlights(
    const std::string& video_id) {
  obs::ScopedTimer timer(&RequestLatency("get_highlights"));
  Shard& shard = ShardFor(video_id);
  auto lk = LockShard(shard);
  VideoState* state = FindOrLoadState(shard, video_id, lk);
  GetHighlightsResponse response;
  if (state == nullptr) {
    if (auto it = shard.videos.find(video_id);
        it != shard.videos.end() && it->second.live()) {
      response.provisional = true;  // live, nothing published yet
      return response;
    }
    return common::Status::NotFound("no highlights for video: " + video_id);
  }
  response.highlights = state->snapshot->records;
  response.snapshot_version = state->snapshot->version;
  response.provisional = state->snapshot->provisional;
  return response;
}

common::Result<RefineReport> HighlightServer::Refine(
    const std::string& video_id) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return ShuttingDown("Refine");
  }
  return RefinePass(video_id, "explicit");
}

common::Result<RefineReport> HighlightServer::RefinePass(
    const std::string& video_id, const char* trigger) {
  obs::ScopedSpan span("serving.RefinePass");
  obs::ScopedTimer timer(&RequestLatency("refine"));
  obs::ScopedTimer refine_timer(&RefineLatencyHistogram());
  RefinePassesCounter().Increment();
  RefineTriggerCounter(trigger).Increment();

  // Claim the video: one pass at a time per video, so two passes never
  // consume the same watermark range or publish out of order.
  Shard& shard = ShardFor(video_id);
  uint64_t watermark = 0;
  size_t claimed_pending = 0;
  std::shared_ptr<const Snapshot> snapshot;
  {
    auto lk = LockShard(shard);
    VideoState* state = FindOrLoadState(shard, video_id, lk);
    if (state == nullptr) {
      return common::Status::NotFound("Refine: video has no red dots yet: " +
                                      video_id);
    }
    if (state->stream != nullptr || state->snapshot->provisional) {
      return common::Status::FailedPrecondition(
          "Refine: video is live — finalize the stream first: " + video_id);
    }
    shard.refine_done.wait(lk, [&] { return !state->refine_inflight; });
    state->refine_inflight = true;
    claimed_pending = std::exchange(state->pending_sessions, 0);
    watermark = state->watermark;
    snapshot = state->snapshot;
  }

  // Read the batch. Generation and session read happen under one db_mu_
  // hold, so the new watermark covers exactly the sessions consumed.
  // A failure releases the claim outside db_mu_ (the shard -> db lock
  // order), or every later pass on this video would wait forever.
  std::map<uint64_t, std::vector<storage::InteractionRecord>> sessions;
  uint64_t new_watermark = 0;
  common::Status status = common::Status::OK();
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    // In batched-flush mode the consumed sessions must be durable before
    // the watermark advances past them, or a crash could lose records a
    // restarted server will never re-consume.
    if (options_.batched_session_flush) {
      RescueWedgedLog();
      status = options_.db->FlushInteractions();
    }
    if (status.ok()) {
      sessions =
          options_.db->interactions().SessionsSince(video_id, watermark);
      new_watermark = options_.db->interactions().current_generation() + 1;
    }
  }
  if (!status.ok()) {
    ReleaseRefineClaim(shard, video_id, claimed_pending);
    return status;
  }
  RefineBatchSessionsHistogram().Observe(
      static_cast<double>(sessions.size()));

  // The expensive part — filtering, classification, aggregation — runs
  // with no lock held; readers keep being served the old snapshot.
  auto pass =
      RunRefinePass(*options_.lightor, video_id, snapshot->records, sessions);

  // Persist the updated dots as one batch, all or none. On a storage
  // error nothing is published and the watermark stays, so the store
  // keeps matching what is served and a retry consumes the same sessions.
  {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    RescueWedgedLog();
    if (!pass.updated.empty()) {
      status = options_.db->PutHighlight(std::move(pass.updated));
    }
  }
  if (!status.ok()) {
    ReleaseRefineClaim(shard, video_id, claimed_pending);
    return status;
  }

  // Publish: snapshot-on-write, watermark advance, wake waiters, and
  // re-arm the batch trigger if sessions piled up during the pass.
  {
    auto lk = LockShard(shard);
    VideoState& state = shard.videos[video_id];
    auto next = std::make_shared<Snapshot>();
    next->version = state.snapshot->version + 1;
    next->records = std::move(pass.all);
    state.snapshot = std::move(next);
    state.watermark = new_watermark;
    state.refine_inflight = false;
    state.refine_queued = false;
    const size_t threshold = options_.refine_batch_sessions;
    if (threshold > 0 && state.pending_sessions >= threshold) {
      state.refine_queued = TryEnqueueRefine(video_id);
    }
  }
  shard.refine_done.notify_all();
  DotsUpdatedCounter().Increment(
      static_cast<uint64_t>(pass.report.dots_updated));
  LIGHTOR_LOG(Debug) << "serving: refine pass (" << trigger << ") on "
                     << video_id << " consumed "
                     << pass.report.sessions_consumed
                     << " sessions, updated " << pass.report.dots_updated
                     << " dots";
  return std::move(pass.report);
}

void HighlightServer::ReleaseRefineClaim(Shard& shard,
                                         const std::string& video_id,
                                         size_t claimed_pending) {
  {
    auto lk = LockShard(shard);
    VideoState& state = shard.videos[video_id];
    state.refine_inflight = false;
    state.refine_queued = false;
    state.pending_sessions += claimed_pending;
  }
  shard.refine_done.notify_all();
}

bool HighlightServer::TryEnqueueRefine(const std::string& video_id) {
  std::lock_guard<std::mutex> lk(queue_mu_);
  if (stop_ || queue_.size() >= options_.max_queue_depth) return false;
  queue_.push_back(RefineTask{video_id, obs::CurrentTraceContext()});
  QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  queue_cv_.notify_one();
  return true;
}

void HighlightServer::WorkerLoop() {
  for (;;) {
    RefineTask task;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left: drained
      task = std::move(queue_.front());
      queue_.pop_front();
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
    }
    // Run under the enqueuing request's trace context (no collector: the
    // request has long since completed, so the pass's spans go straight
    // to the global ring, tagged with that trace id).
    obs::ScopedTraceContext trace_guard(task.ctx, nullptr);
    if (auto report = RefinePass(task.video_id, "batch"); !report.ok()) {
      LIGHTOR_LOG(Warning) << "serving: background refine of "
                           << task.video_id
                           << " failed: " << report.status().ToString();
    }
  }
}

size_t HighlightServer::Flush() {
  // Collect candidates shard by shard, then refine outside the shard
  // locks (RefinePass re-locks and serializes on refine_inflight).
  std::vector<std::string> videos;
  for (auto& shard : shards_) {
    auto lk = LockShard(*shard);
    for (const auto& [video_id, state] : shard->videos) {
      if (state.snapshot != nullptr && !state.snapshot->provisional &&
          state.stream == nullptr &&
          (state.pending_sessions > 0 || state.refine_queued)) {
        videos.push_back(video_id);
      }
    }
  }
  size_t passes = 0;
  for (const auto& video_id : videos) {
    if (RefinePass(video_id, "drain").ok()) ++passes;
  }
  return passes;
}

void HighlightServer::Shutdown() {
  {
    std::lock_guard<std::mutex> g(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  draining_.store(true, std::memory_order_relaxed);
  accepting_.store(false, std::memory_order_release);
  // Drain queued ingest batches into their engines first: a 200-acked
  // message is applied (and its provisional progress published) even
  // when the stream is then dropped below.
  ingest_scheduler_->Shutdown();
  PublishAllProvisionals();
  // Drain: synchronously consume accumulated batches, then let the
  // workers finish whatever is still queued and exit.
  Flush();
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // First visits in flight hold no lock while they crawl and initialize;
  // let them persist before the final flush and checkpoint.
  for (auto& shard : shards_) {
    auto lk = LockShard(*shard);
    shard->first_visit_done.wait(lk, [&] {
      return std::none_of(
          shard->videos.begin(), shard->videos.end(),
          [](const auto& entry) { return entry.second.initializing; });
    });
  }
  if (options_.batched_session_flush) {
    std::lock_guard<std::mutex> db_lock(db_mu_);
    if (auto st = options_.db->FlushInteractions(); !st.ok()) {
      LIGHTOR_LOG(Warning) << "serving: interaction-log flush at shutdown "
                              "failed: "
                           << st.ToString();
    }
  }
  if (checkpoint_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(ckpt_mu_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.notify_all();
    checkpoint_thread_.join();
    // Final checkpoint so the next open replays nothing (skipped when no
    // records landed since the last one).
    std::lock_guard<std::mutex> db_lock(db_mu_);
    (void)CheckpointPass("shutdown", /*skip_if_clean=*/true);
  }
  // Live streams cannot be finalized without an authoritative length
  // decision from the caller; drop them, with any dots a failed finalize
  // could not persist (their chat is lost — the broadcaster re-ingests or
  // the crawler recovers the recorded chat).
  size_t dropped = 0;
  for (auto& shard : shards_) {
    auto lk = LockShard(*shard);
    for (auto& [video_id, state] : shard->videos) {
      if (state.stream != nullptr || state.unpersisted_final.has_value()) {
        state.stream.reset();
        state.unpersisted_final.reset();
        ++dropped;
      }
    }
  }
  if (dropped > 0) {
    ActiveStreamsGauge().Add(-static_cast<double>(dropped));
    LIGHTOR_LOG(Warning) << "serving: dropped " << dropped
                         << " live stream(s) at shutdown";
  }
  LIGHTOR_LOG(Info) << "serving: shut down after drain";
}

std::string HighlightServer::MetricsPage() const {
  return ExportMetricsPage();
}

}  // namespace lightor::serving
