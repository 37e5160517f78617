#ifndef LIGHTOR_SERVING_CHANNEL_SCHEDULER_H_
#define LIGHTOR_SERVING_CHANNEL_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/message.h"

namespace lightor::serving {

/// Per-channel admission + fair-share drain tier in front of the shard
/// engines — the live-at-scale half of the serving layer. Three concerns,
/// one per-channel bookkeeping map:
///
///   * **Admission budgets.** Each channel owns a token bucket
///     (`rate_messages_per_sec` refill, `burst_messages` capacity). A
///     batch whose message count exceeds the available tokens is refused
///     with a retry delay derived from the bucket's refill time — the
///     transport layer turns that into HTTP 429 + Retry-After — so a
///     channel spiking 100× throttles itself instead of monopolizing net
///     workers and engine time. Refusal happens before anything is
///     queued or ingested: a throttled batch is never partially applied,
///     which is what makes "200-acked implies ingested" a hard property.
///   * **Deficit-round-robin draining.** Admitted batches land in a
///     per-channel FIFO and are drained in visits, each moving up to
///     `quantum_messages` (always at least one whole batch, so oversized
///     batches cannot stall a channel). With `num_workers > 0` worker
///     threads visit channels round-robin. Service per round is bounded
///     per channel, so a hot channel's backlog cannot starve cold
///     channels: a cold channel's queue delay is bounded by (active
///     channels × quantum), independent of how deep the hot queue is.
///     With no workers `Offer` runs the same visit step on the calling
///     thread, so its batch is drained before `Offer` returns.
///   * **Publish deadlines** (workers only). The server arms a deadline
///     for a channel whose drain left messages unpublished
///     (`ArmDeadline`). A min-heap keeps one live deadline per channel;
///     workers check its top before every DRR visit and, when idle,
///     sleep until it rather than on a fixed period, so a quiet channel
///     next to a hot one is published within the bound instead of at the
///     next global lull.
///
/// The scheduler owns queues, budgets and deadlines only; it never
/// touches engines. The server supplies a `DrainFn` that feeds a
/// channel's batches into its shard engine and a `PublishFn` that
/// publishes a channel whose deadline came due (both take the shard lock
/// themselves), and reports every provisional publish back via
/// `RecordPublish`, which disarms the channel's deadline and feeds the
/// staleness columns of `Snapshot()` / the `/debug/channels` endpoint.
///
/// Lock ordering: shard → scheduler. Callers may invoke `Offer`/
/// `ArmDeadline`/`RecordPublish` (which take the scheduler mutex) while
/// holding a shard mutex; the scheduler never holds its mutex across a
/// drain or `PublishFn` callback, so the order is acyclic.
/// `FlushChannel`/`CloseChannel`/`FlushAll` wait for drains and must be
/// called WITHOUT any shard lock.
class ChannelScheduler {
 public:
  struct Options {
    /// Drain worker threads. 0: `Offer` drains the batch it queued on
    /// the calling thread.
    size_t num_workers = 0;
    /// Token-bucket refill rate per channel, messages/second. 0 disables
    /// admission control (every batch admitted).
    double rate_messages_per_sec = 0.0;
    /// Bucket capacity (burst allowance). 0 defaults to 4× the rate.
    /// Must exceed the largest batch a client may send, or that batch
    /// can never be admitted.
    double burst_messages = 0.0;
    /// Per-channel queued-message cap for the workers' backlog. A batch
    /// that would overflow it is refused like a throttle. Not applied
    /// with no workers: each caller drains its own batch, so there is no
    /// backlog to bound.
    size_t max_queue_messages = 8192;
    /// DRR quantum: messages moved per channel per scheduler visit.
    size_t quantum_messages = 256;
    /// Test seam: monotonic clock in seconds. Defaults to steady_clock.
    std::function<double()> clock;

    common::Status Validate() const;
  };

  /// One admitted wire batch, stamped with its admission time so the
  /// server can measure enqueue→publish staleness.
  struct Batch {
    std::vector<core::Message> messages;
    double enqueue_seconds = 0.0;
  };

  /// Drains one channel's admitted batches into its engine. Invoked on a
  /// scheduler worker, or (with no workers) inside `Offer`, with no
  /// scheduler lock held.
  using DrainFn =
      std::function<void(const std::string& video_id, std::vector<Batch>)>;
  /// Publishes a channel whose armed deadline came due. Invoked on a
  /// scheduler worker with no scheduler lock held; the deadline may have
  /// been met in the meantime, so the callee re-checks the channel's age.
  using PublishFn = std::function<void(const std::string& video_id)>;

  /// Outcome of `Offer`.
  struct Admission {
    bool admitted = true;
    /// When refused: seconds until the bucket has refilled enough for a
    /// batch of the offered size (or a queue-pressure estimate).
    double retry_after_seconds = 0.0;
    /// Refused because the channel was closed by `CloseChannel` (stream
    /// finalizing), not because of budget.
    bool closed = false;
  };

  static common::Result<std::unique_ptr<ChannelScheduler>> Create(
      Options options, DrainFn drain, PublishFn publish = nullptr);

  ~ChannelScheduler();
  ChannelScheduler(const ChannelScheduler&) = delete;
  ChannelScheduler& operator=(const ChannelScheduler&) = delete;

  /// Admission + enqueue: charges the bucket for `offered` messages
  /// (all-or-nothing) and, when admitted, queues `messages` (the subset
  /// that passed the caller's ordering filter) for DRR draining. Nothing
  /// is queued on refusal. With no workers the calling thread then runs
  /// DRR visits of the channel, each through `drain` (the `DrainFn` when
  /// null), until its queue is empty, so an admitted batch is drained
  /// when `Offer` returns. The server passes a `drain` that relies on the
  /// shard lock it holds across the call; callers of one channel are then
  /// serialized, and the wait for another thread's visit never happens.
  Admission Offer(const std::string& video_id,
                  std::vector<core::Message> messages, size_t offered,
                  const DrainFn& drain = nullptr);

  /// Server callback: `video_id` has unpublished messages that must be
  /// published by `deadline_seconds` (scheduler clock). Keeps at most one
  /// live deadline per channel: a no-op while an earlier or equal one is
  /// armed. Workers call `PublishFn` once the deadline is due.
  void ArmDeadline(const std::string& video_id, double deadline_seconds);

  /// Server callback: a provisional snapshot for `video_id` was
  /// published, covering messages admitted up to `staleness_seconds`
  /// ago. Disarms the channel's deadline and feeds the per-channel
  /// staleness columns of `Snapshot()`.
  void RecordPublish(const std::string& video_id, double staleness_seconds);
  /// Server callback: `count` admitted messages were dropped by the
  /// engine (out-of-order stragglers that slipped past the admission
  /// mirror, or a drain that lost its engine to a finalize race).
  void RecordRejected(const std::string& video_id, size_t count);

  /// Blocks until the channel's queue is empty and no drain is in
  /// flight. Must not be called under a shard lock.
  void FlushChannel(const std::string& video_id);
  /// Flushes the channel, then marks it closed: subsequent `Offer`s are
  /// refused with `closed = true`. Used by FinalizeStream to guarantee
  /// every acked message reaches the engine before it is claimed.
  void CloseChannel(const std::string& video_id);
  /// Reverts `CloseChannel` (finalize failed, the stream lives on).
  void ReopenChannel(const std::string& video_id);
  /// Blocks until every channel's queue is drained.
  void FlushAll();

  /// Drains every queue, then stops and joins the workers. Idempotent;
  /// the destructor calls it.
  void Shutdown();

  /// Point-in-time per-channel accounting for `/debug/channels`.
  struct ChannelSnapshot {
    std::string video_id;
    size_t queued_messages = 0;
    uint64_t admitted_messages = 0;
    uint64_t throttled_batches = 0;
    uint64_t rejected_messages = 0;
    uint64_t publishes = 0;
    double last_staleness_seconds = 0.0;
    double max_staleness_seconds = 0.0;
    bool closed = false;
  };
  std::vector<ChannelSnapshot> Snapshot() const;

  /// Monotonic seconds from the (injectable) clock.
  double Now() const { return options_.clock(); }

 private:
  /// All live-ingest bookkeeping of one channel; guarded by mu_.
  struct Channel {
    // Token bucket.
    double tokens = 0.0;
    double last_refill_seconds = 0.0;
    bool bucket_started = false;  ///< tokens initialized to burst
    // DRR queue.
    std::deque<Batch> queue;
    size_t queued_messages = 0;
    size_t deficit = 0;
    bool in_service = false;  ///< a visit is draining this channel
    bool in_active = false;   ///< queued on the round-robin list
    bool closed = false;
    // Publish deadline; heap entries that do not match it are stale.
    bool deadline_armed = false;
    double deadline_seconds = 0.0;
    // Accounting (mirrors ChannelSnapshot).
    uint64_t admitted_messages = 0;
    uint64_t throttled_batches = 0;
    uint64_t rejected_messages = 0;
    uint64_t publishes = 0;
    double last_staleness_seconds = 0.0;
    double max_staleness_seconds = 0.0;
  };

  /// One armed deadline; the heap orders them earliest first.
  struct Deadline {
    double seconds = 0.0;
    std::string video_id;
    bool operator>(const Deadline& other) const {
      return seconds > other.seconds;
    }
  };

  ChannelScheduler(Options options, DrainFn drain, PublishFn publish);

  double EffectiveBurst() const;
  /// Refills the bucket and charges it for `offered`; on refusal fills
  /// in the retry delay. Requires mu_ held.
  Admission ChargeBucket(Channel& ch, size_t offered, double now);
  /// Pops stale heap entries and, when the earliest live deadline is
  /// due, pops and disarms it into `video_id`. Requires mu_ held.
  bool PopDueDeadline(std::string* video_id);
  /// Puts a channel with queued work on the workers' round-robin list
  /// (no-op with no workers, or while it is listed or in service).
  /// Requires mu_ held.
  void Activate(const std::string& video_id, Channel& ch);
  /// One DRR visit: moves up to a quantum of `ch`'s queue (at least one
  /// batch) into `drain` with mu_ released, then re-lists the channel if
  /// work remains. Requires `lk` to hold mu_, a non-empty queue and no
  /// visit in service.
  void Visit(std::unique_lock<std::mutex>& lk, const std::string& video_id,
             Channel& ch, const DrainFn& drain);
  void WorkerLoop();

  Options options_;
  DrainFn drain_;
  PublishFn publish_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< work queued / stopping
  std::condition_variable flush_cv_;  ///< a visit finished
  std::unordered_map<std::string, Channel> channels_;
  /// Round-robin order of channels with queued work (DRR active list).
  std::deque<std::string> active_;
  size_t total_queued_ = 0;
  /// Armed publish deadlines, earliest on top (lazy deletion: entries
  /// superseded by a publish stay until they surface and are skipped).
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>>
      deadlines_;
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace lightor::serving

#endif  // LIGHTOR_SERVING_CHANNEL_SCHEDULER_H_
