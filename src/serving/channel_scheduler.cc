#include "serving/channel_scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "serving/metrics.h"

namespace lightor::serving {

namespace {

double SteadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

common::Status ChannelScheduler::Options::Validate() const {
  if (rate_messages_per_sec < 0.0) {
    return common::Status::InvalidArgument(
        "ChannelScheduler: negative rate_messages_per_sec");
  }
  if (burst_messages < 0.0) {
    return common::Status::InvalidArgument(
        "ChannelScheduler: negative burst_messages");
  }
  if (max_queue_messages == 0) {
    return common::Status::InvalidArgument(
        "ChannelScheduler: max_queue_messages == 0");
  }
  if (quantum_messages == 0) {
    return common::Status::InvalidArgument(
        "ChannelScheduler: quantum_messages == 0");
  }
  return common::Status::OK();
}

common::Result<std::unique_ptr<ChannelScheduler>> ChannelScheduler::Create(
    Options options, DrainFn drain, PublishFn publish) {
  LIGHTOR_RETURN_IF_ERROR(options.Validate());
  if (drain == nullptr) {
    return common::Status::InvalidArgument("ChannelScheduler: null DrainFn");
  }
  if (options.clock == nullptr) options.clock = SteadyNowSeconds;
  return std::unique_ptr<ChannelScheduler>(
      new ChannelScheduler(std::move(options), std::move(drain),
                           std::move(publish)));
}

ChannelScheduler::ChannelScheduler(Options options, DrainFn drain,
                                   PublishFn publish)
    : options_(std::move(options)),
      drain_(std::move(drain)),
      publish_(std::move(publish)) {
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ChannelScheduler::~ChannelScheduler() { Shutdown(); }

double ChannelScheduler::EffectiveBurst() const {
  if (options_.burst_messages > 0.0) return options_.burst_messages;
  return 4.0 * options_.rate_messages_per_sec;
}

ChannelScheduler::Admission ChannelScheduler::ChargeBucket(Channel& ch,
                                                           size_t offered,
                                                           double now) {
  Admission result;
  if (options_.rate_messages_per_sec <= 0.0) return result;
  const double burst = EffectiveBurst();
  if (!ch.bucket_started) {
    ch.bucket_started = true;
    ch.tokens = burst;
    ch.last_refill_seconds = now;
  } else {
    const double elapsed = std::max(0.0, now - ch.last_refill_seconds);
    ch.tokens = std::min(burst,
                         ch.tokens + elapsed * options_.rate_messages_per_sec);
    ch.last_refill_seconds = now;
  }
  const double need = static_cast<double>(offered);
  if (ch.tokens >= need) {
    ch.tokens -= need;
    return result;
  }
  result.admitted = false;
  result.retry_after_seconds =
      (need - ch.tokens) / options_.rate_messages_per_sec;
  return result;
}

ChannelScheduler::Admission ChannelScheduler::Offer(
    const std::string& video_id, std::vector<core::Message> messages,
    size_t offered, const DrainFn& drain) {
  std::unique_lock<std::mutex> lk(mu_);
  Channel& ch = channels_[video_id];
  if (ch.closed) {
    Admission refused;
    refused.admitted = false;
    refused.closed = true;
    return refused;
  }
  const double now = Now();
  if (options_.num_workers > 0 &&
      ch.queued_messages + messages.size() > options_.max_queue_messages) {
    Admission refused;
    refused.admitted = false;
    // Queue pressure, not bucket exhaustion: estimate the delay as the
    // time the budget takes to pass one quantum (the next drain visit
    // moves at least that much), bounded below so clients always back
    // off a little.
    refused.retry_after_seconds =
        options_.rate_messages_per_sec > 0.0
            ? static_cast<double>(options_.quantum_messages) /
                  options_.rate_messages_per_sec
            : 0.05;
    ++ch.throttled_batches;
    ChannelThrottledCounter().Increment();
    return refused;
  }
  Admission result = ChargeBucket(ch, offered, now);
  if (!result.admitted) {
    ++ch.throttled_batches;
    ChannelThrottledCounter().Increment();
    return result;
  }
  ch.admitted_messages += offered;
  ChannelAdmittedMessagesCounter().Increment(offered);
  if (!messages.empty()) {
    const size_t count = messages.size();
    Batch batch;
    batch.messages = std::move(messages);
    batch.enqueue_seconds = now;
    if (ch.queue.empty() && !ch.in_service) ChannelActiveGauge().Add(1.0);
    ch.queue.push_back(std::move(batch));
    ch.queued_messages += count;
    total_queued_ += count;
    ChannelQueuedMessagesGauge().Add(static_cast<double>(count));
    Activate(video_id, ch);
  }
  // No workers: the caller drains its channel before the call returns.
  while (options_.num_workers == 0 && (ch.in_service || !ch.queue.empty())) {
    if (ch.in_service) {
      flush_cv_.wait(lk);
    } else {
      Visit(lk, video_id, ch, drain != nullptr ? drain : drain_);
    }
  }
  return result;
}

void ChannelScheduler::ArmDeadline(const std::string& video_id,
                                   double deadline_seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  Channel& ch = channels_[video_id];
  if (ch.deadline_armed && ch.deadline_seconds <= deadline_seconds) return;
  ch.deadline_armed = true;
  ch.deadline_seconds = deadline_seconds;
  // A new earliest deadline: an idle worker sleeping toward a later one
  // (or toward none) must re-plan its wait.
  const bool earliest =
      deadlines_.empty() || deadline_seconds < deadlines_.top().seconds;
  deadlines_.push({deadline_seconds, video_id});
  if (earliest) work_cv_.notify_one();
}

void ChannelScheduler::RecordPublish(const std::string& video_id,
                                     double staleness_seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  Channel& ch = channels_[video_id];
  ch.deadline_armed = false;
  ++ch.publishes;
  ch.last_staleness_seconds = staleness_seconds;
  ch.max_staleness_seconds =
      std::max(ch.max_staleness_seconds, staleness_seconds);
}

void ChannelScheduler::RecordRejected(const std::string& video_id,
                                      size_t count) {
  if (count == 0) return;
  ChannelRejectedMessagesCounter().Increment(count);
  std::lock_guard<std::mutex> lk(mu_);
  channels_[video_id].rejected_messages += count;
}

void ChannelScheduler::FlushChannel(const std::string& video_id) {
  std::unique_lock<std::mutex> lk(mu_);
  flush_cv_.wait(lk, [&] {
    const auto it = channels_.find(video_id);
    return it == channels_.end() ||
           (it->second.queue.empty() && !it->second.in_service);
  });
}

void ChannelScheduler::CloseChannel(const std::string& video_id) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    channels_[video_id].closed = true;
  }
  FlushChannel(video_id);
}

void ChannelScheduler::ReopenChannel(const std::string& video_id) {
  std::lock_guard<std::mutex> lk(mu_);
  channels_[video_id].closed = false;
}

void ChannelScheduler::FlushAll() {
  std::unique_lock<std::mutex> lk(mu_);
  flush_cv_.wait(lk, [&] {
    if (total_queued_ > 0) return false;
    for (const auto& [id, ch] : channels_) {
      if (ch.in_service) return false;
    }
    return true;
  });
}

void ChannelScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::vector<ChannelScheduler::ChannelSnapshot> ChannelScheduler::Snapshot()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ChannelSnapshot> out;
  out.reserve(channels_.size());
  for (const auto& [id, ch] : channels_) {
    ChannelSnapshot snap;
    snap.video_id = id;
    snap.queued_messages = ch.queued_messages;
    snap.admitted_messages = ch.admitted_messages;
    snap.throttled_batches = ch.throttled_batches;
    snap.rejected_messages = ch.rejected_messages;
    snap.publishes = ch.publishes;
    snap.last_staleness_seconds = ch.last_staleness_seconds;
    snap.max_staleness_seconds = ch.max_staleness_seconds;
    snap.closed = ch.closed;
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const ChannelSnapshot& a, const ChannelSnapshot& b) {
              return a.video_id < b.video_id;
            });
  return out;
}

bool ChannelScheduler::PopDueDeadline(std::string* video_id) {
  if (deadlines_.empty()) return false;
  const double now = Now();
  while (!deadlines_.empty()) {
    const Deadline& top = deadlines_.top();
    const auto it = channels_.find(top.video_id);
    const bool live = it != channels_.end() && it->second.deadline_armed &&
                      it->second.deadline_seconds == top.seconds;
    if (live) {
      if (now < top.seconds) return false;
      it->second.deadline_armed = false;
      *video_id = top.video_id;
      deadlines_.pop();
      return true;
    }
    deadlines_.pop();  // superseded by a publish or an earlier deadline
  }
  return false;
}

void ChannelScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  std::string due;
  for (;;) {
    // A due deadline goes ahead of the next DRR visit, so a hot
    // channel's backlog cannot delay a cold channel's publish.
    if (PopDueDeadline(&due)) {
      lk.unlock();
      if (publish_ != nullptr) publish_(due);
      lk.lock();
      continue;
    }
    if (active_.empty()) {
      // Workers exit only once every queue is drained, so acked
      // messages reach their engines before Shutdown returns.
      if (stop_) return;
      // Sleep until work arrives, an earlier deadline is armed, or the
      // earliest one comes due.
      const double next = deadlines_.empty()
                              ? std::numeric_limits<double>::infinity()
                              : deadlines_.top().seconds;
      const auto woken = [&] {
        return stop_ || !active_.empty() ||
               (!deadlines_.empty() && deadlines_.top().seconds < next);
      };
      if (deadlines_.empty()) {
        work_cv_.wait(lk, woken);
      } else {
        work_cv_.wait_for(lk, std::chrono::duration<double>(next - Now()),
                          woken);
      }
      continue;
    }
    const std::string video_id = active_.front();
    active_.pop_front();
    Channel& ch = channels_[video_id];
    ch.in_active = false;
    if (ch.queue.empty()) continue;  // drained by an earlier visit
    Visit(lk, video_id, ch, drain_);
  }
}

void ChannelScheduler::Activate(const std::string& video_id, Channel& ch) {
  if (options_.num_workers == 0 || ch.in_service || ch.in_active) return;
  ch.in_active = true;
  active_.push_back(video_id);
  work_cv_.notify_one();
}

void ChannelScheduler::Visit(std::unique_lock<std::mutex>& lk,
                             const std::string& video_id, Channel& ch,
                             const DrainFn& drain) {
  ch.in_service = true;
  // DRR: move whole batches while they fit the accumulated deficit,
  // but always at least one, so a batch larger than the quantum makes
  // progress instead of pinning the channel forever.
  ch.deficit += options_.quantum_messages;
  std::vector<Batch> take;
  size_t taken = 0;
  while (!ch.queue.empty() &&
         (take.empty() ||
          taken + ch.queue.front().messages.size() <= ch.deficit)) {
    taken += ch.queue.front().messages.size();
    take.push_back(std::move(ch.queue.front()));
    ch.queue.pop_front();
  }
  ch.queued_messages -= taken;
  total_queued_ -= taken;
  ch.deficit = ch.queue.empty() ? 0
                                : (ch.deficit > taken ? ch.deficit - taken
                                                      : 0);
  ChannelQueuedMessagesGauge().Add(-static_cast<double>(taken));
  ChannelDrainRoundsCounter().Increment();
  lk.unlock();
  drain(video_id, std::move(take));
  lk.lock();
  ch.in_service = false;
  if (ch.queue.empty()) {
    ChannelActiveGauge().Add(-1.0);
  } else {
    Activate(video_id, ch);
  }
  // Flushers wait for an empty channel.
  flush_cv_.notify_all();
}

}  // namespace lightor::serving
