#include "obs/trace.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/export.h"
#include "obs/trace_context.h"

namespace lightor::obs {

namespace {

std::atomic<uint32_t> g_next_thread_id{0};
thread_local uint32_t t_thread_id = UINT32_MAX;
thread_local uint32_t t_span_depth = 0;

const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

}  // namespace

uint64_t TraceNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - g_process_start)
          .count());
}

uint32_t TraceThreadId() {
  if (t_thread_id == UINT32_MAX) {
    t_thread_id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return t_thread_id;
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = [] {
    auto* r = new TraceRecorder();
    r->EnableHealthMetrics();
    return r;
  }();
  return *recorder;
}

void TraceRecorder::EnableHealthMetrics() {
  Registry& registry = Registry::Global();
  std::lock_guard<std::mutex> lock(mu_);
  events_counter_ = registry.GetCounter("lightor_obs_trace_events_total");
  dropped_counter_ = registry.GetCounter("lightor_obs_trace_dropped_total");
  capacity_gauge_ = registry.GetGauge("lightor_obs_trace_ring_capacity");
  capacity_gauge_->Set(static_cast<double>(capacity_));
}

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {
  ring_.resize(capacity_);
}

void TraceRecorder::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.sequence = next_sequence_++;
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  ++total_;
  if (count_ < capacity_) {
    ++count_;
  } else if (dropped_counter_ != nullptr) {
    dropped_counter_->Increment();  // overwrote the oldest retained span
  }
  if (events_counter_ != nullptr) events_counter_->Increment();
}

std::vector<TraceEvent> TraceRecorder::EventsForTrace(
    uint64_t trace_hi, uint64_t trace_lo) const {
  std::vector<TraceEvent> out;
  if ((trace_hi | trace_lo) == 0) return out;
  for (TraceEvent& ev : Events()) {
    if (ev.trace_hi == trace_hi && ev.trace_lo == trace_lo) {
      out.push_back(std::move(ev));
    }
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest retained event sits at `next_` once the ring has wrapped.
  const size_t start = count_ == capacity_ ? next_ : 0;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

size_t TraceRecorder::capacity() const { return capacity_; }

uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ > count_ ? total_ - count_ : 0;
}

uint64_t TraceRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
  count_ = 0;
  total_ = 0;
  next_sequence_ = 0;
}

void TraceRecorder::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(capacity, 1);
  ring_.assign(capacity_, TraceEvent{});
  next_ = 0;
  count_ = 0;
  total_ = 0;
  next_sequence_ = 0;
  if (capacity_gauge_ != nullptr) {
    capacity_gauge_->Set(static_cast<double>(capacity_));
  }
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (i) out += ",\n";
    out += "{\"name\":";
    common::AppendJsonString(ev.name, out);
    out += ",\"cat\":";
    common::AppendJsonString(ev.category, out);
    out += ",\"ph\":\"X\",\"ts\":" + std::to_string(ev.start_us) +
           ",\"dur\":" + std::to_string(ev.duration_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(ev.thread_id) +
           ",\"args\":{\"depth\":" + std::to_string(ev.depth);
    if ((ev.trace_hi | ev.trace_lo) != 0) {
      out += ",\"trace_id\":\"" + FormatTraceId(ev.trace_hi, ev.trace_lo) +
             "\",\"span_id\":\"" + FormatSpanId(ev.span_id) +
             "\",\"parent_span_id\":\"" + FormatSpanId(ev.parent_span_id) +
             "\"";
    }
    out += "}}";
  }
  out += "]\n";
  return out;
}

std::string TraceRecorder::DumpChromeTrace() const {
  return ChromeTraceJson(Events());
}

common::Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, DumpChromeTrace());
}

ScopedSpan::ScopedSpan(std::string name, std::string category,
                       TraceRecorder* recorder)
    : recorder_(recorder != nullptr ? recorder : &TraceRecorder::Global()) {
  if (recorder == nullptr) collector_ = CurrentSpanCollector();
  if (collector_ == nullptr && !recorder_->enabled()) return;
  active_ = true;
  name_ = std::move(name);
  category_ = std::move(category);
  depth_ = t_span_depth++;
  const TraceContext& ctx = CurrentTraceContext();
  if (ctx.valid()) {
    trace_hi_ = ctx.trace_hi;
    trace_lo_ = ctx.trace_lo;
    span_id_ = GenerateSpanId();
    parent_span_id_ = internal::ExchangeCurrentSpanId(span_id_);
  }
  start_us_ = TraceNowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const uint64_t end_us = TraceNowMicros();
  --t_span_depth;
  if (span_id_ != 0) internal::ExchangeCurrentSpanId(parent_span_id_);
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.category = std::move(category_);
  ev.start_us = start_us_;
  ev.duration_us = end_us - start_us_;
  ev.thread_id = TraceThreadId();
  ev.depth = depth_;
  ev.trace_hi = trace_hi_;
  ev.trace_lo = trace_lo_;
  ev.span_id = span_id_;
  ev.parent_span_id = parent_span_id_;
  if (collector_ != nullptr) {
    collector_->Add(std::move(ev));
  } else {
    recorder_->Record(std::move(ev));
  }
}

}  // namespace lightor::obs
