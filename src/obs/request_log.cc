#include "obs/request_log.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"

namespace lightor::obs {

namespace {

// CSV fields here are ids, route labels, and numbers — no embedded
// commas or quotes in practice — but quote defensively anyway.
void AppendCsvField(const std::string& value, std::string& out) {
  if (value.find_first_of(",\"\n") == std::string::npos) {
    out += value;
    return;
  }
  out += '"';
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

Histogram& StageHistogram(Stage stage) {
  static Histogram* const histograms[kNumStages] = {
      Registry::Global().GetHistogram("lightor_obs_request_stage_seconds",
                                      Histogram::LatencyBounds(),
                                      {{"stage", "parse"}}),
      Registry::Global().GetHistogram("lightor_obs_request_stage_seconds",
                                      Histogram::LatencyBounds(),
                                      {{"stage", "queue"}}),
      Registry::Global().GetHistogram("lightor_obs_request_stage_seconds",
                                      Histogram::LatencyBounds(),
                                      {{"stage", "handler"}}),
      Registry::Global().GetHistogram("lightor_obs_request_stage_seconds",
                                      Histogram::LatencyBounds(),
                                      {{"stage", "storage_flush"}}),
      Registry::Global().GetHistogram("lightor_obs_request_stage_seconds",
                                      Histogram::LatencyBounds(),
                                      {{"stage", "serialize"}}),
      Registry::Global().GetHistogram("lightor_obs_request_stage_seconds",
                                      Histogram::LatencyBounds(),
                                      {{"stage", "write"}}),
      Registry::Global().GetHistogram("lightor_obs_request_stage_seconds",
                                      Histogram::LatencyBounds(),
                                      {{"stage", "checkpoint"}}),
  };
  return *histograms[static_cast<size_t>(stage)];
}

Counter& WideEventsCounter() {
  static Counter* const counter =
      Registry::Global().GetCounter("lightor_obs_wide_events_total");
  return *counter;
}

Counter& KeptCounter(const char* reason) {
  static Counter* const flag = Registry::Global().GetCounter(
      "lightor_obs_traces_kept_total", {{"reason", "flag"}});
  static Counter* const error = Registry::Global().GetCounter(
      "lightor_obs_traces_kept_total", {{"reason", "error"}});
  static Counter* const slow = Registry::Global().GetCounter(
      "lightor_obs_traces_kept_total", {{"reason", "slow"}});
  static Counter* const random = Registry::Global().GetCounter(
      "lightor_obs_traces_kept_total", {{"reason", "random"}});
  if (reason[0] == 'f') return *flag;
  if (reason[0] == 'e') return *error;
  if (reason[0] == 's') return *slow;
  return *random;
}

}  // namespace

std::string EncodeWideEventJson(const WideEvent& event) {
  std::string out;
  out.reserve(320);
  out += "{\"trace_id\":\"";
  out += event.TraceId();
  out += "\",\"span_id\":\"";
  out += FormatSpanId(event.span_id);
  out += "\",\"parent_span_id\":\"";
  out += FormatSpanId(event.parent_span_id);
  out += "\",\"route\":";
  common::AppendJsonString(event.route, out);
  out += ",\"method\":";
  common::AppendJsonString(event.method, out);
  out += ",\"status\":" + std::to_string(event.status);
  out += ",\"bytes_in\":" + std::to_string(event.bytes_in);
  out += ",\"bytes_out\":" + std::to_string(event.bytes_out);
  out += ",\"shard\":" + std::to_string(event.shard);
  out += ",\"start_us\":" + std::to_string(event.start_us);
  out += ",\"total_us\":" + std::to_string(event.total_us);
  for (size_t i = 0; i < kNumStages; ++i) {
    out += ",\"";
    out += StageName(static_cast<Stage>(i));
    out += "_us\":" + std::to_string(event.stage_us[i]);
  }
  out += ",\"retry_after_s\":" + std::to_string(event.retry_after_seconds);
  out += std::string(",\"sampled_in\":") +
         (event.sampled_in ? "true" : "false");
  out += std::string(",\"kept\":") + (event.kept ? "true" : "false");
  out += ",\"keep_reason\":";
  common::AppendJsonString(event.keep_reason, out);
  out += "}";
  return out;
}

std::string WideEventCsvHeader() {
  std::string out =
      "trace_id,span_id,parent_span_id,route,method,status,bytes_in,"
      "bytes_out,shard,start_us,total_us";
  for (size_t i = 0; i < kNumStages; ++i) {
    out += ",";
    out += StageName(static_cast<Stage>(i));
    out += "_us";
  }
  out += ",retry_after_s,sampled_in,kept,keep_reason";
  return out;
}

std::string EncodeWideEventCsv(const WideEvent& event) {
  std::string out;
  out.reserve(256);
  out += event.TraceId();
  out += ',';
  out += FormatSpanId(event.span_id);
  out += ',';
  out += FormatSpanId(event.parent_span_id);
  out += ',';
  AppendCsvField(event.route, out);
  out += ',';
  AppendCsvField(event.method, out);
  out += ',' + std::to_string(event.status);
  out += ',' + std::to_string(event.bytes_in);
  out += ',' + std::to_string(event.bytes_out);
  out += ',' + std::to_string(event.shard);
  out += ',' + std::to_string(event.start_us);
  out += ',' + std::to_string(event.total_us);
  for (size_t i = 0; i < kNumStages; ++i) {
    out += ',' + std::to_string(event.stage_us[i]);
  }
  out += ',' + std::to_string(event.retry_after_seconds);
  out += event.sampled_in ? ",1" : ",0";
  out += event.kept ? ",1" : ",0";
  out += ',';
  AppendCsvField(event.keep_reason, out);
  return out;
}

RequestLog& RequestLog::Global() {
  static RequestLog* log = new RequestLog();
  return *log;
}

RequestLog::RequestLog(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {
  ring_.resize(capacity_);
}

bool RequestLog::Emit(WideEvent event, SpanCollector* collector,
                      TraceRecorder* recorder) {
  if (recorder == nullptr) recorder = &TraceRecorder::Global();

  std::vector<TraceEvent> spans;
  if (collector != nullptr) {
    for (size_t i = 0; i < kNumStages; ++i) {
      event.stage_us[i] = collector->StageMicros(static_cast<Stage>(i));
    }
    event.shard = collector->shard();
    spans = collector->TakeAndClose();
  }

  TailSamplingOptions opts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    opts = options_;
  }
  event.kept = false;
  event.keep_reason.clear();
  if (event.sampled_in) {
    event.kept = true;
    event.keep_reason = "flag";
  } else if (opts.keep_errors && event.status >= 500) {
    event.kept = true;
    event.keep_reason = "error";
  } else if (event.total_us >= opts.slow_threshold_us) {
    event.kept = true;
    event.keep_reason = "slow";
  } else if (opts.probabilistic_denominator != 0 &&
             (event.trace_hi ^ event.trace_lo) %
                     opts.probabilistic_denominator ==
                 0) {
    event.kept = true;
    event.keep_reason = "random";
  }

  WideEventsCounter().Increment();
  if (event.kept) KeptCounter(event.keep_reason.c_str()).Increment();
  for (size_t i = 0; i < kNumStages; ++i) {
    if (event.stage_us[i] == 0 && static_cast<Stage>(i) != Stage::kHandler) {
      continue;  // optional/unreached stages stay out of the histograms
    }
    StageHistogram(static_cast<Stage>(i))
        .Observe(static_cast<double>(event.stage_us[i]) * 1e-6);
  }

  if (event.kept && (event.trace_hi | event.trace_lo) != 0) {
    const uint32_t tid = TraceThreadId();
    // Root span for the whole request, parented to the caller's span.
    TraceEvent root;
    root.name = "request " + event.route;
    root.category = "request";
    root.start_us = event.start_us;
    root.duration_us = event.total_us;
    root.thread_id = tid;
    root.trace_hi = event.trace_hi;
    root.trace_lo = event.trace_lo;
    root.span_id = event.span_id;
    root.parent_span_id = event.parent_span_id;
    recorder->Record(std::move(root));
    // IO-thread stages have no ScopedStage span (they accumulate across
    // event-loop iterations); synthesize their spans so the trace tree
    // is complete. Parse and queue lead the request, write trails it.
    uint64_t offset = event.start_us;
    for (const Stage stage :
         {Stage::kParse, Stage::kQueue, Stage::kWrite}) {
      const uint64_t us = event.StageUs(stage);
      if (us == 0) continue;
      TraceEvent ev;
      ev.name = std::string("stage.") + StageName(stage);
      ev.category = "stage";
      ev.start_us = stage == Stage::kWrite
                        ? event.start_us + event.total_us -
                              std::min(us, event.total_us)
                        : offset;
      ev.duration_us = us;
      ev.thread_id = tid;
      ev.depth = 1;
      ev.trace_hi = event.trace_hi;
      ev.trace_lo = event.trace_lo;
      ev.span_id = GenerateSpanId();
      ev.parent_span_id = event.span_id;
      recorder->Record(std::move(ev));
      if (stage != Stage::kWrite) offset += us;
    }
    for (TraceEvent& span : spans) {
      if (span.parent_span_id == 0) span.parent_span_id = event.span_id;
      recorder->Record(std::move(span));
    }
  }

  std::function<void(const WideEvent&)> sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
    ++total_;
    if (count_ < capacity_) ++count_;
    sink = sink_;
  }
  if (sink) sink(event);
  return event.kept;
}

std::vector<WideEvent> RequestLog::Recent(size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WideEvent> out;
  const size_t n = limit == 0 ? count_ : std::min(limit, count_);
  out.reserve(n);
  // Newest first: walk backwards from the slot before `next_`.
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = (next_ + capacity_ - 1 - i) % capacity_;
    out.push_back(ring_[slot]);
  }
  return out;
}

void RequestLog::SetSink(std::function<void(const WideEvent&)> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

void RequestLog::set_options(const TailSamplingOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
}

TailSamplingOptions RequestLog::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

size_t RequestLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

size_t RequestLog::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

uint64_t RequestLog::total_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void RequestLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
  count_ = 0;
  total_ = 0;
}

void RequestLog::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(capacity, 1);
  ring_.assign(capacity_, WideEvent{});
  next_ = 0;
  count_ = 0;
  total_ = 0;
}

}  // namespace lightor::obs
