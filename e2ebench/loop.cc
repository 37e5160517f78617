#include "loop.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "net/client.h"

namespace lightor::e2e {

const char* OpName(Op op) {
  switch (op) {
    case Op::kHighlights: return "highlights";
    case Op::kVisit: return "visit";
    case Op::kSession: return "session";
    case Op::kRefine: return "refine";
    case Op::kFirstVisit: return "first_visit";
    case Op::kIngest: return "ingest";
    case Op::kFinalize: return "finalize";
  }
  return "?";
}

namespace {

/// The generator fell behind when a tenth of a connection's requests left
/// this late after both their due time and the connection freeing up: a
/// sustained backlog, not a few scheduling hiccups. Lateness caused by the
/// previous response arriving late is the system's, not the generator's.
constexpr double kBehindP90Ms = 10.0;

struct LoopSpec {
  uint16_t port = 0;
  bool open = true;
  Clock::time_point start;
  Clock::time_point deadline;  ///< closed loop only
  Tally* tally = nullptr;
  SpanLog* spans = nullptr;
  const OnResponse* on_response = nullptr;
  /// Non-null: every connection pulls the next request of one shared
  /// list from this cursor instead of walking its own list.
  std::atomic<size_t>* cursor = nullptr;
  /// Non-null: requests are made on the client thread instead.
  const RequestMaker* make = nullptr;
};

void RunConnection(const LoopSpec& spec, size_t thread,
                   const std::vector<Request>& requests, LoopResult* out) {
  Request made;
  net::HttpClient client("127.0.0.1", spec.port);
  client.set_timeout_seconds(30.0);
  const auto span_names = [] {
    std::array<std::string, kNumOps> names;
    for (size_t i = 0; i < kNumOps; ++i) {
      names[i] = std::string("wire.") + OpName(static_cast<Op>(i));
    }
    return names;
  }();
  std::this_thread::sleep_until(spec.start);
  Clock::time_point free_at = spec.start;
  for (size_t next = 0;; ++next) {
    const size_t i = spec.cursor != nullptr ? spec.cursor->fetch_add(1) : next;
    if (spec.make != nullptr ? !(*spec.make)(thread, i, &made)
                             : i >= requests.size()) {
      break;
    }
    const Request& req = spec.make != nullptr ? made : requests[i];
    Clock::time_point due;
    if (spec.open) {
      due = spec.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(req.due_s));
      std::this_thread::sleep_until(due);
    } else {
      due = Clock::now();
      if (due >= spec.deadline) break;
    }
    const Clock::time_point sent = Clock::now();
    spec.tally->Attempt();
    auto response = req.body.empty() ? client.Get(req.target)
                                     : client.Post(req.target, req.body);
    const Clock::time_point done = Clock::now();
    if (spec.open) out->late_ms.push_back(MsBetween(std::max(due, free_at), sent));
    free_at = done;
    spec.spans->Add(span_names[static_cast<size_t>(req.op)], sent, done,
                    SpanLog::kNone, (static_cast<uint64_t>(thread) << 32) | i);
    const char* op = OpName(req.op);
    if (!response.ok()) {
      spec.tally->OpFailed(std::string(op) + " " + req.target + ": " +
                           response.status().ToString());
      continue;
    }
    if (response.value().status != 200) {
      spec.tally->OpFailed(std::string(op) + " " + req.target + ": status " +
                           std::to_string(response.value().status) + " " +
                           response.value().body.substr(0, 200));
      continue;
    }
    if (*spec.on_response) {
      const std::string error =
          (*spec.on_response)(thread, req, response.value());
      if (!error.empty()) {
        spec.tally->OpFailed(std::string(op) + ": " + error);
        continue;
      }
    }
    const double ms = MsBetween(due, done);
    out->ms[static_cast<size_t>(req.op)].push_back(ms);
    out->all_ms.push_back(ms);
    ++out->completed;
  }
  out->fell_behind = Quantile(out->late_ms, 0.90) > kBehindP90Ms;
}

/// `lists[t]` is connection t's list (or the shared list, with a cursor).
LoopResult Run(LoopSpec spec, const std::vector<const std::vector<Request>*>& lists,
               size_t connections, double seconds) {
  spec.start = Clock::now() + std::chrono::milliseconds(20);
  spec.deadline = spec.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  std::vector<LoopResult> partial(connections);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < connections; ++t) {
      const auto& list = *lists[spec.cursor != nullptr ? 0 : t];
      threads.emplace_back(
          [&, t] { RunConnection(spec, t, list, &partial[t]); });
    }
    for (auto& thread : threads) thread.join();
  }
  LoopResult result;
  result.elapsed_s = SecondsSince(spec.start);
  for (LoopResult& p : partial) {
    for (size_t op = 0; op < kNumOps; ++op) {
      result.ms[op].insert(result.ms[op].end(), p.ms[op].begin(),
                           p.ms[op].end());
    }
    result.all_ms.insert(result.all_ms.end(), p.all_ms.begin(),
                         p.all_ms.end());
    result.late_ms.insert(result.late_ms.end(), p.late_ms.begin(),
                          p.late_ms.end());
    result.completed += p.completed;
    result.fell_behind = result.fell_behind || p.fell_behind;
  }
  return result;
}

std::vector<const std::vector<Request>*> Pointers(
    const std::vector<std::vector<Request>>& lists) {
  std::vector<const std::vector<Request>*> out;
  for (const auto& list : lists) out.push_back(&list);
  return out;
}

}  // namespace

LoopResult RunOpenLoop(uint16_t port,
                       const std::vector<std::vector<Request>>& schedules,
                       Tally& tally, SpanLog& spans,
                       const OnResponse& on_response) {
  LoopSpec spec;
  spec.port = port;
  spec.open = true;
  spec.tally = &tally;
  spec.spans = &spans;
  spec.on_response = &on_response;
  return Run(spec, Pointers(schedules), schedules.size(), 0.0);
}

LoopResult RunClosedLoop(uint16_t port,
                         const std::vector<std::vector<Request>>& pools,
                         double seconds, Tally& tally, SpanLog& spans,
                         const OnResponse& on_response) {
  LoopSpec spec;
  spec.port = port;
  spec.open = false;
  spec.tally = &tally;
  spec.spans = &spans;
  spec.on_response = &on_response;
  return Run(spec, Pointers(pools), pools.size(), seconds);
}

LoopResult RunSharedClosedLoop(uint16_t port, const std::vector<Request>& work,
                               size_t connections, double seconds,
                               Tally& tally, SpanLog& spans,
                               const OnResponse& on_response) {
  std::atomic<size_t> cursor{0};
  LoopSpec spec;
  spec.port = port;
  spec.open = false;
  spec.tally = &tally;
  spec.spans = &spans;
  spec.on_response = &on_response;
  spec.cursor = &cursor;
  return Run(spec, {&work}, connections, seconds);
}

LoopResult RunMadeClosedLoop(uint16_t port, size_t connections,
                             const RequestMaker& make, Tally& tally,
                             SpanLog& spans, const OnResponse& on_response) {
  const std::vector<Request> none;
  LoopSpec spec;
  spec.port = port;
  spec.open = false;
  spec.tally = &tally;
  spec.spans = &spans;
  spec.on_response = &on_response;
  spec.make = &make;
  return Run(spec, std::vector<const std::vector<Request>*>(connections, &none),
             connections, 1e9);
}

}  // namespace lightor::e2e
