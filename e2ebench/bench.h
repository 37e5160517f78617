#ifndef LIGHTOR_E2EBENCH_BENCH_H_
#define LIGHTOR_E2EBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace lightor::e2e {

using Clock = std::chrono::steady_clock;

/// Aborts the run with exit code 2 and no result line: set-up failures
/// are not measurements.
[[noreturn]] void Die(const std::string& what);

template <typename T>
T Must(common::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}
void Must(const common::Status& status, const std::string& what);

double MsBetween(Clock::time_point from, Clock::time_point to);
double SecondsSince(Clock::time_point from);

/// Quantile `q` in [0, 1] of `xs` (0 for an empty sample).
double Quantile(std::vector<double> xs, double q);
double Median(std::vector<double> xs);

/// One reported figure of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operations attempted and failed across the run, and the verdicts of
/// the output checks. Thread-safe.
class Tally {
 public:
  void Attempt(size_t n = 1) { attempted_ += n; }
  /// An operation failed: wire error, 5xx, 504, or an unexpected 4xx.
  void OpFailed(const std::string& what);
  /// An output check found a mismatch.
  void CheckFailed(const std::string& what);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  bool checks_ok() const { return check_failures_ == 0; }
  /// The first recorded problems, for the diagnostic on stderr.
  std::vector<std::string> problems() const;

 private:
  void Note(const std::string& what);

  std::atomic<size_t> attempted_{0};
  std::atomic<size_t> failed_{0};
  std::atomic<size_t> check_failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> problems_;  ///< guarded by mu_
};

/// In-memory spans of a traced run: name, start, end, parent and request
/// id. Spans are timed around calls the benchmark itself makes into one
/// layer's public functions. Thread-safe; disabled logs record nothing.
///
/// Self time is a span's duration minus the time its child spans cover.
/// A child is either nested inside its parent's interval, or a *paired*
/// call: the same input sent to the same function one layer down, right
/// after the parent (an in-process call standing in for the handler part
/// of a wire round trip, say). Either way the child's duration is the part
/// of the parent's work that belongs to the lower layer.
class SpanLog {
 public:
  static constexpr int64_t kNone = -1;

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Records a finished span; returns its id (kNone when disabled).
  int64_t Add(std::string_view name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request_id);

  /// Times `fn()` as one span; returns the span id.
  template <typename Fn>
  int64_t Time(std::string_view name, int64_t parent, uint64_t request_id,
               Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    return Add(name, start, Clock::now(), parent, request_id);
  }

  /// Makes `child` a child of `parent` after both were recorded (paired
  /// calls are timed before the span they stand inside).
  void Adopt(int64_t parent, int64_t child);

  /// Self times, in microseconds, of every span called `name`.
  std::vector<double> SelfUs(std::string_view name) const;

  /// Writes one JSON object per span, in recording order.
  common::Status WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = kNone;
    uint64_t request_id = 0;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Runs fn(i) for every i in [0, n) on `threads` threads.
void ParallelFor(size_t n, size_t threads, const std::function<void(size_t)>& fn);

/// Sum over all label sets of the counter `name` in a
/// `/metrics?format=json` body.
double CounterSum(std::string_view metrics_json, std::string_view name);

/// Scrapes `/metrics?format=json` from the server on `port`.
std::string ScrapeMetrics(uint16_t port);

}  // namespace lightor::e2e

#endif  // LIGHTOR_E2EBENCH_BENCH_H_
