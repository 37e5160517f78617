#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "common/stats.h"
#include "net/client.h"
#include "net/json_arena.h"

namespace lightor::e2e {

void Die(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::exit(2);
}

void Must(const common::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  return common::Quantile(std::move(xs), q);
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

void Tally::Note(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (problems_.size() < 16) problems_.push_back(what);
}

void Tally::OpFailed(const std::string& what) {
  ++failed_;
  Note("op failed: " + what);
}

void Tally::CheckFailed(const std::string& what) {
  ++check_failures_;
  Note("check failed: " + what);
}

std::vector<std::string> Tally::problems() const {
  std::lock_guard<std::mutex> lock(mu_);
  return problems_;
}

int64_t SpanLog::Add(std::string_view name, Clock::time_point start,
                     Clock::time_point end, int64_t parent,
                     uint64_t request_id) {
  if (!enabled_) return kNone;
  Span span;
  span.name = std::string(name);
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  span.parent = parent;
  span.request_id = request_id;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::Adopt(int64_t parent, int64_t child) {
  if (!enabled_ || parent == kNone || child == kNone) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<size_t>(child)).parent = parent;
}

std::vector<double> SpanLog::SelfUs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& span : spans_) {
    if (span.parent != kNone) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    int64_t self = spans_[i].end_ns - spans_[i].start_ns;
    if (auto it = child_ns.find(static_cast<int64_t>(i)); it != child_ns.end()) {
      self -= it->second;
    }
    out.push_back(static_cast<double>(self) / 1000.0);
  }
  return out;
}

common::Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id
        << "}\n";
  }
  out.flush();
  if (!out) return common::Status::IoError("cannot write " + path);
  return common::Status::OK();
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& thread : pool) thread.join();
}

double CounterSum(std::string_view metrics_json, std::string_view name) {
  const auto doc = Must(net::JsonDoc::Parse(metrics_json), "metrics json");
  const auto counters = doc.root().Find("counters");
  if (!counters || !counters.is_array()) Die("metrics json: no counters");
  double sum = 0.0;
  for (auto c = counters.first_child(); c; c = c.next_sibling()) {
    const auto n = c.Find("name");
    const auto v = c.Find("value");
    if (n && v && n.is_string() && n.AsString() == name) sum += v.AsNumber();
  }
  return sum;
}

std::string ScrapeMetrics(uint16_t port) {
  net::HttpClient client("127.0.0.1", port);
  auto response = Must(client.Get("/metrics?format=json"), "scrape /metrics");
  if (response.status != 200) {
    Die("scrape /metrics: status " + std::to_string(response.status));
  }
  return std::move(response.body);
}

}  // namespace lightor::e2e
