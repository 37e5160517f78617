#include "cluster/metrics.h"

#include <cmath>
#include <utility>

#include "net/json_arena.h"

namespace lightor::cluster {

namespace {

obs::Registry& Reg() { return obs::Registry::Global(); }

}  // namespace

obs::Counter& RouterRequestsCounter(const std::string& backend) {
  return *Reg().GetCounter("lightor_cluster_requests_total",
                           {{"backend", backend}});
}

obs::Counter& RouterErrorsCounter(const std::string& backend) {
  return *Reg().GetCounter("lightor_cluster_errors_total",
                           {{"backend", backend}});
}

obs::Counter& RouterRetriesCounter(const std::string& backend) {
  return *Reg().GetCounter("lightor_cluster_retries_total",
                           {{"backend", backend}});
}

obs::Counter& RouterFailoversCounter() {
  static obs::Counter* const counter =
      Reg().GetCounter("lightor_cluster_failovers_total");
  return *counter;
}

obs::Counter& RouterRejectedCounter() {
  static obs::Counter* const counter =
      Reg().GetCounter("lightor_cluster_rejected_total");
  return *counter;
}

obs::Gauge& RingSizeGauge() {
  static obs::Gauge* const gauge =
      Reg().GetGauge("lightor_cluster_ring_size");
  return *gauge;
}

obs::Gauge& MembershipVersionGauge() {
  static obs::Gauge* const gauge =
      Reg().GetGauge("lightor_cluster_membership_version");
  return *gauge;
}

obs::Gauge& BackendHealthGauge(const std::string& backend) {
  return *Reg().GetGauge("lightor_cluster_backend_health",
                         {{"backend", backend}});
}

obs::Counter& ScrapesCounter(bool ok) {
  static obs::Counter* const succeeded = Reg().GetCounter(
      "lightor_cluster_scrapes_total", {{"outcome", "ok"}});
  static obs::Counter* const failed = Reg().GetCounter(
      "lightor_cluster_scrapes_total", {{"outcome", "error"}});
  return ok ? *succeeded : *failed;
}

obs::Histogram& UpstreamLatency(const std::string& backend) {
  return *Reg().GetHistogram("lightor_cluster_upstream_seconds",
                             obs::Histogram::LatencyBounds(),
                             {{"backend", backend}});
}

namespace {

using net::JsonDoc;

common::Result<obs::LabelList> ParseLabels(JsonDoc::Ref entry) {
  obs::LabelList labels;
  const JsonDoc::Ref obj = entry.Find("labels");
  if (!obj) return labels;  // label-less series
  if (!obj.is_object()) {
    return common::Status::InvalidArgument(
        "metrics json: \"labels\" must be an object");
  }
  for (JsonDoc::Ref value = obj.first_child(); value;
       value = value.next_sibling()) {
    if (!value.is_string()) {
      return common::Status::InvalidArgument(
          "metrics json: label values must be strings");
    }
    labels.emplace_back(value.key(), value.AsString());
  }
  return labels;
}

common::Result<double> GetNumber(JsonDoc::Ref entry, const char* field) {
  const JsonDoc::Ref value = entry.Find(field);
  if (!value || !value.is_number()) {
    return common::Status::InvalidArgument(
        std::string("metrics json: missing number field \"") + field + "\"");
  }
  return value.AsNumber();
}

/// A counter value or bucket/observation count: a whole number in
/// [0, 2^64). Anything else is a malformed scrape, never a cast.
common::Result<uint64_t> GetCount(JsonDoc::Ref entry, const char* field) {
  LIGHTOR_ASSIGN_OR_RETURN(const double value, GetNumber(entry, field));
  if (value < 0.0 || value != std::floor(value) ||
      value >= 18446744073709551616.0) {
    return common::Status::InvalidArgument(
        std::string("metrics json: \"") + field +
        "\" must be a whole number in [0, 2^64)");
  }
  return static_cast<uint64_t>(value);
}

common::Result<std::string> GetName(JsonDoc::Ref entry) {
  const JsonDoc::Ref name = entry.Find("name");
  if (!name || !name.is_string()) {
    return common::Status::InvalidArgument(
        "metrics json: series entry missing string \"name\"");
  }
  return std::string(name.AsString());
}

}  // namespace

common::Result<obs::RegistrySnapshot> ParseMetricsJson(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, JsonDoc::Parse(json));
  if (!doc.root().is_object()) {
    return common::Status::InvalidArgument(
        "metrics json: document must be an object");
  }
  obs::RegistrySnapshot snapshot;

  if (const JsonDoc::Ref counters = doc.root().Find("counters")) {
    if (!counters.is_array()) {
      return common::Status::InvalidArgument(
          "metrics json: \"counters\" must be an array");
    }
    for (JsonDoc::Ref entry = counters.first_child(); entry;
         entry = entry.next_sibling()) {
      obs::CounterSnapshot c;
      LIGHTOR_ASSIGN_OR_RETURN(c.name, GetName(entry));
      LIGHTOR_ASSIGN_OR_RETURN(c.labels, ParseLabels(entry));
      LIGHTOR_ASSIGN_OR_RETURN(c.value, GetCount(entry, "value"));
      snapshot.counters.push_back(std::move(c));
    }
  }

  if (const JsonDoc::Ref gauges = doc.root().Find("gauges")) {
    if (!gauges.is_array()) {
      return common::Status::InvalidArgument(
          "metrics json: \"gauges\" must be an array");
    }
    for (JsonDoc::Ref entry = gauges.first_child(); entry;
         entry = entry.next_sibling()) {
      obs::GaugeSnapshot g;
      LIGHTOR_ASSIGN_OR_RETURN(g.name, GetName(entry));
      LIGHTOR_ASSIGN_OR_RETURN(g.labels, ParseLabels(entry));
      LIGHTOR_ASSIGN_OR_RETURN(g.value, GetNumber(entry, "value"));
      snapshot.gauges.push_back(std::move(g));
    }
  }

  if (const JsonDoc::Ref histograms = doc.root().Find("histograms")) {
    if (!histograms.is_array()) {
      return common::Status::InvalidArgument(
          "metrics json: \"histograms\" must be an array");
    }
    for (JsonDoc::Ref entry = histograms.first_child(); entry;
         entry = entry.next_sibling()) {
      obs::HistogramSnapshot h;
      LIGHTOR_ASSIGN_OR_RETURN(h.name, GetName(entry));
      LIGHTOR_ASSIGN_OR_RETURN(h.labels, ParseLabels(entry));
      const JsonDoc::Ref buckets = entry.Find("buckets");
      if (!buckets || !buckets.is_array()) {
        return common::Status::InvalidArgument(
            "metrics json: histogram missing \"buckets\" array");
      }
      for (JsonDoc::Ref bucket = buckets.first_child(); bucket;
           bucket = bucket.next_sibling()) {
        // "le" is a number for finite bounds and the string "+Inf" for
        // the overflow bucket (which carries no bound entry).
        const JsonDoc::Ref le = bucket.Find("le");
        if (!le) {
          return common::Status::InvalidArgument(
              "metrics json: bucket missing \"le\"");
        }
        if (le.is_number()) h.bounds.push_back(le.AsNumber());
        LIGHTOR_ASSIGN_OR_RETURN(const uint64_t count,
                                 GetCount(bucket, "count"));
        h.bucket_counts.push_back(count);
      }
      if (h.bucket_counts.size() != h.bounds.size() + 1) {
        return common::Status::InvalidArgument(
            "metrics json: histogram must end with one +Inf bucket");
      }
      LIGHTOR_ASSIGN_OR_RETURN(h.sum, GetNumber(entry, "sum"));
      LIGHTOR_ASSIGN_OR_RETURN(h.count, GetCount(entry, "count"));
      snapshot.histograms.push_back(std::move(h));
    }
  }

  return snapshot;
}

}  // namespace lightor::cluster
