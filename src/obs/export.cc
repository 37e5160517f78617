#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/strings.h"

namespace lightor::obs {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatLabels(const LabelList& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += '"';
  }
  out += '}';
  return out;
}

/// Like FormatLabels but with one extra label appended (histogram `le`).
std::string FormatLabelsWith(const LabelList& labels, const std::string& key,
                             const std::string& value) {
  LabelList extended = labels;
  extended.emplace_back(key, value);
  return FormatLabels(extended);
}

std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Upper-bound label value: integral bounds print without a decimal
/// point ("5" not "5.0") which is what Prometheus servers emit too.
std::string FormatBound(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
    return buf;
  }
  return FormatDouble(v);
}

void EmitTypeOnce(std::ostringstream& out, std::set<std::string>& typed,
                  const std::string& name, const char* type) {
  if (typed.insert(name).second) {
    out << "# TYPE " << name << ' ' << type << '\n';
  }
}

/// Opens one JSON series object: `{"name":...,"labels":{...}`.
void AppendJsonSeries(const std::string& name, const LabelList& labels,
                      std::string& out) {
  out += "{\"name\":";
  common::AppendJsonString(name, out);
  out += ",\"labels\":{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    common::AppendJsonString(labels[i].first, out);
    out += ':';
    common::AppendJsonString(labels[i].second, out);
  }
  out += '}';
}

}  // namespace

std::string ExportPrometheus(const RegistrySnapshot& snapshot) {
  std::ostringstream out;
  std::set<std::string> typed;
  // The snapshot arrives sorted by series key (registry map order), so
  // samples of one family are already adjacent.
  for (const auto& c : snapshot.counters) {
    EmitTypeOnce(out, typed, c.name, "counter");
    out << c.name << FormatLabels(c.labels) << ' ' << c.value << '\n';
  }
  for (const auto& g : snapshot.gauges) {
    EmitTypeOnce(out, typed, g.name, "gauge");
    out << g.name << FormatLabels(g.labels) << ' ' << FormatDouble(g.value)
        << '\n';
  }
  for (const auto& h : snapshot.histograms) {
    EmitTypeOnce(out, typed, h.name, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cumulative += h.bucket_counts[i];
      const std::string le =
          i < h.bounds.size() ? FormatBound(h.bounds[i]) : "+Inf";
      out << h.name << "_bucket" << FormatLabelsWith(h.labels, "le", le) << ' '
          << cumulative << '\n';
    }
    out << h.name << "_sum" << FormatLabels(h.labels) << ' '
        << FormatDouble(h.sum) << '\n';
    out << h.name << "_count" << FormatLabels(h.labels) << ' ' << h.count
        << '\n';
  }
  return out.str();
}

std::string ExportPrometheus(const Registry& registry) {
  return ExportPrometheus(registry.Snapshot());
}

std::string ExportJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\"counters\":[";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    if (i) out += ',';
    AppendJsonSeries(c.name, c.labels, out);
    out += ",\"value\":" + std::to_string(c.value) + '}';
  }
  out += "],\"gauges\":[";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    if (i) out += ',';
    AppendJsonSeries(g.name, g.labels, out);
    out += ",\"value\":" + FormatDouble(g.value) + '}';
  }
  out += "],\"histograms\":[";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    if (i) out += ',';
    AppendJsonSeries(h.name, h.labels, out);
    out += ",\"buckets\":[";
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (b) out += ',';
      const std::string le =
          b < h.bounds.size() ? FormatDouble(h.bounds[b]) : "\"+Inf\"";
      out += "{\"le\":" + le +
             ",\"count\":" + std::to_string(h.bucket_counts[b]) + '}';
    }
    out += "],\"sum\":" + FormatDouble(h.sum) +
           ",\"count\":" + std::to_string(h.count) + '}';
  }
  out += "]}";
  return out;
}

std::string ExportJson(const Registry& registry) {
  return ExportJson(registry.Snapshot());
}

void MergeSnapshotInto(RegistrySnapshot* into, const RegistrySnapshot& from) {
  for (const auto& c : from.counters) {
    bool merged = false;
    for (auto& existing : into->counters) {
      if (existing.name == c.name && existing.labels == c.labels) {
        existing.value += c.value;
        merged = true;
        break;
      }
    }
    if (!merged) into->counters.push_back(c);
  }
  for (const auto& g : from.gauges) {
    bool merged = false;
    for (auto& existing : into->gauges) {
      if (existing.name == g.name && existing.labels == g.labels) {
        existing.value += g.value;
        merged = true;
        break;
      }
    }
    if (!merged) into->gauges.push_back(g);
  }
  for (const auto& h : from.histograms) {
    bool merged = false;
    for (auto& existing : into->histograms) {
      if (existing.name != h.name || existing.labels != h.labels) continue;
      if (existing.bounds == h.bounds &&
          existing.bucket_counts.size() == h.bucket_counts.size()) {
        for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
          existing.bucket_counts[i] += h.bucket_counts[i];
        }
        existing.count += h.count;
        existing.sum += h.sum;
      }
      merged = true;  // bound mismatch: matched but unmergeable, skip
      break;
    }
    if (!merged) into->histograms.push_back(h);
  }
}

common::Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return common::Status::IoError("cannot open for writing: " + path);
  }
  out << content;
  out.flush();
  if (!out) return common::Status::IoError("short write: " + path);
  return common::Status::OK();
}

}  // namespace lightor::obs
