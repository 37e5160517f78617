/// End-to-end benchmark of the LIGHTOR service: one run drives the real
/// HttpServer → HighlightServer stack (and a HighlightRouter over two
/// backends) through every user path, checks every output, and prints one
/// JSON result line. See README.md.
///
///   e2e_bench --workload skewed|uniform --seed N --seconds S --trace 0|1
///             --work-dir DIR [--spans-out FILE]
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "phases.h"

namespace lightor::e2e {
namespace {

/// The two input regimes. Each varies what the system's cost depends on:
/// chat volume per video, how many videos are in play, and the read/write
/// share.
bool RegimeFor(const std::string& name, Regime* regime) {
  regime->name = name;
  if (name == "skewed") {
    // Platform defaults: chat volume follows Zipf channel popularity;
    // viewers crowd the popular videos; dot pollers dominate.
    return true;
  }
  if (name == "uniform") {
    regime->zipf_s = 0.0;
    regime->max_rate_scale = 1.2;
    regime->min_rate_scale = 1.2;
    regime->highlights_w = 30;
    regime->visit_w = 25;
    regime->session_w = 43;
    regime->refine_w = 2;
    return true;
  }
  return false;
}

/// Peak RSS of this process, which hosts every server of the run.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  std::string workload, work_dir, spans_out;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  Regime regime;
  if (!RegimeFor(workload, &regime) || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload skewed|uniform --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]\n");
    return 2;
  }
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);

  RunContext ctx(regime, seed, seconds, trace == 1, work_dir);
  ctx.world = SetUp<World>(ctx, [&] { return MakeWorld(regime, seed); });
  // Backfill runs last: its chat writes are the heaviest, and their
  // writeback would otherwise land in the next phase's timings.
  for (auto phase : {RunViewerPhase, RunRoutedPhase, RunLivePhase,
                     RunBackfillPhase}) {
    phase(ctx);
    // Hand the phase's freed heap back, so the next phase's peak is its own.
    malloc_trim(0);
    std::fprintf(stderr, "  peak rss so far %.0f MB, set-up so far %.3f s\n",
                 PeakRssMb(), ctx.setup_s);
  }
  ctx.world.reset();
  std::filesystem::remove_all(work_dir);

  if (ctx.invalid) {
    std::fprintf(stderr,
                 "e2ebench: INVALID run: an open-loop generator fell behind "
                 "its schedule, so no numbers are reported\n");
    return 3;
  }
  for (const std::string& problem : ctx.tally.problems()) {
    std::fprintf(stderr, "e2ebench: %s\n", problem.c_str());
  }

  Metrics& out = ctx.trace ? ctx.layer : ctx.e2e;
  if (!ctx.trace) {
    out["setup_s"] = {ctx.setup_s, "s"};
    out["peak_rss_mb"] = {PeakRssMb(), "MB"};
  } else {
    std::printf("%-36s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const auto& [name, metric] : out) {
      std::printf("%-36s %14.4f  %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    if (!spans_out.empty()) {
      Must(ctx.spans.WriteJsonLines(spans_out), "write spans");
      std::printf("%zu spans written to %s\n", ctx.spans.size(),
                  spans_out.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += ctx.tally.checks_ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ctx.tally.attempted());
  json += ", \"failed\": " + std::to_string(ctx.tally.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ctx.tally.checks_ok() ? 0 : 1;
}

}  // namespace
}  // namespace lightor::e2e

int main(int argc, char** argv) { return lightor::e2e::Main(argc, argv); }
