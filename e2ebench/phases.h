#ifndef LIGHTOR_E2EBENCH_PHASES_H_
#define LIGHTOR_E2EBENCH_PHASES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "loop.h"
#include "sim/video.h"
#include "stack.h"

namespace lightor::e2e {

/// Load comes from one process with at most nproc (= 4 on the reference
/// box) connections.
inline constexpr size_t kConnections = 4;
/// Each set-up is repeated this often; setup_s sums the medians.
inline constexpr int kSetupRepeats = 3;
/// Open-loop offered rate of the viewer mix (viewer and routed phases),
/// requests per second: about a tenth of the closed-loop capacity on the
/// reference box (4 shared cores). At twice this rate, noise from other
/// tenants pushed the routed path into overload in some runs and its p50
/// swung twentyfold.
inline constexpr double kViewerRate = 3000.0;

/// Everything one run shares across its phases.
struct RunContext {
  RunContext(Regime r, uint64_t s, double secs, bool traced, std::string dir)
      : regime(std::move(r)),
        seed(s),
        seconds(secs),
        trace(traced),
        work_dir(std::move(dir)),
        spans(traced) {}

  Regime regime;
  uint64_t seed;
  double seconds;  ///< the run's measured time, split across phases
  bool trace;      ///< per-layer ledger instead of end-to-end numbers
  std::string work_dir;
  std::unique_ptr<World> world;

  Tally tally;
  SpanLog spans;
  /// End-to-end metrics (untraced runs) and per-layer ledger (traced).
  Metrics e2e;
  Metrics layer;
  double setup_s = 0.0;
  /// An open-loop generator fell behind: the run is invalid.
  bool invalid = false;

  /// A seeded stream for one purpose, the same on every run of a seed.
  common::Rng RngFor(uint64_t purpose) const {
    return common::Rng(seed * 0x9e3779b97f4a7c15ULL + purpose);
  }
  std::string Dir(const std::string& name) const {
    return work_dir + "/" + name;
  }
  /// Median of a per-layer span list, in its unit.
  void LayerFromSpans(const std::string& metric, const std::string& span,
                      const std::string& unit, double scale = 1.0);
};

/// Runs `make` kSetupRepeats times (tearing the previous result down
/// first, untimed) and charges the median to setup_s.
template <typename T>
std::unique_ptr<T> SetUp(RunContext& ctx,
                         const std::function<std::unique_ptr<T>()>& make) {
  std::vector<double> seconds;
  std::unique_ptr<T> built;
  for (int r = 0; r < kSetupRepeats; ++r) {
    built.reset();
    const Clock::time_point start = Clock::now();
    built = make();
    seconds.push_back(SecondsSince(start));
  }
  ctx.setup_s += Median(seconds);
  return built;
}

/// A serving front door with the viewer videos warmed (each visited once,
/// so the Initializer ran), and the dots those visits served.
template <typename Stack>
struct Warmed {
  std::unique_ptr<Stack> stack;
  std::vector<std::vector<double>> dots;  ///< per viewer video index
};

/// First-visits every viewer video through `port` (kConnections
/// connections) and returns the served dot positions.
std::vector<std::vector<double>> WarmViewerVideos(const World& world,
                                                  uint16_t port);

/// Viewer traffic: Zipf-ranked videos, the regime's op mix, sessions
/// simulated around served dots. One generator per phase and seed, so the
/// routed phase replays the viewer phase's schedule.
class ViewerTraffic {
 public:
  ViewerTraffic(const World& world, const Regime& regime,
                std::vector<std::vector<double>> dots, uint64_t seed);

  /// Poisson arrivals at `rate` per second for `seconds`: reads on two
  /// connections, sessions on the third, refines on the fourth.
  std::vector<std::vector<Request>> OpenSchedule(double rate, double seconds);
  /// `per_connection` requests per connection, sent back to back.
  std::vector<std::vector<Request>> ClosedPools(size_t per_connection);

  /// One request of the mix (or of `op`, when given).
  Request Next();
  Request Make(Op op, uint32_t video);
  /// A session request around a served dot, before encoding.
  serving::LogSessionRequest SessionFor(uint32_t video);
  uint32_t PickVideo();

  const std::vector<std::string>& ids() const { return *ids_; }

 private:
  const Regime& regime_;
  const std::vector<std::string>* ids_;
  std::vector<std::vector<double>> dots_;
  std::vector<sim::GroundTruthVideo> truths_;
  std::vector<double> zipf_cdf_;
  common::Rng rng_;
  uint64_t next_session_;
};

/// Snapshot versions a client sees for one video never go down. Tracks
/// per connection (each connection's requests are sequential).
class VersionWatch {
 public:
  VersionWatch(Tally& tally, const std::vector<std::string>& ids);
  OnResponse Hook();

 private:
  Tally& tally_;
  const std::vector<std::string>& ids_;
  std::vector<std::vector<uint64_t>> seen_;  ///< [connection][video]
};

/// Reads `"snapshot_version":N` out of a response body.
uint64_t SnapshotVersionOf(const std::string& body);

/// Each video's GET /highlights through `port` equals the encoded
/// in-process answer of `owner(video)`. One retry absorbs a background
/// refinement that lands between the two reads.
void CheckFinalHighlights(
    RunContext& ctx, uint16_t port, const std::vector<std::string>& ids,
    const std::function<serving::HighlightServer&(const std::string&)>&
        owner);

void RunViewerPhase(RunContext& ctx);
void RunBackfillPhase(RunContext& ctx);
void RunLivePhase(RunContext& ctx);
void RunRoutedPhase(RunContext& ctx);

/// Prints the open loop's latencies, records its generator lateness and
/// flags a run whose generator fell behind.
void NoteLateness(RunContext& ctx, const std::string& phase,
                  const LoopResult& result);

}  // namespace lightor::e2e

#endif  // LIGHTOR_E2EBENCH_PHASES_H_
