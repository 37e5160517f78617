#ifndef LIGHTOR_E2EBENCH_STACK_H_
#define LIGHTOR_E2EBENCH_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "core/lightor.h"
#include "net/server.h"
#include "serving/highlight_server.h"
#include "sim/platform.h"
#include "storage/database.h"

namespace lightor::e2e {

/// What the seed and the workload decide about the inputs. The program
/// under test only ever sees what these generate.
struct Regime {
  std::string name;
  /// Zipf exponent of video popularity for viewer traffic (0 = uniform).
  double zipf_s = 1.0;
  /// Platform chat-rate multipliers at channel popularity 1 and 0: the
  /// spread of chat volume per video.
  double max_rate_scale = 2.6;
  double min_rate_scale = 0.45;
  /// Viewer mix weights: GET /highlights, POST /visit, /session, /refine.
  int highlights_w = 55;
  int visit_w = 25;
  int session_w = 18;
  int refine_w = 2;
};

/// The generated world every phase draws from: one simulated platform,
/// the trained pipeline, and the split of its videos between phases.
struct World {
  std::unique_ptr<sim::Platform> platform;
  std::unique_ptr<core::Lightor> lightor;
  /// Recorded videos the viewer and routed phases serve, most popular
  /// channel first (the Zipf rank order).
  std::vector<std::string> viewer_ids;
  /// Never-visited videos for backfill; their chat also feeds the live
  /// channels.
  std::vector<std::string> cold_ids;
};

inline constexpr size_t kViewerVideos = 200;
inline constexpr size_t kColdVideos = 300;

/// Builds the platform (chat generation included) and trains the
/// Initializer on an out-of-platform corpus video, as `lightor serve-http`
/// does.
std::unique_ptr<World> MakeWorld(const Regime& regime, uint64_t seed);

/// The serving options `lightor serve-http` runs with when given no flags.
serving::ServerOptions ServeHttpDefaults(const World& world,
                                         storage::Database* db);

/// One `lightor serve-http` process, in-process: database, HighlightServer
/// and HttpServer with their CLI defaults, after `tweak` adjusts the
/// serving options. The destructor drains like the CLI: wire first, then
/// the serving layer.
class Backend {
 public:
  static std::unique_ptr<Backend> Start(
      const World& world, const std::string& dir,
      const std::function<void(serving::ServerOptions&)>& tweak = {},
      bool with_http = true);
  ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  uint16_t port() const { return http_->port(); }
  std::string address() const;
  serving::HighlightServer& server() { return *server_; }
  storage::Database& db() { return *db_; }

 private:
  Backend() = default;

  std::string dir_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<serving::HighlightServer> server_;
  std::unique_ptr<net::HttpServer> http_;
};

/// A `lightor route` front door over two backends, all in-process.
class RoutedCluster {
 public:
  static std::unique_ptr<RoutedCluster> Start(const World& world,
                                              const std::string& dir);
  ~RoutedCluster();
  RoutedCluster(const RoutedCluster&) = delete;
  RoutedCluster& operator=(const RoutedCluster&) = delete;

  uint16_t port() const { return router_->port(); }
  std::vector<std::unique_ptr<Backend>>& backends() { return backends_; }
  /// The backend the router's ring assigns `video_id` to.
  Backend& OwnerOf(const std::string& video_id);

 private:
  RoutedCluster() = default;

  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<cluster::HighlightRouter> router_;
};

/// The records a server publishes for `dots` (mirrors the serving layer's
/// conversion, so checks can encode expected bodies byte for byte).
std::vector<storage::HighlightRecord> RecordsFromDots(
    const core::Lightor& lightor, const std::string& video_id,
    const std::vector<core::RedDot>& dots);

}  // namespace lightor::e2e

#endif  // LIGHTOR_E2EBENCH_STACK_H_
