#include "stack.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "net/service.h"
#include "sim/bridge.h"
#include "sim/corpus.h"

namespace lightor::e2e {

std::unique_ptr<World> MakeWorld(const Regime& regime, uint64_t seed) {
  auto world = std::make_unique<World>();
  sim::Platform::Options popts;
  popts.num_channels = 25;
  popts.videos_per_channel = 20;
  popts.seed = seed;
  popts.max_rate_scale = regime.max_rate_scale;
  popts.min_rate_scale = regime.min_rate_scale;
  world->platform = std::make_unique<sim::Platform>(popts);

  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, seed + 1000);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) tv.highlights.push_back(h.span);
  world->lightor = std::make_unique<core::Lightor>(core::LightorOptions{});
  Must(world->lightor->TrainInitializer({tv}), "train initializer");

  // A seeded shuffle splits every channel's videos between the phases,
  // so both sets span the whole popularity range.
  std::vector<std::string> ids = world->platform->AllVideoIds();
  common::Rng rng(seed ^ 0x51ab5eedULL);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(i) - 1))]);
  }
  if (ids.size() < kViewerVideos + kColdVideos) Die("platform too small");
  world->viewer_ids.assign(ids.begin(), ids.begin() + kViewerVideos);
  world->cold_ids.assign(ids.begin() + kViewerVideos,
                         ids.begin() + kViewerVideos + kColdVideos);

  std::unordered_map<std::string, size_t> channel_rank;
  for (size_t r = 0; r < world->platform->channels().size(); ++r) {
    channel_rank[world->platform->channels()[r].name] = r;
  }
  auto rank_of = [&](const std::string& id) {
    const size_t cut = id.rfind("_v");
    return std::make_pair(channel_rank.at(id.substr(0, cut)),
                          std::stoi(id.substr(cut + 2)));
  };
  std::sort(world->viewer_ids.begin(), world->viewer_ids.end(),
            [&](const std::string& a, const std::string& b) {
              return rank_of(a) < rank_of(b);
            });
  return world;
}

serving::ServerOptions ServeHttpDefaults(const World& world,
                                         storage::Database* db) {
  serving::ServerOptions sopts;
  sopts.platform = serving::Borrow(
      static_cast<const sim::Platform*>(world.platform.get()));
  sopts.db = serving::Borrow(db);
  sopts.lightor = serving::Borrow(
      static_cast<const core::Lightor*>(world.lightor.get()));
  sopts.top_k = 5;
  sopts.num_workers = 2;
  sopts.num_shards = 16;
  sopts.refine_batch_sessions = 8;
  sopts.batched_session_flush = true;
  sopts.stream_refresh_messages = 64;
  sopts.ingest_queue_messages = 8192;
  sopts.ingest_quantum_messages = 256;
  return sopts;
}

std::unique_ptr<Backend> Backend::Start(
    const World& world, const std::string& dir,
    const std::function<void(serving::ServerOptions&)>& tweak,
    bool with_http) {
  std::unique_ptr<Backend> backend(new Backend());
  backend->dir_ = dir;
  std::filesystem::remove_all(dir);
  auto opened = Must(storage::DB::Open(storage::OpenOptions(dir)), "db open");
  backend->db_ = std::move(opened.db);
  serving::ServerOptions sopts = ServeHttpDefaults(world, backend->db_.get());
  if (tweak) tweak(sopts);
  backend->server_ =
      Must(serving::HighlightServer::Create(sopts), "highlight server");
  backend->server_->Bootstrap(opened.stats);
  if (with_http) {
    // NetOptions' defaults are serve-http's flag defaults.
    backend->http_ =
        Must(net::HttpServer::Create(net::NetOptions{},
                                     net::BuildRoutes(backend->server_.get())),
             "http server");
  }
  return backend;
}

Backend::~Backend() {
  if (http_ != nullptr) http_->Shutdown();
  server_->Shutdown();
  http_.reset();
  server_.reset();
  db_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

std::string Backend::address() const {
  return "127.0.0.1:" + std::to_string(port());
}

std::unique_ptr<RoutedCluster> RoutedCluster::Start(const World& world,
                                                    const std::string& dir) {
  std::unique_ptr<RoutedCluster> cluster(new RoutedCluster());
  cluster::RouterOptions ropts;
  for (int b = 0; b < 2; ++b) {
    cluster->backends_.push_back(
        Backend::Start(world, dir + "/backend" + std::to_string(b)));
    ropts.backends.push_back(cluster->backends_.back()->address());
  }
  // `lightor route` defaults: 16 workers, everything else as RouterOptions.
  ropts.net.num_workers = 16;
  cluster->router_ =
      Must(cluster::HighlightRouter::Create(std::move(ropts)), "router");
  return cluster;
}

RoutedCluster::~RoutedCluster() {
  router_->Shutdown();
  router_.reset();
  backends_.clear();
}

Backend& RoutedCluster::OwnerOf(const std::string& video_id) {
  const std::string owner =
      Must(router_->fleet().Owner(video_id), "ring owner of " + video_id);
  for (auto& backend : backends_) {
    if (backend->address() == owner) return *backend;
  }
  Die("ring owner " + owner + " is not a backend");
}

std::vector<storage::HighlightRecord> RecordsFromDots(
    const core::Lightor& lightor, const std::string& video_id,
    const std::vector<core::RedDot>& dots) {
  const double fallback = lightor.options().extractor.fallback_length;
  std::vector<storage::HighlightRecord> records;
  for (size_t i = 0; i < dots.size(); ++i) {
    storage::HighlightRecord rec;
    rec.video_id = video_id;
    rec.dot_index = static_cast<int32_t>(i);
    rec.dot_position = dots[i].position;
    rec.start = dots[i].position;
    rec.end = dots[i].position + fallback;
    rec.score = dots[i].score;
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace lightor::e2e
