#include "sim/platform.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace lightor::sim {

namespace {

obs::Counter& VideosBuiltCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_sim_videos_built_total");
  return *counter;
}

}  // namespace

Platform::Platform(Options options) : options_(options) {
  common::Rng rng(options_.seed);
  const GameProfile profile = GameProfile::ForGame(options_.game);
  VideoGenerator video_gen(profile);
  ChatSimulator chat_sim(profile);

  for (int c = 0; c < options_.num_channels; ++c) {
    Channel channel;
    channel.name = GameTypeName(options_.game) + "_channel" + std::to_string(c);
    channel.game = options_.game;
    // Zipf-ish popularity by rank with mild noise.
    channel.popularity = std::clamp(
        (1.0 / std::pow(static_cast<double>(c + 1), 0.55)) *
            rng.Uniform(0.85, 1.15),
        0.05, 1.0);
    channels_.push_back(channel);
  }
  std::sort(channels_.begin(), channels_.end(),
            [](const Channel& a, const Channel& b) {
              return a.popularity > b.popularity;
            });

  for (const auto& channel : channels_) {
    for (int v = 0; v < options_.videos_per_channel; ++v) {
      const std::string id = channel.name + "_v" + std::to_string(v);
      RecordedVideo rec;
      rec.truth = video_gen.Generate(id, rng);
      const double rate_scale =
          options_.min_rate_scale +
          (options_.max_rate_scale - options_.min_rate_scale) *
              channel.popularity * rng.Uniform(0.8, 1.25);
      rec.chat = chat_sim.Generate(rec.truth, rng, rate_scale);
      // Audience: hundreds on small channels, thousands on big ones.
      rec.num_viewers = static_cast<int>(std::lround(
          (150.0 + 4500.0 * channel.popularity) * rng.LogNormal(0.0, 0.25)));
      channel_videos_[channel.name].push_back(id);
      videos_.emplace(id, std::move(rec));
      VideosBuiltCounter().Increment();
    }
  }
}

common::Result<std::vector<std::string>> Platform::ListRecentVideoIds(
    const std::string& channel_name, int n) const {
  auto it = channel_videos_.find(channel_name);
  if (it == channel_videos_.end()) {
    return common::Status::NotFound("unknown channel: " + channel_name);
  }
  std::vector<std::string> ids = it->second;
  if (n >= 0 && static_cast<size_t>(n) < ids.size()) {
    ids.resize(static_cast<size_t>(n));
  }
  return ids;
}

common::Result<RecordedVideo> Platform::GetVideo(
    const std::string& video_id) const {
  auto it = videos_.find(video_id);
  if (it == videos_.end()) {
    return common::Status::NotFound("unknown video: " + video_id);
  }
  return it->second;
}

common::Result<double> Platform::VideoLength(
    const std::string& video_id) const {
  auto it = videos_.find(video_id);
  if (it == videos_.end()) {
    return common::Status::NotFound("unknown video: " + video_id);
  }
  return it->second.truth.meta.length;
}

common::Result<ChatLog> Platform::FetchChat(const std::string& video_id) const {
  auto it = videos_.find(video_id);
  if (it == videos_.end()) {
    return common::Status::NotFound("unknown video: " + video_id);
  }
  return it->second.chat;
}

std::vector<std::string> Platform::AllVideoIds() const {
  std::vector<std::string> ids;
  ids.reserve(videos_.size());
  for (const auto& [id, _] : videos_) ids.push_back(id);
  return ids;
}

}  // namespace lightor::sim
