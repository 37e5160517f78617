#ifndef LIGHTOR_SIM_PLATFORM_H_
#define LIGHTOR_SIM_PLATFORM_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "sim/chat.h"
#include "sim/chat_simulator.h"
#include "sim/video.h"
#include "sim/video_generator.h"

namespace lightor::sim {

/// A broadcaster channel on the simulated platform.
struct Channel {
  std::string name;
  GameType game = GameType::kDota2;
  /// Popularity in (0, 1]; drives chat rate and viewer counts (Zipf-like
  /// across channel ranks, as on real platforms).
  double popularity = 1.0;
};

/// A recorded live video as the platform exposes it: ground truth (for
/// evaluation), crawled chat, and audience size.
struct RecordedVideo {
  GroundTruthVideo truth;
  ChatLog chat;
  int num_viewers = 0;
};

/// A miniature Twitch: channels ranked by popularity, each with recorded
/// videos whose chat volume and audience scale with popularity. The
/// Fig. 9 applicability study (CDFs of chat messages/hour and viewers over
/// the top channels' recent videos) runs against this model, and the
/// storage::Crawler consumes its API.
class Platform {
 public:
  struct Options {
    int num_channels = 10;
    int videos_per_channel = 20;
    GameType game = GameType::kDota2;
    uint64_t seed = 42;
    /// Chat-rate multiplier at popularity 1 vs 0 (interpolated).
    double max_rate_scale = 2.6;
    double min_rate_scale = 0.45;
  };

  explicit Platform(Options options);

  /// Channels sorted by descending popularity.
  const std::vector<Channel>& channels() const { return channels_; }

  /// The `n` most recent recorded video ids of `channel_name`.
  common::Result<std::vector<std::string>> ListRecentVideoIds(
      const std::string& channel_name, int n) const;

  /// Full video record (NotFound for unknown ids).
  common::Result<RecordedVideo> GetVideo(const std::string& video_id) const;

  /// The video's length in seconds (NotFound for unknown ids), without
  /// copying the video.
  common::Result<double> VideoLength(const std::string& video_id) const;

  /// The chat-crawl API used by storage::Crawler.
  common::Result<ChatLog> FetchChat(const std::string& video_id) const;

  /// All video ids on the platform.
  std::vector<std::string> AllVideoIds() const;

 private:
  Options options_;
  std::vector<Channel> channels_;
  std::map<std::string, RecordedVideo> videos_;
  std::map<std::string, std::vector<std::string>> channel_videos_;
};

}  // namespace lightor::sim

#endif  // LIGHTOR_SIM_PLATFORM_H_
