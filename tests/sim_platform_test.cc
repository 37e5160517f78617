#include <gtest/gtest.h>

#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/platform.h"

namespace lightor::sim {
namespace {

Platform::Options SmallPlatform() {
  Platform::Options opts;
  opts.num_channels = 4;
  opts.videos_per_channel = 3;
  opts.seed = 21;
  return opts;
}

TEST(PlatformTest, ChannelsSortedByPopularity) {
  Platform platform(SmallPlatform());
  const auto& channels = platform.channels();
  ASSERT_EQ(channels.size(), 4u);
  for (size_t i = 1; i < channels.size(); ++i) {
    EXPECT_GE(channels[i - 1].popularity, channels[i].popularity);
  }
}

TEST(PlatformTest, ListRecentVideoIds) {
  Platform platform(SmallPlatform());
  const auto& channel = platform.channels()[0].name;
  auto ids = platform.ListRecentVideoIds(channel, 2);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 2u);
  auto all = platform.ListRecentVideoIds(channel, -1);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 3u);
  EXPECT_TRUE(platform.ListRecentVideoIds("nope", 1).status().IsNotFound());
}

TEST(PlatformTest, GetVideoAndChat) {
  Platform platform(SmallPlatform());
  const auto ids = platform.AllVideoIds();
  ASSERT_EQ(ids.size(), 12u);
  auto video = platform.GetVideo(ids[0]);
  ASSERT_TRUE(video.ok());
  EXPECT_GT(video.value().num_viewers, 0);
  EXPECT_FALSE(video.value().chat.empty());
  auto chat = platform.FetchChat(ids[0]);
  ASSERT_TRUE(chat.ok());
  EXPECT_EQ(chat.value().size(), video.value().chat.size());
  auto length = platform.VideoLength(ids[0]);
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(length.value(), video.value().truth.meta.length);
  EXPECT_TRUE(platform.GetVideo("missing").status().IsNotFound());
  EXPECT_TRUE(platform.FetchChat("missing").status().IsNotFound());
  EXPECT_TRUE(platform.VideoLength("missing").status().IsNotFound());
}

TEST(PlatformTest, PopularChannelsHaveDenserChat) {
  Platform::Options opts;
  opts.num_channels = 8;
  opts.videos_per_channel = 4;
  opts.seed = 3;
  Platform platform(opts);
  auto mean_rate = [&](const std::string& channel) {
    auto ids = platform.ListRecentVideoIds(channel, -1);
    double total = 0.0;
    for (const auto& id : ids.value()) {
      const auto video = platform.GetVideo(id).value();
      total += static_cast<double>(video.chat.size()) /
               (video.truth.meta.length / 3600.0);
    }
    return total / static_cast<double>(ids.value().size());
  };
  const double top = mean_rate(platform.channels().front().name);
  const double bottom = mean_rate(platform.channels().back().name);
  EXPECT_GT(top, bottom);
}

TEST(PlatformTest, AllVideosHaveViewersAboveFloor) {
  Platform platform(SmallPlatform());
  for (const auto& id : platform.AllVideoIds()) {
    EXPECT_GT(platform.GetVideo(id).value().num_viewers, 100);
  }
}

TEST(CorpusTest, MakeCorpusSizesAndGame) {
  const Corpus corpus = MakeCorpus(GameType::kLol, 5, 77);
  ASSERT_EQ(corpus.size(), 5u);
  for (const auto& video : corpus) {
    EXPECT_EQ(video.truth.meta.game, GameType::kLol);
    EXPECT_FALSE(video.chat.empty());
    EXPECT_FALSE(video.truth.highlights.empty());
  }
}

TEST(CorpusTest, DeterministicPerSeed) {
  const Corpus a = MakeCorpus(GameType::kDota2, 2, 5);
  const Corpus b = MakeCorpus(GameType::kDota2, 2, 5);
  EXPECT_EQ(a[0].chat.size(), b[0].chat.size());
  EXPECT_DOUBLE_EQ(a[1].truth.meta.length, b[1].truth.meta.length);
}

TEST(CorpusTest, SplitCorpusSlices) {
  const Corpus corpus = MakeCorpus(GameType::kDota2, 6, 9);
  const auto split = SplitCorpus(corpus, 2, 3);
  EXPECT_EQ(split.train.size(), 2u);
  EXPECT_EQ(split.test.size(), 3u);
  EXPECT_EQ(split.train[0].truth.meta.id, corpus[0].truth.meta.id);
  EXPECT_EQ(split.test[0].truth.meta.id, corpus[2].truth.meta.id);
  // Out-of-range requests clamp.
  const auto clamped = SplitCorpus(corpus, 5, 10);
  EXPECT_EQ(clamped.test.size(), 1u);
}

TEST(BridgeTest, ToCoreMessagesStripsAnnotations) {
  const Corpus corpus = MakeCorpus(GameType::kDota2, 1, 13);
  const auto messages = ToCoreMessages(corpus[0].chat);
  ASSERT_EQ(messages.size(), corpus[0].chat.size());
  for (size_t i = 0; i < messages.size(); i += 53) {
    EXPECT_DOUBLE_EQ(messages[i].timestamp, corpus[0].chat[i].timestamp);
    EXPECT_EQ(messages[i].text, corpus[0].chat[i].text);
  }
}

TEST(BridgeTest, SimulatedCrowdProviderCollects) {
  const Corpus corpus = MakeCorpus(GameType::kDota2, 1, 14);
  const auto& truth = corpus[0].truth;
  SimulatedCrowdProvider provider(truth, ViewerSimulator(), 10,
                                  common::Rng(5));
  const auto plays =
      provider.Collect(truth.highlights[0].span.start - 2.0);
  EXPECT_FALSE(plays.empty());
  EXPECT_EQ(provider.total_sessions(), 10);
  provider.Collect(truth.highlights[0].span.start);
  EXPECT_EQ(provider.total_sessions(), 20);
}

}  // namespace
}  // namespace lightor::sim
