#ifndef LIGHTOR_STORAGE_CRAWLER_H_
#define LIGHTOR_STORAGE_CRAWLER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sim/platform.h"
#include "storage/database.h"

namespace lightor::storage {

/// The chat crawler of Section VI, split into its two steps:
///
///   * **Fetch** calls the platform API for one video's chat and returns
///     it as records, sorted by timestamp (stable) — the order the chat
///     store holds them in. It touches no database, so callers may run it
///     with no lock held.
///   * **Store** appends a fetched crawl to the database with one chat-log
///     flush (`Database::PutChat`): every record or none reaches the
///     store, so a failed crawl leaves no partial chat.
///
/// Offline crawling sweeps a list of popular channels for new videos;
/// online crawling (`EnsureChat`) runs both steps when a page visit finds
/// no chat in the database. The "platform API" is the simulated platform.
/// The serving layer runs the steps itself, `Fetch` outside its database
/// mutex and `HasChat` and `Store` under it.
class Crawler {
 public:
  /// Neither pointer is owned; both must outlive the crawler.
  Crawler(const sim::Platform* platform, Database* db);

  /// Offline pass over one channel's `recent` most recent videos. Returns
  /// the number of videos whose chat was newly crawled.
  common::Result<int> CrawlChannel(const std::string& channel_name,
                                   int recent);

  /// Offline pass over every channel.
  common::Result<int> CrawlAllChannels(int recent_per_channel);

  /// Online crawl: ensures `video_id`'s chat is in the database. Returns
  /// true if a crawl happened, false if the chat was already stored.
  common::Result<bool> EnsureChat(const std::string& video_id);

  /// Whether the database holds `video_id`'s chat; counts a chat-cache
  /// hit, or a miss (the caller crawls next).
  bool HasChat(const std::string& video_id);

  /// Fetch step: `video_id`'s chat from the platform as records, in
  /// stored order. Thread-safe.
  common::Result<std::vector<ChatRecord>> Fetch(
      const std::string& video_id) const;

  /// Store step: appends one fetched crawl with a single flush and counts
  /// the video as crawled.
  common::Status Store(std::vector<ChatRecord> records);

 private:
  const sim::Platform* platform_;
  Database* db_;
};

}  // namespace lightor::storage

#endif  // LIGHTOR_STORAGE_CRAWLER_H_
