#include "storage/crawler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace lightor::storage {

namespace {

obs::Counter& ChatCacheCounter(bool hit) {
  static obs::Counter* const hits = obs::Registry::Global().GetCounter(
      "lightor_storage_chat_cache_total", {{"outcome", "hit"}});
  static obs::Counter* const misses = obs::Registry::Global().GetCounter(
      "lightor_storage_chat_cache_total", {{"outcome", "miss"}});
  return hit ? *hits : *misses;
}

obs::Counter& VideosCrawledCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_storage_videos_crawled_total");
  return *counter;
}

}  // namespace

Crawler::Crawler(const sim::Platform* platform, Database* db)
    : platform_(platform), db_(db) {}

bool Crawler::HasChat(const std::string& video_id) {
  const bool stored = db_->chat().HasVideo(video_id);
  ChatCacheCounter(/*hit=*/stored).Increment();
  return stored;
}

common::Result<std::vector<ChatRecord>> Crawler::Fetch(
    const std::string& video_id) const {
  auto chat = platform_->FetchChat(video_id);
  if (!chat.ok()) return chat.status();
  std::vector<ChatRecord> records;
  records.reserve(chat.value().size());
  for (auto& msg : chat.value()) {
    ChatRecord rec;
    rec.video_id = video_id;
    rec.timestamp = msg.timestamp;
    rec.user = std::move(msg.user);
    rec.text = std::move(msg.text);
    records.push_back(std::move(rec));
  }
  // ChatStore::GetByVideo's order, so a reader of the fetched records
  // sees what a reader of the stored ones will.
  std::stable_sort(records.begin(), records.end(),
                   [](const ChatRecord& a, const ChatRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  return records;
}

common::Status Crawler::Store(std::vector<ChatRecord> records) {
  const size_t messages = records.size();
  const std::string video_id = messages > 0 ? records.front().video_id : "";
  if (messages > 0) LIGHTOR_RETURN_IF_ERROR(db_->PutChat(std::move(records)));
  VideosCrawledCounter().Increment();
  LIGHTOR_LOG(Debug) << "crawler: stored " << messages
                     << " chat messages for " << video_id;
  return common::Status::OK();
}

common::Result<bool> Crawler::EnsureChat(const std::string& video_id) {
  if (HasChat(video_id)) return false;
  LIGHTOR_ASSIGN_OR_RETURN(auto records, Fetch(video_id));
  LIGHTOR_RETURN_IF_ERROR(Store(std::move(records)));
  return true;
}

common::Result<int> Crawler::CrawlChannel(const std::string& channel_name,
                                          int recent) {
  auto ids = platform_->ListRecentVideoIds(channel_name, recent);
  if (!ids.ok()) return ids.status();
  int crawled = 0;
  for (const auto& id : ids.value()) {
    auto did = EnsureChat(id);
    if (!did.ok()) return did.status();
    if (did.value()) ++crawled;
  }
  return crawled;
}

common::Result<int> Crawler::CrawlAllChannels(int recent_per_channel) {
  int crawled = 0;
  for (const auto& channel : platform_->channels()) {
    auto n = CrawlChannel(channel.name, recent_per_channel);
    if (!n.ok()) return n.status();
    crawled += n.value();
  }
  return crawled;
}

}  // namespace lightor::storage
