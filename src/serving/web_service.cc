#include "serving/web_service.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serving/metrics.h"
#include "serving/refine.h"

namespace lightor::serving {

namespace {
constexpr ServerKind kKind = ServerKind::kReference;
}  // namespace

WebService::WebService(ServerOptions options)
    : options_(std::move(options)),
      crawler_(options_.platform.get(), options_.db.get()) {
  assert(options_.Validate().ok() && "WebService: invalid ServerOptions");
  if (options_.seed_watermarks_from_db) {
    refine_watermark_ = SeedWatermarksFromDb(*options_.db);
  }
}

common::Result<PageVisitResponse> WebService::OnPageVisit(
    const PageVisitRequest& req) {
  obs::ScopedSpan span("web.OnPageVisit");
  obs::ScopedTimer timer(&RequestLatency("page_visit", kKind));
  PageVisitsCounter(kKind).Increment();
  storage::Database& db = *options_.db;
  PageVisitResponse response;
  if (db.highlights().HasVideo(req.video_id)) {
    DotCacheCounter(kKind, /*hit=*/true).Increment();
    response.highlights = db.highlights().GetLatest(req.video_id);
    return response;
  }
  DotCacheCounter(kKind, /*hit=*/false).Increment();
  // First visit: make sure the chat is stored (online crawl), then run
  // the Highlight Initializer and persist its red dots.
  auto crawled = crawler_.EnsureChat(req.video_id);
  if (!crawled.ok()) return crawled.status();

  const auto& chat = db.chat().GetByVideo(req.video_id);
  std::vector<core::Message> messages;
  messages.reserve(chat.size());
  double video_length = 0.0;
  for (const auto& rec : chat) {
    core::Message m;
    m.timestamp = rec.timestamp;
    m.user = rec.user;
    m.text = rec.text;
    video_length = std::max(video_length, rec.timestamp);
    messages.push_back(std::move(m));
  }
  // The platform knows the true video length; fall back to the last
  // message when metadata is unavailable.
  if (auto length = options_.platform->VideoLength(req.video_id);
      length.ok()) {
    video_length = length.value();
  }

  auto dots =
      options_.lightor->Initialize(messages, video_length, options_.top_k);
  if (!dots.ok()) return dots.status();

  const double fallback =
      options_.lightor->options().extractor.fallback_length;
  for (size_t i = 0; i < dots.value().size(); ++i) {
    const core::RedDot& dot = dots.value()[i];
    storage::HighlightRecord rec;
    rec.video_id = req.video_id;
    rec.dot_index = static_cast<int32_t>(i);
    rec.dot_position = dot.position;
    rec.start = dot.position;
    rec.end = dot.position + fallback;
    rec.score = dot.score;
    rec.iteration = 0;
    rec.converged = false;
    LIGHTOR_RETURN_IF_ERROR(db.PutHighlight(rec));
    response.highlights.push_back(std::move(rec));
  }
  response.first_visit = true;
  LIGHTOR_LOG(Info) << "web: first visit of " << req.video_id << " placed "
                    << response.highlights.size() << " red dots";
  return response;
}

common::Status WebService::LogSession(const LogSessionRequest& req) {
  obs::ScopedTimer timer(&RequestLatency("log_session", kKind));
  SessionsLoggedCounter(kKind).Increment();
  InteractionEventsCounter(kKind).Increment(req.events.size());
  for (const auto& ev : req.events) {
    storage::InteractionRecord rec;
    rec.video_id = req.video_id;
    rec.user = req.user;
    rec.session_id = req.session_id;
    rec.event = FromSimType(ev.type);
    rec.wall_time = ev.wall_time;
    rec.position = ev.position;
    rec.target = ev.target;
    LIGHTOR_RETURN_IF_ERROR(options_.db->PutInteraction(rec));
  }
  return common::Status::OK();
}

common::Result<RefineReport> WebService::Refine(const std::string& video_id) {
  obs::ScopedSpan span("web.Refine");
  obs::ScopedTimer timer(&RequestLatency("refine", kKind));
  RefinePassesCounter(kKind).Increment();
  storage::Database& db = *options_.db;
  if (!db.highlights().HasVideo(video_id)) {
    return common::Status::NotFound("Refine: video has no red dots yet: " +
                                    video_id);
  }
  const auto dots = db.highlights().GetLatest(video_id);

  uint64_t watermark = 0;
  if (auto it = refine_watermark_.find(video_id);
      it != refine_watermark_.end()) {
    watermark = it->second;
  }
  const auto sessions = db.interactions().SessionsSince(video_id, watermark);
  // Consume everything logged so far: next Refine only sees newer data.
  refine_watermark_[video_id] = db.interactions().current_generation() + 1;

  auto pass = RunRefinePass(*options_.lightor, video_id, dots, sessions);
  for (const auto& rec : pass.updated) {
    LIGHTOR_RETURN_IF_ERROR(db.PutHighlight(rec));
  }
  DotsUpdatedCounter(kKind).Increment(
      static_cast<uint64_t>(pass.report.dots_updated));
  LIGHTOR_LOG(Debug) << "web: refine pass on " << video_id << " updated "
                     << pass.report.dots_updated << " dots";
  return std::move(pass.report);
}

std::string WebService::MetricsPage() const {
  return ExportMetricsPage();
}

common::Result<GetHighlightsResponse> WebService::GetHighlights(
    const std::string& video_id) const {
  obs::ScopedTimer timer(&RequestLatency("get_highlights", kKind));
  storage::Database& db = *options_.db;
  if (!db.highlights().HasVideo(video_id)) {
    return common::Status::NotFound("no highlights for video: " + video_id);
  }
  GetHighlightsResponse response;
  response.highlights = db.highlights().GetLatest(video_id);
  return response;
}

}  // namespace lightor::serving
