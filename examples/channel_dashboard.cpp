/// A broadcaster-facing scenario (Section VI-B): "Twitch allows
/// broadcasters to cut and upload the highlights of their recorded videos
/// manually. LIGHTOR can provide broadcasters with a set of highlight
/// candidates."
///
/// This example crawls one channel's recent videos, checks the
/// applicability thresholds (Fig. 9), and prints a per-video highlight
/// candidate list for the broadcaster's editing queue. The candidates
/// come from the `HighlightServer` — each dashboard row is one
/// `OnPageVisit` against the serving API, so the red dots the broadcaster
/// sees are exactly what viewers get (crawled, initialized and persisted
/// through the same path).

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common/csv.h"
#include "common/strings.h"
#include "core/lightor.h"
#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/platform.h"
#include "storage/database.h"

using namespace lightor;  // NOLINT

int main() {
  sim::Platform::Options popts;
  popts.num_channels = 5;
  popts.videos_per_channel = 4;
  popts.seed = 321;
  const sim::Platform platform(popts);
  const sim::Channel& channel = platform.channels()[0];
  std::printf("channel: %s (popularity %.2f)\n\n", channel.name.c_str(),
              channel.popularity);

  // Train the initializer once, on a single labelled video.
  const auto training = sim::MakeCorpus(sim::GameType::kDota2, 1, 322);
  core::Lightor lightor;
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(training[0].chat);
  tv.video_length = training[0].truth.meta.length;
  for (const auto& h : training[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  if (auto st = lightor.TrainInitializer({tv}); !st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const std::string db_dir =
      (std::filesystem::temp_directory_path() / "lightor_dashboard_demo")
          .string();
  std::filesystem::remove_all(db_dir);
  auto db = storage::DB::Open(storage::OpenOptions(db_dir));
  if (!db.ok()) {
    std::fprintf(stderr, "db open failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  serving::ServerOptions sopts;
  sopts.platform = serving::Borrow(&platform);
  sopts.db = std::shared_ptr<storage::Database>(std::move(db.value().db));
  sopts.lightor = serving::Borrow(&lightor);
  sopts.top_k = 3;
  auto server = serving::HighlightServer::Create(sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  serving::HighlightServer& service = *server.value();

  common::TextTable table({"video", "length", "msgs/hour", "viewers",
                           "applicable", "top highlight candidates"});
  const auto ids = platform.ListRecentVideoIds(channel.name, 4).value();
  for (const auto& id : ids) {
    const auto video = platform.GetVideo(id).value();
    const double hours = video.truth.meta.length / 3600.0;
    const double rate = static_cast<double>(video.chat.size()) / hours;
    const bool applicable = rate > 500.0 && video.num_viewers > 100;

    std::string candidates = "-";
    if (applicable) {
      const auto visit = service.OnPageVisit({id, channel.name});
      if (visit.ok()) {
        std::vector<std::string> stamps;
        for (const auto& rec : visit.value().highlights) {
          stamps.push_back(common::FormatTimestamp(rec.dot_position));
        }
        candidates = common::Join(stamps, ", ");
      }
    }
    table.AddRow({id, common::FormatTimestamp(video.truth.meta.length),
                  common::FormatDouble(rate, 0),
                  std::to_string(video.num_viewers),
                  applicable ? "yes" : "no", candidates});
  }
  table.Print(std::cout);
  std::printf(
      "\nthe broadcaster can now jump straight to each candidate and cut "
      "the clip\ninstead of scrubbing through hours of VOD.\n");
  service.Shutdown();
  std::filesystem::remove_all(db_dir);
  return 0;
}
