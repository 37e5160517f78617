/// lightor — command-line front end for the full workflow.
///
///   lightor gen     --game=dota2 --videos=10 --seed=7 --out=corpus/
///   lightor train   --corpus=corpus/ --train-videos=1 --model=m.model
///   lightor detect  --corpus=corpus/ --model=m.model --video=<id> --k=5
///   lightor detect  --model=m.model --chat=chat.csv [--video-length=S]
///   lightor eval    --corpus=corpus/ --model=m.model --k=5 [--skip=N]
///   lightor extract --corpus=corpus/ --model=m.model --video=<id> --k=5
///                   [--viewers=10]
///   lightor serve   --db=DIR [--channels=2 --videos-per-channel=2
///                   --seed=7 --k=5 --workers=2 --shards=16 --batch=8
///                   --visits=4 --viewers=8]
///   lightor stream  --db=DIR [--channels=2 --videos-per-channel=2
///                   --seed=7 --k=5 --streams=2 --batch-size=32
///                   --refresh=64 --shards=16]
///   lightor serve-http --db=DIR [--port=0 --port-file=FILE --duration=S
///                   --net-workers=4 --max-in-flight=64 --deadline=10
///                   --drain-grace=0]
///   lightor route   --backends=H:P,H:P,... | --membership-file=F
///                   [--port=0 --port-file=FILE --duration=S --vnodes=64
///                   --health-interval=0.5 --retry-budget=8]
///   lightor loadgen --port=N | --check --db=DIR [--port=N]
///                   [--threads=8 --requests=128 --recorded=2 --live=2
///                   --slowest=8 --slo=all:50,session:80 --retry-503]
///   lightor curl    --port=N [--target=/healthz --method=GET --body=JSON
///                   --traceparent=00-...-...-01]
///   lightor checkpoint --db=DIR [--keep-consumed]
///   lightor inspect-manifest --db=DIR
///
/// `gen` synthesizes a labelled corpus to disk (CSV traces); `train`
/// fits the Highlight Initializer on the first N videos and saves the
/// model; `detect` prints red dots for one video; `eval` scores Video
/// Precision@K over the corpus; `extract` runs the full two-stage
/// pipeline with a simulated crowd; `serve` runs the concurrent
/// HighlightServer over a simulated platform, logging sessions until the
/// background workers refine every visited video; `stream` replays
/// recorded chat as interleaved live broadcasts through the server's
/// ingest path, finalizes each stream, and differential-checks the
/// result against the batch initializer; `serve-http` exposes the
/// HighlightServer over the src/net wire front-end; `route` runs the
/// cluster front door (`src/cluster`) over a fleet of serve-http
/// backends; `loadgen` drives a closed-loop multi-threaded traffic mix
/// against it (`--check` byte-compares the served state with an
/// independent reference server — self-hosting the stack in-process, or
/// against an external `--port`, e.g. a router fronting a cluster);
/// `curl` is a one-shot HTTP client for smoke tests.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "cluster/router.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/evaluation.h"
#include "core/model_io.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/service.h"
#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/replay.h"
#include "sim/trace_io.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"

using namespace lightor;  // NOLINT

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lightor <gen|train|detect|eval|extract|serve|stream|"
               "serve-http|route|loadgen|curl|checkpoint|inspect-manifest> "
               "[--flags]\n"
               "run with a command and no flags to see its options\n"
               "global flags: --log-level=debug|info|warning|error\n"
               "              --metrics-out=FILE (Prometheus text)\n"
               "              --metrics-json-out=FILE --trace-out=FILE\n");
  return 2;
}

/// Post-command observability dumps, gated on the global flags.
int DumpObservability(const common::Flags& flags, int exit_code) {
  if (const std::string path = flags.GetString("metrics-out"); !path.empty()) {
    if (auto st = obs::WriteFile(
            path, obs::ExportPrometheus(obs::Registry::Global()));
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }
  if (const std::string path = flags.GetString("metrics-json-out");
      !path.empty()) {
    if (auto st =
            obs::WriteFile(path, obs::ExportJson(obs::Registry::Global()));
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }
  if (const std::string path = flags.GetString("trace-out"); !path.empty()) {
    if (auto st = obs::TraceRecorder::Global().WriteChromeTrace(path);
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }
  return exit_code;
}

int Fail(const common::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

common::Result<sim::Corpus> LoadCorpusFlag(const common::Flags& flags) {
  const std::string dir = flags.GetString("corpus");
  if (dir.empty()) {
    return common::Status::InvalidArgument("--corpus=DIR is required");
  }
  return sim::LoadCorpus(dir);
}

common::Result<size_t> FindVideo(const sim::Corpus& corpus,
                                 const std::string& id) {
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].truth.meta.id == id) return i;
  }
  return common::Status::NotFound("no video '" + id +
                                  "' in the corpus (see corpus.index)");
}

int CmdGen(const common::Flags& flags) {
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr,
                 "gen: --out=DIR required "
                 "[--game=dota2|lol --videos=N --seed=S --rate=1.0]\n");
    return 2;
  }
  const sim::GameType game = flags.GetString("game", "dota2") == "lol"
                                 ? sim::GameType::kLol
                                 : sim::GameType::kDota2;
  const int videos = static_cast<int>(flags.GetInt("videos", 10));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const double rate = flags.GetDouble("rate", 1.0);
  const auto corpus = sim::MakeCorpus(game, videos, seed, rate);
  if (auto st = sim::SaveCorpus(corpus, out); !st.ok()) return Fail(st);
  size_t messages = 0;
  for (const auto& v : corpus) messages += v.chat.size();
  std::printf("wrote %d %s videos (%zu chat messages) to %s\n", videos,
              sim::GameTypeName(game).c_str(), messages, out.c_str());
  return 0;
}

int CmdTrain(const common::Flags& flags) {
  const std::string model_path = flags.GetString("model");
  if (model_path.empty()) {
    std::fprintf(stderr,
                 "train: --corpus=DIR --model=FILE required "
                 "[--train-videos=1]\n");
    return 2;
  }
  auto corpus = LoadCorpusFlag(flags);
  if (!corpus.ok()) return Fail(corpus.status());
  const auto n = static_cast<size_t>(flags.GetInt("train-videos", 1));
  std::vector<core::TrainingVideo> training;
  for (size_t i = 0; i < std::min(n, corpus.value().size()); ++i) {
    const auto& video = corpus.value()[i];
    core::TrainingVideo tv;
    tv.messages = sim::ToCoreMessages(video.chat);
    tv.video_length = video.truth.meta.length;
    for (const auto& h : video.truth.highlights) {
      tv.highlights.push_back(h.span);
    }
    training.push_back(std::move(tv));
  }
  core::HighlightInitializer init;
  if (auto st = init.Train(training); !st.ok()) return Fail(st);
  if (auto st = core::SaveInitializer(init, model_path); !st.ok()) {
    return Fail(st);
  }
  std::printf("trained on %zu video(s); learned c = %.0f s; model -> %s\n",
              training.size(), init.adjustment_c(), model_path.c_str());
  return 0;
}

common::Result<core::HighlightInitializer> LoadModelFlag(
    const common::Flags& flags) {
  const std::string path = flags.GetString("model");
  if (path.empty()) {
    return common::Status::InvalidArgument("--model=FILE is required");
  }
  return core::LoadInitializer(path);
}

int CmdDetect(const common::Flags& flags) {
  auto model = LoadModelFlag(flags);
  if (!model.ok()) return Fail(model.status());
  const auto k = static_cast<size_t>(flags.GetInt("k", 5));

  // Two input modes: a corpus video (with ground truth) or an external
  // chat CSV (--chat=FILE [--video-length=S]).
  if (flags.Has("chat")) {
    auto messages = sim::LoadChatCsv(flags.GetString("chat"));
    if (!messages.ok()) return Fail(messages.status());
    double length = flags.GetDouble("video-length", 0.0);
    if (length <= 0.0 && !messages.value().empty()) {
      length = messages.value().back().timestamp + 60.0;
    }
    const auto dots = model.value().Detect(messages.value(), length, k);
    common::TextTable table({"red dot", "score", "peak"});
    for (const auto& dot : dots) {
      table.AddRow({common::FormatTimestamp(dot.position),
                    common::FormatDouble(dot.score, 3),
                    common::FormatTimestamp(dot.peak)});
    }
    table.Print(std::cout);
    return 0;
  }

  auto corpus = LoadCorpusFlag(flags);
  if (!corpus.ok()) return Fail(corpus.status());
  auto index = FindVideo(corpus.value(), flags.GetString("video"));
  if (!index.ok()) return Fail(index.status());
  const auto& video = corpus.value()[index.value()];

  const auto dots = model.value().Detect(sim::ToCoreMessages(video.chat),
                                         video.truth.meta.length, k);
  common::TextTable table({"red dot", "score", "peak", "good?"});
  const auto truth_spans = [&] {
    std::vector<common::Interval> spans;
    for (const auto& h : video.truth.highlights) spans.push_back(h.span);
    return spans;
  }();
  for (const auto& dot : dots) {
    table.AddRow({common::FormatTimestamp(dot.position),
                  common::FormatDouble(dot.score, 3),
                  common::FormatTimestamp(dot.peak),
                  core::IsGoodRedDotForAny(dot.position, truth_spans)
                      ? "yes"
                      : "no"});
  }
  table.Print(std::cout);
  return 0;
}

int CmdEval(const common::Flags& flags) {
  auto corpus = LoadCorpusFlag(flags);
  if (!corpus.ok()) return Fail(corpus.status());
  auto model = LoadModelFlag(flags);
  if (!model.ok()) return Fail(model.status());
  const auto k = static_cast<size_t>(flags.GetInt("k", 5));
  const auto skip = static_cast<size_t>(flags.GetInt("skip", 0));

  double total = 0.0;
  int n = 0;
  for (size_t i = skip; i < corpus.value().size(); ++i) {
    const auto& video = corpus.value()[i];
    std::vector<common::Interval> truth;
    for (const auto& h : video.truth.highlights) truth.push_back(h.span);
    const auto dots = model.value().Detect(sim::ToCoreMessages(video.chat),
                                           video.truth.meta.length, k);
    const double p =
        core::VideoPrecisionStart(core::DotPositions(dots), truth);
    std::printf("%-24s P@%zu(start) = %.3f\n", video.truth.meta.id.c_str(),
                k, p);
    total += p;
    ++n;
  }
  if (n > 0) {
    std::printf("mean over %d videos: %.3f\n", n, total / n);
  }
  return 0;
}

int CmdExtract(const common::Flags& flags) {
  auto corpus = LoadCorpusFlag(flags);
  if (!corpus.ok()) return Fail(corpus.status());
  auto model = LoadModelFlag(flags);
  if (!model.ok()) return Fail(model.status());
  auto index = FindVideo(corpus.value(), flags.GetString("video"));
  if (!index.ok()) return Fail(index.status());
  const auto& video = corpus.value()[index.value()];
  const auto k = static_cast<size_t>(flags.GetInt("k", 5));
  const int viewers = static_cast<int>(flags.GetInt("viewers", 10));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  const auto dots = model.value().Detect(sim::ToCoreMessages(video.chat),
                                         video.truth.meta.length, k);
  core::HighlightExtractor extractor;
  common::Rng rng(seed);
  common::TextTable table({"dot", "highlight", "iterations", "converged"});
  for (const auto& dot : dots) {
    sim::SimulatedCrowdProvider provider(video.truth, sim::ViewerSimulator(),
                                         viewers, rng.Fork());
    const auto result = extractor.Run(provider, dot.position);
    table.AddRow({common::FormatTimestamp(dot.position),
                  "[" + common::FormatTimestamp(result.boundary.start) +
                      " .. " + common::FormatTimestamp(result.boundary.end) +
                      "]",
                  std::to_string(result.iterations),
                  result.converged ? "yes" : "no"});
  }
  table.Print(std::cout);
  return 0;
}

int CmdServe(const common::Flags& flags) {
  const std::string db_dir = flags.GetString("db");
  if (db_dir.empty()) {
    std::fprintf(stderr,
                 "serve: --db=DIR required "
                 "[--channels=2 --videos-per-channel=2 --seed=7 --k=5\n"
                 "        --workers=2 --shards=16 --batch=8 --visits=4 "
                 "--viewers=8]\n");
    return 2;
  }

  sim::Platform::Options popts;
  popts.num_channels = static_cast<int>(flags.GetInt("channels", 2));
  popts.videos_per_channel =
      static_cast<int>(flags.GetInt("videos-per-channel", 2));
  popts.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const sim::Platform platform(popts);

  auto opened = storage::DB::Open(storage::OpenOptions(db_dir));
  if (!opened.ok()) return Fail(opened.status());
  auto db = std::move(opened.value().db);

  // Train on an out-of-platform corpus video, as in deployment.
  const auto corpus =
      sim::MakeCorpus(sim::GameType::kDota2, 1, popts.seed + 1000);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::LightorOptions lopts;
  lopts.top_k = static_cast<size_t>(flags.GetInt("k", 5));
  core::Lightor lightor(lopts);
  if (auto st = lightor.TrainInitializer({tv}); !st.ok()) return Fail(st);

  serving::ServerOptions sopts;
  sopts.platform = serving::Borrow(&platform);
  sopts.db = serving::Borrow(db.get());
  sopts.lightor = serving::Borrow(&lightor);
  sopts.top_k = lopts.top_k;
  sopts.num_workers = static_cast<size_t>(flags.GetInt("workers", 2));
  sopts.num_shards = static_cast<size_t>(flags.GetInt("shards", 16));
  sopts.refine_batch_sessions = static_cast<size_t>(flags.GetInt("batch", 8));
  auto server = serving::HighlightServer::Create(sopts);
  if (!server.ok()) return Fail(server.status());
  serving::HighlightServer& service = *server.value();

  const int visits = static_cast<int>(flags.GetInt("visits", 4));
  const int viewers = static_cast<int>(flags.GetInt("viewers", 8));
  const auto ids = platform.AllVideoIds();
  sim::ViewerSimulator viewer_sim;
  common::Rng rng(popts.seed + 1);
  uint64_t session_id = 0;
  for (int v = 0; v < visits && v < static_cast<int>(ids.size()); ++v) {
    const std::string& video_id = ids[static_cast<size_t>(v)];
    const auto visit = service.OnPageVisit({video_id, "cli"});
    if (!visit.ok()) return Fail(visit.status());
    std::printf("%s: %zu red dots (snapshot v%llu%s)\n", video_id.c_str(),
                visit.value().highlights.size(),
                static_cast<unsigned long long>(visit.value().snapshot_version),
                visit.value().first_visit ? ", first visit" : "");
    const auto video = platform.GetVideo(video_id);
    if (!video.ok()) return Fail(video.status());
    for (const auto& dot : visit.value().highlights) {
      for (int u = 0; u < viewers; ++u) {
        const auto session = viewer_sim.SimulateSession(
            video.value().truth, dot.dot_position, rng,
            "viewer" + std::to_string(session_id));
        serving::LogSessionRequest log;
        log.video_id = video_id;
        log.user = session.user;
        log.session_id = ++session_id;
        log.events = session.events;
        if (auto st = service.LogSession(log); !st.ok()) return Fail(st);
      }
    }
  }

  // Drain the background workers, then report the refined state.
  service.Shutdown();
  std::printf("\nlogged %llu sessions; refined highlights after drain:\n",
              static_cast<unsigned long long>(session_id));
  for (int v = 0; v < visits && v < static_cast<int>(ids.size()); ++v) {
    const std::string& video_id = ids[static_cast<size_t>(v)];
    const auto recs = db->highlights().GetLatest(video_id);
    for (const auto& rec : recs) {
      std::printf("  %s #%d [%s .. %s] iteration %d%s\n", video_id.c_str(),
                  rec.dot_index, common::FormatTimestamp(rec.start).c_str(),
                  common::FormatTimestamp(rec.end).c_str(), rec.iteration,
                  rec.converged ? " (converged)" : "");
    }
  }
  return 0;
}

int CmdStream(const common::Flags& flags) {
  const std::string db_dir = flags.GetString("db");
  if (db_dir.empty()) {
    std::fprintf(stderr,
                 "stream: --db=DIR required "
                 "[--channels=2 --videos-per-channel=2 --seed=7 --k=5\n"
                 "         --streams=2 --batch-size=32 --refresh=64 "
                 "--shards=16]\n");
    return 2;
  }

  sim::Platform::Options popts;
  popts.num_channels = static_cast<int>(flags.GetInt("channels", 2));
  popts.videos_per_channel =
      static_cast<int>(flags.GetInt("videos-per-channel", 2));
  popts.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const sim::Platform platform(popts);

  auto opened = storage::DB::Open(storage::OpenOptions(db_dir));
  if (!opened.ok()) return Fail(opened.status());
  auto db = std::move(opened.value().db);

  // Train on an out-of-platform corpus video, as in deployment.
  const auto corpus =
      sim::MakeCorpus(sim::GameType::kDota2, 1, popts.seed + 1000);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::LightorOptions lopts;
  lopts.top_k = static_cast<size_t>(flags.GetInt("k", 5));
  core::Lightor lightor(lopts);
  if (auto st = lightor.TrainInitializer({tv}); !st.ok()) return Fail(st);

  serving::ServerOptions sopts;
  sopts.platform = serving::Borrow(&platform);
  sopts.db = serving::Borrow(db.get());
  sopts.lightor = serving::Borrow(&lightor);
  sopts.top_k = lopts.top_k;
  sopts.num_shards = static_cast<size_t>(flags.GetInt("shards", 16));
  sopts.stream_refresh_messages =
      static_cast<size_t>(flags.GetInt("refresh", 64));
  auto server = serving::HighlightServer::Create(sopts);
  if (!server.ok()) return Fail(server.status());
  serving::HighlightServer& service = *server.value();

  // Replay recorded chat of the first N videos as interleaved live
  // broadcasts through the ingest endpoint.
  const auto ids = platform.AllVideoIds();
  const size_t streams =
      std::min(static_cast<size_t>(flags.GetInt("streams", 2)), ids.size());
  sim::ChatReplayDriver::Options ropts;
  ropts.batch_size = static_cast<size_t>(flags.GetInt("batch-size", 32));
  sim::ChatReplayDriver driver(ropts);
  for (size_t i = 0; i < streams; ++i) {
    const auto video = platform.GetVideo(ids[i]);
    if (!video.ok()) return Fail(video.status());
    driver.AddVideo(ids[i], video.value().chat);
  }
  size_t provisional_publishes = 0;
  const auto run = driver.Run(
      [&](const std::string& id, std::vector<core::Message> batch) {
        serving::IngestChatRequest req;
        req.video_id = id;
        req.messages = std::move(batch);
        auto resp = service.IngestChat(req);
        if (!resp.ok()) return resp.status();
        if (resp.value().provisional_published) ++provisional_publishes;
        return common::Status::OK();
      });
  if (!run.ok()) return Fail(run.status());
  std::printf(
      "replayed %zu messages across %zu stream(s) in %zu batch(es); "
      "%zu provisional publish(es)\n",
      run.value().messages, run.value().videos, run.value().batches,
      provisional_publishes);

  // Finalize each stream and differential-check against the batch path.
  bool all_match = true;
  for (size_t i = 0; i < streams; ++i) {
    serving::FinalizeStreamRequest freq;
    freq.video_id = ids[i];
    const auto fin = service.FinalizeStream(freq);
    if (!fin.ok()) return Fail(fin.status());
    std::printf("%s: finalized at %s with %zu red dots (snapshot v%llu)\n",
                ids[i].c_str(),
                common::FormatTimestamp(fin.value().video_length).c_str(),
                fin.value().highlights.size(),
                static_cast<unsigned long long>(fin.value().snapshot_version));
    for (const auto& rec : fin.value().highlights) {
      std::printf("  #%d at %s (score %.3f)\n", rec.dot_index,
                  common::FormatTimestamp(rec.dot_position).c_str(),
                  rec.score);
    }
    const auto video = platform.GetVideo(ids[i]);
    if (!video.ok()) return Fail(video.status());
    const auto batch = lightor.Initialize(
        sim::ToCoreMessages(video.value().chat),
        video.value().truth.meta.length, lopts.top_k);
    if (!batch.ok()) return Fail(batch.status());
    bool match = batch.value().size() == fin.value().highlights.size();
    for (size_t d = 0; match && d < batch.value().size(); ++d) {
      match = batch.value()[d].position ==
              fin.value().highlights[d].dot_position;
    }
    std::printf("  matches batch initializer: %s\n", match ? "yes" : "NO");
    all_match = all_match && match;
  }
  service.Shutdown();
  return all_match ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Wire front-end commands: serve-http / loadgen / curl

std::atomic<bool> g_stop{false};
void OnSignal(int) { g_stop.store(true); }

/// A fully wired in-process serving stack (platform + DB + trained
/// pipeline + HighlightServer). Heap-held so the Borrow()'d pointers in
/// ServerOptions stay stable when the stack moves.
struct ServingStack {
  std::unique_ptr<sim::Platform> platform;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<core::Lightor> lightor;
  std::unique_ptr<serving::HighlightServer> server;
  /// What opening `db` recovered; fed to HighlightServer::Bootstrap.
  storage::RecoveryStats recovery;
};

common::Result<ServingStack> MakeServingStack(const common::Flags& flags,
                                              const std::string& db_dir,
                                              size_t refine_batch,
                                              bool batched_flush) {
  ServingStack stack;
  sim::Platform::Options popts;
  popts.num_channels = static_cast<int>(flags.GetInt("channels", 2));
  popts.videos_per_channel =
      static_cast<int>(flags.GetInt("videos-per-channel", 2));
  popts.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  stack.platform = std::make_unique<sim::Platform>(popts);

  LIGHTOR_ASSIGN_OR_RETURN(auto opened,
                           storage::DB::Open(storage::OpenOptions(db_dir)));
  stack.db = std::move(opened.db);
  stack.recovery = opened.stats;

  // Train on an out-of-platform corpus video, as in deployment.
  const auto corpus =
      sim::MakeCorpus(sim::GameType::kDota2, 1, popts.seed + 1000);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::LightorOptions lopts;
  lopts.top_k = static_cast<size_t>(flags.GetInt("k", 5));
  stack.lightor = std::make_unique<core::Lightor>(lopts);
  if (auto st = stack.lightor->TrainInitializer({tv}); !st.ok()) return st;

  serving::ServerOptions sopts;
  sopts.platform = serving::Borrow(
      static_cast<const sim::Platform*>(stack.platform.get()));
  sopts.db = serving::Borrow(stack.db.get());
  sopts.lightor = serving::Borrow(
      static_cast<const core::Lightor*>(stack.lightor.get()));
  sopts.top_k = lopts.top_k;
  sopts.num_workers = static_cast<size_t>(flags.GetInt("workers", 2));
  sopts.num_shards = static_cast<size_t>(flags.GetInt("shards", 16));
  sopts.refine_batch_sessions = refine_batch;
  sopts.batched_session_flush = batched_flush;
  sopts.checkpoint_every_sessions =
      static_cast<size_t>(flags.GetInt("checkpoint-sessions", 0));
  sopts.checkpoint_interval_seconds =
      flags.GetDouble("checkpoint-interval", 0.0);
  // Multi-channel live ingest: with no workers each /ingest call drains
  // its own batch before answering; turn on workers + a rate to get
  // fair-share DRR backpressure.
  sopts.stream_refresh_messages =
      static_cast<size_t>(flags.GetInt("refresh", 64));
  sopts.ingest_workers =
      static_cast<size_t>(flags.GetInt("ingest-workers", 0));
  sopts.ingest_rate_messages_per_sec = flags.GetDouble("ingest-rate", 0.0);
  sopts.ingest_burst_messages = flags.GetDouble("ingest-burst", 0.0);
  sopts.ingest_queue_messages =
      static_cast<size_t>(flags.GetInt("ingest-queue", 8192));
  sopts.ingest_quantum_messages =
      static_cast<size_t>(flags.GetInt("ingest-quantum", 256));
  sopts.stream_publish_max_delay_seconds =
      flags.GetDouble("publish-delay", 0.0);
  LIGHTOR_ASSIGN_OR_RETURN(stack.server,
                           serving::HighlightServer::Create(sopts));
  stack.server->Bootstrap(stack.recovery);
  return stack;
}

net::NetOptions NetOptionsFromFlags(const common::Flags& flags) {
  net::NetOptions nopts;
  nopts.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  nopts.num_workers = static_cast<size_t>(flags.GetInt("net-workers", 4));
  nopts.max_in_flight =
      static_cast<size_t>(flags.GetInt("max-in-flight", 64));
  nopts.request_deadline_seconds = flags.GetDouble("deadline", 10.0);
  nopts.idle_timeout_seconds = flags.GetDouble("idle-timeout", 60.0);
  return nopts;
}

int CmdServeHttp(const common::Flags& flags) {
  const std::string db_dir = flags.GetString("db");
  if (db_dir.empty()) {
    std::fprintf(stderr,
                 "serve-http: --db=DIR required "
                 "[--port=0 --port-file=FILE --duration=SECONDS\n"
                 "            --channels=2 --videos-per-channel=2 --seed=7 "
                 "--k=5 --workers=2\n"
                 "            --shards=16 --batch=8 --net-workers=4 "
                 "--max-in-flight=64\n"
                 "            --deadline=10 --idle-timeout=60 "
                 "--batched-flush=true\n"
                 "            --checkpoint-sessions=0 "
                 "--checkpoint-interval=0 --drain-grace=0\n"
                 "            --refresh=64 --ingest-workers=0 "
                 "--ingest-rate=0 --ingest-burst=0\n"
                 "            --ingest-queue=8192 --ingest-quantum=256 "
                 "--publish-delay=0]\n");
    return 2;
  }
  auto stack = MakeServingStack(
      flags, db_dir, static_cast<size_t>(flags.GetInt("batch", 8)),
      flags.GetBool("batched-flush", true));
  if (!stack.ok()) return Fail(stack.status());

  auto http = net::HttpServer::Create(
      NetOptionsFromFlags(flags), net::BuildRoutes(stack.value().server.get()));
  if (!http.ok()) return Fail(http.status());
  std::printf("listening on %s:%u\n", http.value()->options().host.c_str(),
              http.value()->port());
  std::fflush(stdout);
  if (const std::string path = flags.GetString("port-file"); !path.empty()) {
    std::ofstream out(path, std::ios::trunc);
    out << http.value()->port() << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write --port-file %s\n",
                   path.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const double duration = flags.GetDouble("duration", 0.0);
  const auto start = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    if (duration > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= duration) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Lame duck: announce draining via /healthz for the grace period while
  // still serving, so a cluster router can eject this backend from
  // failover choices before the listener actually goes away.
  if (const double grace = flags.GetDouble("drain-grace", 0.0); grace > 0.0) {
    stack.value().server->BeginDrain();
    std::printf("draining (%.1fs grace)\n", grace);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(grace));
  }
  http.value()->Shutdown();
  stack.value().server->Shutdown();
  std::printf("drained\n");
  return 0;
}

int CmdLoadgen(const common::Flags& flags) {
  const bool check = flags.GetBool("check", false);
  if (!check && !flags.Has("port")) {
    std::fprintf(stderr,
                 "loadgen: --port=N required (or --check --db=DIR for the "
                 "self-hosted differential mode;\n"
                 "  --check --db=DIR --port=N differential-checks an "
                 "external server, e.g. a cluster router)\n"
                 "  [--host=127.0.0.1 --threads=8 --requests=128 --seed=7\n"
                 "   --recorded=2 --live=2 --batch-size=32 --channels=2\n"
                 "   --videos-per-channel=2 --visit-w=4 --session-w=8 "
                 "--refine-w=1 --ingest-w=2\n"
                 "   --slowest=8 --slo=op:p99_ms,... (ops: visit session "
                 "refine ingest finalize all;\n"
                 "   a violated target exits 1)\n"
                 "   --retry-503 --retry-budget=10 (cluster mode: absorb "
                 "503s/transient wire errors)\n"
                 "   --scenario=flash-crowd --flash-channels=1000 "
                 "--hot-mult=100 --frame-channels=32\n"
                 "   (flash-crowd gauntlet: cold channels via batch "
                 "frames, one hot channel at\n"
                 "   hot-mult x; gate staleness with "
                 "--slo=provisional_p99:MS; any cold-channel\n"
                 "   delivery failure exits 1)]\n");
    return 2;
  }

  // The traffic shape comes from the same simulated platform the server
  // was built over (same --channels/--videos-per-channel/--seed).
  sim::Platform::Options popts;
  popts.num_channels = static_cast<int>(flags.GetInt("channels", 2));
  popts.videos_per_channel =
      static_cast<int>(flags.GetInt("videos-per-channel", 2));
  popts.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const sim::Platform platform(popts);
  const auto ids = platform.AllVideoIds();

  net::LoadGenOptions lgopts;
  lgopts.host = flags.GetString("host", "127.0.0.1");
  lgopts.num_threads = static_cast<size_t>(flags.GetInt("threads", 8));
  lgopts.requests_per_thread =
      static_cast<size_t>(flags.GetInt("requests", 128));
  lgopts.seed = popts.seed;
  lgopts.visit_weight = static_cast<int>(flags.GetInt("visit-w", 4));
  lgopts.session_weight = static_cast<int>(flags.GetInt("session-w", 8));
  lgopts.refine_weight =
      check ? 0 : static_cast<int>(flags.GetInt("refine-w", 1));
  lgopts.ingest_weight = static_cast<int>(flags.GetInt("ingest-w", 2));
  lgopts.ingest_batch_size =
      static_cast<size_t>(flags.GetInt("batch-size", 32));
  lgopts.slowest_n = static_cast<size_t>(flags.GetInt("slowest", 8));
  // --slo=all:50,session:80 — comma-separated op:p99_ms pairs.
  if (const std::string slo = flags.GetString("slo"); !slo.empty()) {
    size_t pos = 0;
    while (pos < slo.size()) {
      size_t comma = slo.find(',', pos);
      if (comma == std::string::npos) comma = slo.size();
      const std::string pair = slo.substr(pos, comma - pos);
      const size_t colon = pair.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "loadgen: bad --slo entry (want op:p99_ms): %s\n",
                     pair.c_str());
        return 2;
      }
      net::LoadGenOptions::SloTarget target;
      target.op = pair.substr(0, colon);
      target.p99_ms = std::atof(pair.c_str() + colon + 1);
      lgopts.slo_targets.push_back(std::move(target));
      pos = comma + 1;
    }
  }
  lgopts.retry_503 = flags.GetBool("retry-503", false);
  lgopts.retry_budget_seconds = flags.GetDouble("retry-budget", 10.0);
  lgopts.scenario = flags.GetString("scenario");
  lgopts.flash_channels =
      static_cast<size_t>(flags.GetInt("flash-channels", 1000));
  lgopts.flash_hot_multiplier =
      static_cast<size_t>(flags.GetInt("hot-mult", 100));
  lgopts.flash_frame_channels =
      static_cast<size_t>(flags.GetInt("frame-channels", 32));
  lgopts.platform = &platform;
  const size_t recorded = std::min(
      static_cast<size_t>(flags.GetInt("recorded", 2)), ids.size());
  const size_t live = std::min(static_cast<size_t>(flags.GetInt("live", 2)),
                               ids.size() - recorded);
  lgopts.recorded_ids.assign(ids.begin(),
                             ids.begin() + static_cast<ptrdiff_t>(recorded));
  lgopts.live_ids.assign(
      ids.begin() + static_cast<ptrdiff_t>(recorded),
      ids.begin() + static_cast<ptrdiff_t>(recorded + live));

  // --check compares served state against an independent reference
  // HighlightServer the recorded traffic is replayed into. Background
  // refinement must be off on the served side (refine_batch=0) and
  // /refine is out of the mix, so final state is a pure function of the
  // accepted traffic. Without --port the full socket stack is hosted
  // in-process; with --port the served side is external — typically a
  // cluster router, making this the fleet-vs-one-process differential.
  ServingStack served;
  ServingStack reference;
  std::unique_ptr<net::HttpServer> http;
  const bool external_check = check && flags.Has("port");
  if (check) {
    const std::string db_dir = flags.GetString("db");
    if (db_dir.empty()) {
      std::fprintf(stderr, "loadgen: --check requires --db=DIR\n");
      return 2;
    }
    auto r = MakeServingStack(flags, db_dir + "/reference", 0, false);
    if (!r.ok()) return Fail(r.status());
    reference = std::move(r).value();
    if (external_check) {
      lgopts.port = static_cast<uint16_t>(flags.GetInt("port", 0));
    } else {
      auto s = MakeServingStack(flags, db_dir + "/served", 0, true);
      if (!s.ok()) return Fail(s.status());
      served = std::move(s).value();
      net::NetOptions nopts = NetOptionsFromFlags(flags);
      nopts.port = 0;
      auto create = net::HttpServer::Create(
          nopts, net::BuildRoutes(served.server.get()));
      if (!create.ok()) return Fail(create.status());
      http = std::move(create).value();
      lgopts.host = "127.0.0.1";
      lgopts.port = http->port();
    }
  } else {
    lgopts.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  }

  net::RecordedTraffic recorded_traffic;
  auto report =
      net::RunLoadGen(lgopts, check ? &recorded_traffic : nullptr);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s\n", net::EncodeJson(report.value()).c_str());

  int code = report.value().wire_errors == 0 ? 0 : 1;
  if (!report.value().slo_ok) {
    std::fprintf(stderr, "loadgen: SLO violated (see report \"slo\")\n");
    code = 1;
  }
  if (report.value().flash_cold_failures > 0) {
    std::fprintf(stderr,
                 "loadgen: %zu cold-channel deliveries failed "
                 "(fair-share admission must never fail a cold channel)\n",
                 report.value().flash_cold_failures);
    code = 1;
  }
  if (check) {
    net::HttpClient client(lgopts.host, lgopts.port);
    if (auto st = net::RunDifferentialCheck(recorded_traffic, client,
                                            reference.server.get());
        !st.ok()) {
      std::fprintf(stderr, "differential check FAILED: %s\n",
                   st.ToString().c_str());
      code = 1;
    } else {
      std::printf("differential check: OK\n");
    }
    if (http != nullptr) http->Shutdown();
    if (served.server != nullptr) served.server->Shutdown();
    reference.server->Shutdown();
  }
  return code;
}

int CmdCheckpoint(const common::Flags& flags) {
  const std::string db_dir = flags.GetString("db");
  if (db_dir.empty()) {
    std::fprintf(stderr,
                 "checkpoint: --db=DIR required [--keep-consumed]\n"
                 "snapshots live state into a checkpoint file, rotates the "
                 "logs, and\nprints the resulting CheckpointStats\n");
    return 2;
  }
  storage::OpenOptions options;
  options.directory = db_dir;
  options.checkpoint.drop_consumed_interactions =
      !flags.GetBool("keep-consumed", false);
  auto opened = storage::DB::Open(options);
  if (!opened.ok()) return Fail(opened.status());
  auto& db = opened.value().db;
  std::printf("opened %s: checkpoint gen %llu (lsn %llu), replayed %zu "
              "records in %.3fs\n",
              db_dir.c_str(),
              static_cast<unsigned long long>(
                  opened.value().stats.checkpoint_gen),
              static_cast<unsigned long long>(
                  opened.value().stats.checkpoint_lsn),
              opened.value().stats.records_replayed,
              opened.value().stats.wall_seconds);
  auto stats = db->Checkpoint();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("checkpoint gen %llu at lsn %llu: %zu records, %llu bytes; "
              "truncated %llu log bytes in %.3fs\n",
              static_cast<unsigned long long>(stats.value().gen),
              static_cast<unsigned long long>(stats.value().lsn),
              stats.value().records_written,
              static_cast<unsigned long long>(stats.value().checkpoint_bytes),
              static_cast<unsigned long long>(
                  stats.value().log_bytes_truncated),
              stats.value().wall_seconds);
  return 0;
}

int CmdInspectManifest(const common::Flags& flags) {
  const std::string db_dir = flags.GetString("db");
  if (db_dir.empty()) {
    std::fprintf(stderr,
                 "inspect-manifest: --db=DIR required\nprints the MANIFEST "
                 "(generations + checkpoint LSN) without opening the "
                 "database\n");
    return 2;
  }
  auto manifest = storage::ReadManifest(storage::Env::Default(), db_dir);
  if (!manifest.ok()) return Fail(manifest.status());
  if (!manifest.value().has_value()) {
    std::printf("%s: no MANIFEST (legacy single-generation layout)\n",
                db_dir.c_str());
    return 0;
  }
  const storage::Manifest& m = *manifest.value();
  std::printf("%s:\n  log_gen        %llu\n  checkpoint_gen %llu%s\n"
              "  checkpoint_lsn %llu\n",
              db_dir.c_str(), static_cast<unsigned long long>(m.log_gen),
              static_cast<unsigned long long>(m.checkpoint_gen),
              m.checkpoint_gen == 0 ? " (no checkpoint)" : "",
              static_cast<unsigned long long>(m.checkpoint_lsn));
  return 0;
}

int CmdRoute(const common::Flags& flags) {
  const std::string backends = flags.GetString("backends");
  const std::string membership_file = flags.GetString("membership-file");
  if (backends.empty() && membership_file.empty()) {
    std::fprintf(
        stderr,
        "route: --backends=HOST:PORT,... or --membership-file=FILE "
        "required\n"
        "  [--port=0 --port-file=FILE --duration=SECONDS --vnodes=64\n"
        "   --health-interval=0.5 --upstream-timeout=5 --pool-size=8\n"
        "   --retry-budget=8 --retry-backoff=0.05 --no-failover\n"
        "   --net-workers=16 --max-in-flight=64 --deadline=10]\n"
        "runs the cluster front door: consistent-hash routing of every "
        "data route\nto serve-http backends, with retry/failover, "
        "membership admin, and fleet\n/metrics aggregation\n");
    return 2;
  }

  cluster::RouterOptions ropts;
  ropts.net = NetOptionsFromFlags(flags);
  // A request whose owner is down parks on a router worker for up to the
  // whole retry budget, so the router needs far more workers than a
  // backend: with a backend-sized pool a few in-flight requests to a dead
  // owner starve /healthz, /metrics, and every other video's traffic
  // (and a starved control plane delays the restart that the retry
  // budget is waiting for).
  ropts.net.num_workers = static_cast<size_t>(flags.GetInt("net-workers", 16));
  ropts.membership_file = membership_file;
  for (const std::string& address : common::Split(backends, ',')) {
    if (!address.empty()) ropts.backends.push_back(address);
  }
  ropts.vnodes = static_cast<size_t>(flags.GetInt("vnodes", 64));
  ropts.health_check_interval_seconds =
      flags.GetDouble("health-interval", 0.5);
  ropts.upstream_timeout_seconds = flags.GetDouble("upstream-timeout", 5.0);
  ropts.upstream_pool_size =
      static_cast<size_t>(flags.GetInt("pool-size", 8));
  ropts.retry_budget_seconds = flags.GetDouble("retry-budget", 8.0);
  ropts.retry_backoff_seconds = flags.GetDouble("retry-backoff", 0.05);
  ropts.failover = !flags.GetBool("no-failover", false);

  auto router = cluster::HighlightRouter::Create(std::move(ropts));
  if (!router.ok()) return Fail(router.status());
  std::printf("routing on %s:%u over %zu backend(s)\n",
              router.value()->options().net.host.c_str(),
              router.value()->port(), router.value()->fleet().NumMembers());
  std::fflush(stdout);
  if (const std::string path = flags.GetString("port-file"); !path.empty()) {
    std::ofstream out(path, std::ios::trunc);
    out << router.value()->port() << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write --port-file %s\n",
                   path.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const double duration = flags.GetDouble("duration", 0.0);
  const auto start = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    if (duration > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= duration) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  router.value()->Shutdown();
  std::printf("drained\n");
  return 0;
}

int CmdCurl(const common::Flags& flags) {
  if (!flags.Has("port")) {
    std::fprintf(stderr,
                 "curl: --port=N required [--host=127.0.0.1 "
                 "--target=/healthz --method=GET --body=JSON\n"
                 "      --traceparent=00-<32hex>-<16hex>-01]\n");
    return 2;
  }
  const std::string body = flags.GetString("body");
  const std::string method =
      flags.GetString("method", body.empty() ? "GET" : "POST");
  net::HttpClient client(flags.GetString("host", "127.0.0.1"),
                         static_cast<uint16_t>(flags.GetInt("port", 0)));
  if (const std::string tp = flags.GetString("traceparent"); !tp.empty()) {
    client.set_header("traceparent", tp);
  }
  auto response =
      client.Request(method, flags.GetString("target", "/healthz"), body);
  if (!response.ok()) return Fail(response.status());
  std::fprintf(stderr, "%d %s\n", response.value().status,
               std::string(net::StatusReason(response.value().status))
                   .c_str());
  std::printf("%s\n", response.value().body.c_str());
  return response.value().status < 400 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const common::Flags flags = common::Flags::Parse(argc - 1, argv + 1);
  if (flags.Has("log-level") &&
      !common::SetLogLevelFromString(flags.GetString("log-level"))) {
    std::fprintf(stderr,
                 "error: bad --log-level (debug|info|warning|error)\n");
    return 2;
  }
  int code;
  if (command == "gen") {
    code = CmdGen(flags);
  } else if (command == "train") {
    code = CmdTrain(flags);
  } else if (command == "detect") {
    code = CmdDetect(flags);
  } else if (command == "eval") {
    code = CmdEval(flags);
  } else if (command == "extract") {
    code = CmdExtract(flags);
  } else if (command == "serve") {
    code = CmdServe(flags);
  } else if (command == "stream") {
    code = CmdStream(flags);
  } else if (command == "serve-http") {
    code = CmdServeHttp(flags);
  } else if (command == "route") {
    code = CmdRoute(flags);
  } else if (command == "loadgen") {
    code = CmdLoadgen(flags);
  } else if (command == "curl") {
    code = CmdCurl(flags);
  } else if (command == "checkpoint") {
    code = CmdCheckpoint(flags);
  } else if (command == "inspect-manifest") {
    code = CmdInspectManifest(flags);
  } else {
    return Usage();
  }
  return DumpObservability(flags, code);
}
