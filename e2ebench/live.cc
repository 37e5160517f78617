/// Live phase: chat → provisional dot. About a thousand live channels
/// replay realistic simulated chat in timestamp order as batched /ingest
/// frames into the fair-share ingest tier, first as an open loop at a
/// fixed aggregate message rate, then as a closed loop on fresh channels.
/// Every channel is finalized at the end.
#include <algorithm>
#include <array>
#include <cstdio>

#include "core/streaming.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/json_arena.h"
#include "phases.h"
#include "sim/bridge.h"

namespace lightor::e2e {

namespace {

constexpr size_t kLiveChannels = 1000;
/// Channels replay the chat of this many cold videos (the first ones of
/// the seeded split), so the generator's copy stays small.
constexpr size_t kLiveSources = 100;
/// Open-loop aggregate chat rate, messages per second.
constexpr double kLiveRate = 40000.0;
/// Frames leave every tick; one frame carries at most this many channels.
constexpr double kTickSeconds = 0.02;
constexpr size_t kFrameChannels = 32;
/// Capacity phase: fresh channels get kCapacityChunks chunks of
/// kCapacityChunk messages, frames of kFrameChannels channels.
constexpr size_t kCapacityChunk = 64;
constexpr size_t kCapacityChunks = 16;
/// The open loop's share of the run's seconds.
constexpr double kOpenShare = 0.15;
/// The capacity loop sends this many messages per second of the run
/// (about a second's worth at capacity on the reference box, per 10 run
/// seconds). Admission outruns the drain, so a time-bounded loop would
/// pile the backlog up in memory.
constexpr double kCapacityMessagesPerRunSecond = 60000.0;
/// The capacity loop runs in this many equal batches, each drained
/// before the next; the median batch rate is reported.
constexpr size_t kCapacityBatches = 4;
/// Channels put through the traced ledger.
constexpr size_t kLedgerChannels = 100;
constexpr size_t kLedgerFrames = 200;

/// Every live channel: its id, its chat (a cold video's), and what the
/// server acknowledged.
struct Channels {
  std::vector<std::string> ids;
  std::vector<const std::vector<core::Message>*> chat;
  /// Messages acknowledged so far; a channel belongs to one connection,
  /// so each slot has a single writer.
  std::vector<size_t> acked;
  /// Open-loop chunk sizes in send order (the ledger replays them).
  std::vector<std::vector<size_t>> chunks;
  /// Per frame (Request::key): (channel, messages) of each entry.
  std::vector<std::vector<std::pair<uint32_t, size_t>>> frames;

  uint32_t Add(std::string id, const std::vector<core::Message>* messages) {
    ids.push_back(std::move(id));
    chat.push_back(messages);
    acked.push_back(0);
    chunks.emplace_back();
    return static_cast<uint32_t>(ids.size() - 1);
  }
};

Request Frame(Channels& channels,
              const std::vector<std::pair<uint32_t, std::pair<size_t, size_t>>>&
                  entries,
              double due) {
  std::vector<serving::IngestChatRequest> batch;
  std::vector<std::pair<uint32_t, size_t>> table;
  for (const auto& [channel, range] : entries) {
    serving::IngestChatRequest req;
    req.video_id = channels.ids[channel];
    const auto& chat = *channels.chat[channel];
    req.messages.assign(chat.begin() + static_cast<ptrdiff_t>(range.first),
                        chat.begin() + static_cast<ptrdiff_t>(range.second));
    batch.push_back(std::move(req));
    table.emplace_back(channel, range.second - range.first);
  }
  Request frame;
  frame.due_s = due;
  frame.op = Op::kIngest;
  frame.target = "/ingest";
  frame.body = net::EncodeIngestBatchRequest(batch);
  frame.key = static_cast<uint32_t>(channels.frames.size());
  channels.frames.push_back(std::move(table));
  return frame;
}

/// Checks a batch response entry by entry and records the acks.
OnResponse AckHook(Channels& channels) {
  return [&channels](size_t, const Request& req,
                     const net::HttpResponse& response) -> std::string {
    auto entries = net::DecodeIngestBatchResponse(response.body);
    if (!entries.ok()) return entries.status().ToString();
    const auto& table = channels.frames[req.key];
    if (entries.value().size() != table.size()) return "entry count mismatch";
    for (size_t e = 0; e < table.size(); ++e) {
      const auto& entry = entries.value()[e];
      if (entry.status != 200 || entry.response.accepted != table[e].second ||
          entry.response.rejected != 0) {
        return "entry " + entry.video_id + " status " +
               std::to_string(entry.status) + " accepted " +
               std::to_string(entry.response.accepted);
      }
      channels.acked[table[e].first] += table[e].second;
    }
    return std::string();
  };
}

/// Each live channel's worst provisional staleness (chat message →
/// provisional dot), from GET /debug/channels after the ingest queues
/// drained.
std::vector<double> ChannelStalenessMs(uint16_t port, Tally& tally) {
  net::HttpClient client("127.0.0.1", port);
  auto response = client.Get("/debug/channels");
  if (!response.ok() || response.value().status != 200) {
    tally.OpFailed("GET /debug/channels");
    return {};
  }
  const auto doc =
      Must(net::JsonDoc::Parse(response.value().body), "/debug/channels");
  std::vector<double> staleness_ms;
  for (auto c = doc.root().Find("channels").first_child(); c;
       c = c.next_sibling()) {
    if (c.Find("video_id").AsString().rfind("live-", 0) != 0) continue;
    if (c.Find("admitted_messages").AsNumber() <= 0.0) continue;
    if (c.Find("queued_messages").AsNumber() > 0.0) {
      tally.CheckFailed("ingest queue not drained after FlushIngest");
    }
    staleness_ms.push_back(c.Find("max_staleness_seconds").AsNumber() * 1e3);
  }
  return staleness_ms;
}

void LiveLedger(RunContext& ctx, const Channels& channels,
                const std::vector<std::vector<Request>>& schedule) {
  World& world = *ctx.world;
  SpanLog& spans = ctx.spans;
  size_t decoded = 0;
  for (const auto& connection : schedule) {
    for (const Request& frame : connection) {
      if (decoded++ >= kLedgerFrames) break;
      spans.Time("net.ingest_frame_decode", SpanLog::kNone, frame.key, [&] {
        (void)net::DecodeIngestBatchRequest(frame.body);
      });
    }
  }
  auto twin = Backend::Start(
      world, ctx.Dir("live-twin"),
      [](serving::ServerOptions& o) {
        o.ingest_workers = 2;
        o.stream_publish_max_delay_seconds = 0.05;
      },
      /*with_http=*/false);
  double ingest_ns = 0.0;
  size_t ingested = 0;
  std::vector<std::unique_ptr<core::StreamingInitializer>> engines;
  for (uint32_t c = 0; c < kLedgerChannels; ++c) {
    engines.push_back(std::make_unique<core::StreamingInitializer>(
        &world.lightor->initializer()));
    size_t at = 0;
    for (size_t n : channels.chunks[c]) {
      serving::IngestChatRequest req;
      req.video_id = channels.ids[c];
      req.messages.assign(channels.chat[c]->begin() + static_cast<ptrdiff_t>(at),
                          channels.chat[c]->begin() +
                              static_cast<ptrdiff_t>(at + n));
      at += n;
      spans.Time("serving.ingest_chat", SpanLog::kNone, c,
                 [&] { Must(twin->server().IngestChat(req), "twin ingest"); });
      const Clock::time_point start = Clock::now();
      Must(engines.back()->IngestBatch(req.messages), "engine ingest");
      ingest_ns += MsBetween(start, Clock::now()) * 1e6;
      ingested += n;
    }
  }
  twin->server().FlushIngest();
  for (uint32_t c = 0; c < kLedgerChannels; ++c) {
    if (channels.chunks[c].empty()) continue;
    core::StreamingInitializer& engine = *engines[c];
    spans.Time("core.provisional", SpanLog::kNone, c,
               [&] { (void)engine.Provisional(5); });
    const int64_t finalize = spans.Time("core.stream_finalize", SpanLog::kNone,
                                        c, [&] {
      (void)engine.Finalize(engine.stats().watermark, 5);
    });
    spans.Adopt(spans.Time("serving.finalize", SpanLog::kNone, c, [&] {
                  Must(twin->server().FinalizeStream({channels.ids[c], 0.0}),
                       "twin finalize");
                }),
                finalize);
  }
  ctx.LayerFromSpans("net.ingest_frame_decode_us", "net.ingest_frame_decode",
                     "us");
  ctx.LayerFromSpans("serving.ingest_chat_us", "serving.ingest_chat", "us");
  ctx.LayerFromSpans("serving.finalize_ms", "serving.finalize", "ms", 1e-3);
  ctx.layer["core.stream_ingest_ns_per_msg"] = {
      ingested == 0 ? 0.0 : ingest_ns / ingested, "ns"};
  ctx.LayerFromSpans("core.provisional_us", "core.provisional", "us");
  ctx.LayerFromSpans("core.stream_finalize_ms", "core.stream_finalize", "ms",
                     1e-3);
}

}  // namespace

void RunLivePhase(RunContext& ctx) {
  World& world = *ctx.world;
  auto backend = SetUp<Backend>(ctx, [&] {
    return Backend::Start(world, ctx.Dir("live"),
                          [](serving::ServerOptions& o) {
                            o.ingest_workers = 2;
                            o.stream_publish_max_delay_seconds = 0.05;
                          });
  });

  std::vector<std::vector<core::Message>> sources;
  double natural_rate = 0.0;
  for (size_t v = 0; v < kLiveSources; ++v) {
    const auto video =
        Must(world.platform->GetVideo(world.cold_ids[v]), world.cold_ids[v]);
    sources.push_back(sim::ToCoreMessages(video.chat));
  }
  Channels channels;
  for (size_t c = 0; c < kLiveChannels; ++c) {
    const auto& chat = sources[c % sources.size()];
    channels.Add("live-" + std::to_string(c), &chat);
    natural_rate += chat.size() / std::max(1.0, chat.back().timestamp);
  }
  // Each channel replays its own chat, sped up by one factor so that the
  // aggregate hits kLiveRate: busy channels stay busy.
  const double speed = kLiveRate / natural_rate;
  const double open_s = kOpenShare * ctx.seconds;
  std::vector<std::vector<Request>> schedule(kConnections);
  std::vector<size_t> cursor(kLiveChannels, 0);
  for (size_t tick = 1; tick * kTickSeconds <= open_s; ++tick) {
    const double cut = tick * kTickSeconds;
    for (size_t t = 0; t < kConnections; ++t) {
      // The messages that came due during the tick, as frames that leave
      // spread over the next tick.
      std::vector<std::vector<std::pair<uint32_t, std::pair<size_t, size_t>>>>
          frames(1);
      for (uint32_t c = t; c < kLiveChannels; c += kConnections) {
        const auto& chat = *channels.chat[c];
        size_t end = cursor[c];
        while (end < chat.size() && chat[end].timestamp / speed < cut) ++end;
        if (end == cursor[c]) continue;
        if (frames.back().size() == kFrameChannels) frames.emplace_back();
        frames.back().push_back({c, {cursor[c], end}});
        channels.chunks[c].push_back(end - cursor[c]);
        cursor[c] = end;
      }
      if (frames.back().empty()) continue;
      for (size_t f = 0; f < frames.size(); ++f) {
        schedule[t].push_back(Frame(
            channels, frames[f], cut + kTickSeconds * f / frames.size()));
      }
    }
  }

  // Capacity frames are made on the client threads: connection t's frame
  // i carries chunk i % kCapacityChunks of kFrameChannels fresh channels
  // of group i / kCapacityChunks. Each entry is a pre-encoded chunk body
  // behind the channel's id.
  std::vector<std::array<std::string, kCapacityChunks>> chunk_tails;
  std::vector<size_t> capacity_chat;  ///< chunk_tails index → sources index
  for (size_t s = 0; s < sources.size(); ++s) {
    const auto& chat = sources[s];
    if (chat.size() < kCapacityChunk * kCapacityChunks) continue;
    capacity_chat.push_back(s);
    auto& tails = chunk_tails.emplace_back();
    for (size_t k = 0; k < kCapacityChunks; ++k) {
      serving::IngestChatRequest req;
      req.messages.assign(
          chat.begin() + static_cast<ptrdiff_t>(k * kCapacityChunk),
          chat.begin() + static_cast<ptrdiff_t>((k + 1) * kCapacityChunk));
      const std::string encoded = net::EncodeJson(req);
      static constexpr char kHead[] = "{\"video_id\":\"\"";
      if (encoded.rfind(kHead, 0) != 0) Die("unexpected ingest encoding");
      tails[k] = encoded.substr(sizeof(kHead) - 1);
    }
  }
  if (chunk_tails.empty()) Die("no chat long enough for the capacity phase");
  auto capacity_source = [&](size_t t, size_t group, size_t j) {
    return (t * 7919 + group * kFrameChannels + j) % chunk_tails.size();
  };
  auto capacity_id = [](size_t t, size_t group, size_t j) {
    return "livecap-" + std::to_string(t) + "-" + std::to_string(group) + "-" +
           std::to_string(j);
  };
  const size_t batch_frames = static_cast<size_t>(
      kCapacityMessagesPerRunSecond * ctx.seconds /
      (kCapacityBatches * kConnections * kFrameChannels * kCapacityChunk));
  size_t batch_start = 0;  ///< first frame index of the running batch
  const RequestMaker make_capacity_frame = [&](size_t t, size_t n,
                                               Request* out) {
    if (n >= batch_frames) return false;
    const size_t i = batch_start + n;
    const size_t group = i / kCapacityChunks;
    const size_t chunk = i % kCapacityChunks;
    out->op = Op::kIngest;
    out->target = "/ingest";
    out->key = static_cast<uint32_t>(t);
    out->body = "[";
    for (size_t j = 0; j < kFrameChannels; ++j) {
      if (j > 0) out->body += ',';
      out->body += "{\"video_id\":\"" + capacity_id(t, group, j) + "\"" +
                   chunk_tails[capacity_source(t, group, j)][chunk];
    }
    out->body += ']';
    return true;
  };
  // Frames each capacity connection had acknowledged (one writer each).
  std::vector<size_t> capacity_frames(kConnections, 0);
  const OnResponse capacity_ack = [&](size_t t, const Request&,
                                      const net::HttpResponse& response)
      -> std::string {
    auto entries = net::DecodeIngestBatchResponse(response.body);
    if (!entries.ok()) return entries.status().ToString();
    if (entries.value().size() != kFrameChannels) return "entry count mismatch";
    for (const auto& entry : entries.value()) {
      if (entry.status != 200 || entry.response.accepted != kCapacityChunk ||
          entry.response.rejected != 0) {
        return "entry " + entry.video_id + " status " +
               std::to_string(entry.status);
      }
    }
    ++capacity_frames[t];
    return std::string();
  };

  const std::string before =
      ctx.trace ? ScrapeMetrics(backend->port()) : "";
  const OnResponse ack = AckHook(channels);
  const LoopResult open =
      RunOpenLoop(backend->port(), schedule, ctx.tally, ctx.spans, ack);
  NoteLateness(ctx, "live", open);
  backend->server().FlushIngest();
  const std::vector<double> staleness_ms =
      ChannelStalenessMs(backend->port(), ctx.tally);

  size_t open_acked = 0;
  for (size_t c = 0; c < kLiveChannels; ++c) open_acked += channels.acked[c];
  // Capacity counts messages drained into their engines, not just
  // admitted: each batch's clock stops when the ingest queues are empty.
  // The median batch rate is reported.
  std::vector<double> batch_rates;
  double cap_seconds = 0.0;
  size_t cap_acked = 0;
  for (size_t b = 0; b < kCapacityBatches; ++b) {
    batch_start = b * batch_frames;
    size_t frames_before = 0;
    for (size_t f : capacity_frames) frames_before += f;
    const Clock::time_point start = Clock::now();
    RunMadeClosedLoop(backend->port(), kConnections, make_capacity_frame,
                      ctx.tally, ctx.spans, capacity_ack);
    backend->server().FlushIngest();
    const double seconds = SecondsSince(start);
    size_t frames_after = 0;
    for (size_t f : capacity_frames) frames_after += f;
    const size_t messages =
        (frames_after - frames_before) * kFrameChannels * kCapacityChunk;
    batch_rates.push_back(messages / seconds);
    cap_seconds += seconds;
    cap_acked += messages;
  }
  for (size_t t = 0; t < kConnections; ++t) {
    // The channels those frames fed, with the messages each received.
    for (size_t group = 0; group * kCapacityChunks < capacity_frames[t];
         ++group) {
      for (size_t j = 0; j < kFrameChannels; ++j) {
        const uint32_t c = channels.Add(
            capacity_id(t, group, j),
            &sources[capacity_chat[capacity_source(t, group, j)]]);
        channels.acked[c] =
            kCapacityChunk * std::min(kCapacityChunks, capacity_frames[t] -
                                                           group * kCapacityChunks);
      }
    }
  }
  std::fprintf(stderr,
               "live: %zu msgs in %zu open-loop frames; %zu msgs in %.2f s "
               "closed loop\n",
               open_acked, open.completed, cap_acked, cap_seconds);

  // Finalize every channel: the open-loop ones first, then the capacity
  // ones, whose thousand-message streams give Finalize real work; the
  // latency metric comes from those.
  std::vector<Request> finals[2];
  for (uint32_t c = 0; c < channels.ids.size(); ++c) {
    if (channels.acked[c] == 0) continue;
    finals[c >= kLiveChannels].push_back(
        {0.0, Op::kFinalize, "/finalize",
         "{\"video_id\":\"" + channels.ids[c] + "\"}", c});
  }
  std::vector<std::string> final_bodies(channels.ids.size());
  const OnResponse keep_body = [&](size_t, const Request& req,
                                   const net::HttpResponse& response) {
    final_bodies[req.key] = response.body;
    return std::string();
  };
  RunSharedClosedLoop(backend->port(), finals[0], kConnections, 1e9, ctx.tally,
                      ctx.spans, keep_body);
  const LoopResult finalized =
      RunSharedClosedLoop(backend->port(), finals[1], kConnections, 1e9,
                          ctx.tally, ctx.spans, keep_body);

  if (ctx.trace) {
    const std::string after = ScrapeMetrics(backend->port());
    ctx.layer["serving.provisional_publishes"] = {
        CounterSum(after, "lightor_stream_provisional_publishes_total") -
            CounterSum(before, "lightor_stream_provisional_publishes_total"),
        "count"};
    ctx.layer["tail.ingest_p99_ms"] = {Quantile(open.of(Op::kIngest), 0.99),
                                       "ms"};
    ctx.layer["tail.provisional_p99_ms"] = {Quantile(staleness_ms, 0.99),
                                            "ms"};
    ctx.layer["tail.finalize_p99_ms"] = {
        Quantile(finalized.of(Op::kFinalize), 0.99), "ms"};
  } else {
    ctx.e2e["ingest_p50_ms"] = {Quantile(open.of(Op::kIngest), 0.50), "ms"};
    ctx.e2e["provisional_p50_ms"] = {Quantile(staleness_ms, 0.50), "ms"};
    ctx.e2e["finalize_p50_ms"] = {Quantile(finalized.of(Op::kFinalize), 0.50),
                                  "ms"};
    ctx.e2e["live_msgs_per_s"] = {Median(batch_rates), "msgs/s"};
  }

  // batch ≡ stream: every finalized body equals the batch Initializer over
  // the messages the server acknowledged, at the length it resolved.
  ParallelFor(channels.ids.size(), kConnections, [&](size_t c) {
    const std::string& body = final_bodies[c];
    if (channels.acked[c] == 0 || body.empty()) return;  // failures counted
    auto served = net::DecodeFinalizeStreamResponse(body);
    if (!served.ok()) {
      ctx.tally.CheckFailed("undecodable /finalize body of " + channels.ids[c]);
      return;
    }
    const auto& chat = *channels.chat[c];
    const std::vector<core::Message> accepted(
        chat.begin(),
        chat.begin() + static_cast<ptrdiff_t>(channels.acked[c]));
    serving::FinalizeStreamResponse expected;
    expected.highlights = RecordsFromDots(
        *world.lightor, channels.ids[c],
        Must(world.lightor->Initialize(accepted, served.value().video_length, 5),
             "batch Initialize"));
    expected.snapshot_version = served.value().snapshot_version;
    expected.video_length = served.value().video_length;
    if (net::EncodeJson(expected) != body) {
      ctx.tally.CheckFailed("/finalize of " + channels.ids[c] +
                            " differs from the batch Initializer");
    }
  });
  if (ctx.trace) LiveLedger(ctx, channels, schedule);
}

}  // namespace lightor::e2e
