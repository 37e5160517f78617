/// Hot-path microbenchmarks: the frozen perf trajectory of the zero-copy
/// ingest -> similarity -> wire refactor. Emits BENCH_core.json (token
/// interning + streaming similarity) and BENCH_net.json (HTTP parse,
/// arena JSON, codec decode); tools/check_bench_regression.sh compares
/// runs against the committed baselines and flags >10% throughput drops.
///
/// Where the pre-refactor implementation still exists in-binary (the
/// string-set similarity path; the heap-node tree JSON parser, frozen in
/// src/testing/tree_json.h as testing::TreeJson), each entry also
/// measures it and reports the speedup — so the committed file *is* the
/// before/after evidence, regenerable on any machine:
///
///   streaming_ingest   msgs/sec through tokenize + per-open-window
///                      similarity updates (legacy: string tokens into a
///                      window-local Vocabulary) — the PR's >=5x claim
///   similarity_eval    window-similarity evaluations/sec (legacy:
///                      StringSetSimilarity over the same messages)
///   tokenize           tokens/sec into interned ids (legacy: Tokenize
///                      into a vector of heap strings)
///   http_parse         bytes/sec through RequestParser (no in-binary
///                      legacy: the copying parser was replaced)
///   json_decode_arena  MB/s through JsonDoc::Parse (legacy: TreeJson::Parse
///                      heap-node tree over identical input)
///   codec_decode       ingest-chat decodes/sec end to end (JsonDoc +
///                      the one string materialization into core::Message)
///
/// Both similarity paths are checksummed against each other while the
/// ingest benchmark runs — a drifting hot path fails the bench outright
/// rather than publishing a throughput number for wrong answers.
///
///   hotpath_bench [--quick] [--out-core=BENCH_core.json]
///                 [--out-net=BENCH_net.json]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "net/codec.h"
#include "net/http.h"
#include "net/json_arena.h"
#include "serving/api.h"
#include "testing/tree_json.h"
#include "text/streaming_similarity.h"
#include "text/token_ids.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace lightor::bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `chunk` several times and returns the best chunk's throughput
/// (`work_per_chunk` units / its wall time). Best-of, not mean-of: the
/// minimum time is the least-perturbed run, which makes the number stable
/// enough to gate CI on even in the short --quick configuration.
template <typename Fn>
double BestThroughput(int chunks, double work_per_chunk, Fn&& chunk) {
  double best = 0.0;
  for (int c = 0; c < chunks; ++c) {
    const double t0 = NowSeconds();
    chunk();
    const double dt = NowSeconds() - t0;
    if (dt > 0.0) best = std::max(best, work_per_chunk / dt);
  }
  return best;
}

/// Synthetic live-chat stream: short messages drawn from a skewed word
/// pool (live chat is bursty repetition — "gg", emotes — with a long tail
/// of rarer words), deterministic across runs.
std::vector<std::string> MakeChat(size_t count) {
  std::vector<std::string> words;
  const char* common[] = {"gg",   "wp",     "POGGERS", "clap", "lol",
                          "ez",   "Kappa",  "insane",  "what", "a",
                          "play", "that",   "was",     "omg",  "nice",
                          "one",  "sick!!", "EZ",      "wow",  "hype"};
  for (const char* w : common) words.emplace_back(w);
  for (int i = 0; i < 480; ++i) words.push_back("word" + std::to_string(i));

  std::vector<std::string> chat;
  chat.reserve(count);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(state >> 33);
  };
  for (size_t i = 0; i < count; ++i) {
    const size_t len = 1 + next() % 6;
    std::string msg;
    for (size_t w = 0; w < len; ++w) {
      if (w > 0) msg += ' ';
      // ~70% of draws come from the 20 common words.
      const uint32_t r = next();
      msg += (r % 10 < 7) ? words[r % 20] : words[20 + r % 480];
    }
    chat.push_back(std::move(msg));
  }
  return chat;
}

struct Entry {
  const char* name;
  const char* unit;
  double value = 0.0;
  double baseline_legacy = 0.0;  ///< 0 = no in-binary legacy twin
};

void WriteBenchFile(const std::string& path, const char* bench,
                    const std::vector<Entry>& entries) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  // One entry per line: greppable/awkable by the regression checker
  // without a JSON parser (same convention as BENCH_recovery.json).
  std::fprintf(out, "{\"bench\":\"%s\",\"entries\":[\n", bench);
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(out, "{\"name\":\"%s\",\"unit\":\"%s\",\"value\":%.0f",
                 e.name, e.unit, e.value);
    if (e.baseline_legacy > 0.0) {
      std::fprintf(out, ",\"baseline_legacy\":%.0f,\"speedup\":%.2f",
                   e.baseline_legacy, e.value / e.baseline_legacy);
    }
    std::fprintf(out, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

void Report(const Entry& e) {
  if (e.baseline_legacy > 0.0) {
    std::fprintf(stderr, "%-18s %12.0f %s (legacy %.0f, %.1fx)\n", e.name,
                 e.value, e.unit, e.baseline_legacy,
                 e.value / e.baseline_legacy);
  } else {
    std::fprintf(stderr, "%-18s %12.0f %s\n", e.name, e.value, e.unit);
  }
}

// ---------------------------------------------------------------------------
// Core: streaming ingest, similarity evaluation, tokenization

/// Streaming ingest cadence: every message is tokenized once and added to
/// each open sliding window; a window closes (its similarity is read)
/// every `kWindowMessages` messages. Two windows overlap at any time,
/// matching the paper's 25 s windows sliding by 12.5 s.
constexpr size_t kOpenWindows = 2;
constexpr size_t kWindowMessages = 64;

/// New path: intern once into global ids, O(tokens) integer remap per
/// window. Returns a checksum of every closed window's similarity.
double IngestIdPath(const std::vector<std::string>& chat,
                    const text::Tokenizer& tokenizer) {
  text::Vocabulary vocabulary;
  std::vector<text::TokenId> scratch;
  text::StreamingSetSimilarity windows[kOpenWindows];
  double checksum = 0.0;
  for (size_t i = 0; i < chat.size(); ++i) {
    scratch.clear();
    // One scan yields both the interned ids and the word-count feature.
    const size_t words = tokenizer.TokenizeToIds(chat[i], vocabulary, scratch);
    checksum += static_cast<double>(words);
    const text::TokenSpan tokens(scratch);
    for (auto& w : windows) w.AddMessage(tokens);
    if ((i + 1) % (kWindowMessages / kOpenWindows) == 0) {
      auto& closing = windows[(i / (kWindowMessages / kOpenWindows)) %
                              kOpenWindows];
      checksum += closing.Value();
      closing.Reset();
    }
  }
  return checksum;
}

/// Legacy path: heap-string tokens, each window re-hashing every token
/// into its own string-keyed Vocabulary.
double IngestStringPath(const std::vector<std::string>& chat,
                        const text::Tokenizer& tokenizer) {
  text::StringSetSimilarity windows[kOpenWindows];
  double checksum = 0.0;
  for (size_t i = 0; i < chat.size(); ++i) {
    // The pre-refactor Ingest scanned twice: CountWords, then Tokenize.
    checksum += static_cast<double>(tokenizer.CountWords(chat[i]));
    const std::vector<std::string> tokens = tokenizer.Tokenize(chat[i]);
    for (auto& w : windows) w.AddMessage(tokens);
    if ((i + 1) % (kWindowMessages / kOpenWindows) == 0) {
      auto& closing = windows[(i / (kWindowMessages / kOpenWindows)) %
                              kOpenWindows];
      checksum += closing.Value();
      closing = text::StringSetSimilarity();  // legacy reset: reconstruct
    }
  }
  return checksum;
}

Entry BenchStreamingIngest(const std::vector<std::string>& chat, int reps) {
  const text::Tokenizer tokenizer{text::TokenizerOptions{}};

  // Differential gate before timing: both paths must agree bit for bit.
  const double want = IngestStringPath(chat, tokenizer);
  const double got = IngestIdPath(chat, tokenizer);
  if (got != want) {
    std::fprintf(stderr,
                 "FATAL: id-path ingest diverged from string path "
                 "(%.17g vs %.17g)\n",
                 got, want);
    std::exit(1);
  }

  double sink = 0.0;
  Entry e{"streaming_ingest", "msgs_per_sec"};
  e.value =
      BestThroughput(reps, static_cast<double>(chat.size()),
                     [&] { sink += IngestIdPath(chat, tokenizer); });
  e.baseline_legacy =
      BestThroughput(reps, static_cast<double>(chat.size()),
                     [&] { sink += IngestStringPath(chat, tokenizer); });
  if (!std::isfinite(sink)) std::exit(1);  // defeat dead-code elimination
  return e;
}

Entry BenchSimilarityEval(const std::vector<std::string>& chat, int reps) {
  const text::Tokenizer tokenizer{text::TokenizerOptions{}};
  const size_t n = std::min<size_t>(kWindowMessages, chat.size());

  text::Vocabulary vocabulary;
  std::vector<text::TokenId> scratch;
  text::StreamingSetSimilarity streaming;
  text::StringSetSimilarity legacy;
  for (size_t i = 0; i < n; ++i) {
    scratch.clear();
    tokenizer.TokenizeToIds(chat[i], vocabulary, scratch);
    streaming.AddMessage(text::TokenSpan(scratch));
    legacy.AddMessage(tokenizer.Tokenize(chat[i]));
  }
  if (streaming.Value() != legacy.Value()) {
    std::fprintf(stderr, "FATAL: similarity paths disagree\n");
    std::exit(1);
  }

  double sink = 0.0;
  const int evals = reps;  // per chunk; 8 chunks, best one counts
  Entry e{"similarity_eval", "evals_per_sec"};
  e.value = BestThroughput(8, evals, [&] {
    for (int i = 0; i < evals; ++i) sink += streaming.Value();
  });
  e.baseline_legacy = BestThroughput(8, evals, [&] {
    for (int i = 0; i < evals; ++i) sink += legacy.Value();
  });
  if (!std::isfinite(sink)) std::exit(1);
  return e;
}

Entry BenchTokenize(const std::vector<std::string>& chat, int reps) {
  const text::Tokenizer tokenizer{text::TokenizerOptions{}};
  text::Vocabulary vocabulary;
  std::vector<text::TokenId> ids;

  // Untimed differential pass: both paths must see the same token count
  // (also yields the per-pass work unit for the timed chunks).
  size_t tokens_per_pass = 0;
  size_t legacy_tokens = 0;
  for (const std::string& msg : chat) {
    ids.clear();
    tokenizer.TokenizeToIds(msg, vocabulary, ids);
    tokens_per_pass += ids.size();
    legacy_tokens += tokenizer.Tokenize(msg).size();
  }
  if (tokens_per_pass != legacy_tokens) {
    std::fprintf(stderr, "FATAL: token counts diverged\n");
    std::exit(1);
  }

  size_t sink = 0;
  Entry e{"tokenize", "tokens_per_sec"};
  e.value =
      BestThroughput(reps, static_cast<double>(tokens_per_pass), [&] {
        for (const std::string& msg : chat) {
          ids.clear();
          tokenizer.TokenizeToIds(msg, vocabulary, ids);
          sink += ids.size();
        }
      });
  e.baseline_legacy =
      BestThroughput(reps, static_cast<double>(tokens_per_pass), [&] {
        for (const std::string& msg : chat) {
          sink += tokenizer.Tokenize(msg).size();
        }
      });
  if (sink == 0) std::exit(1);
  return e;
}

// ---------------------------------------------------------------------------
// Net: HTTP parse, arena JSON decode, wire codec decode

std::string MakeIngestBody(const std::vector<std::string>& chat,
                           size_t messages) {
  serving::IngestChatRequest req;
  req.video_id = "bench_video";
  for (size_t i = 0; i < messages; ++i) {
    core::Message m;
    m.timestamp = static_cast<double>(i) * 0.5;
    m.user = "chatter" + std::to_string(i % 97);
    m.text = chat[i % chat.size()];
    req.messages.push_back(std::move(m));
  }
  return net::EncodeJson(req);
}

Entry BenchHttpParse(const std::string& body, int reps) {
  std::string burst;
  constexpr int kPipelined = 16;
  for (int i = 0; i < kPipelined; ++i) {
    burst += "POST /ingest HTTP/1.1\r\n";
    burst += "Host: localhost\r\n";
    burst += "Content-Type: application/json\r\n";
    burst += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    burst += body;
  }

  net::RequestParser parser(
      net::RequestParser::Limits{.max_header_bytes = 8192,
                                 .max_body_bytes = 8u << 20});
  size_t requests = 0;
  const int chunk_reps = reps / 8 > 0 ? reps / 8 : 1;
  Entry e{"http_parse", "bytes_per_sec"};
  e.value = BestThroughput(
      8, static_cast<double>(burst.size()) * chunk_reps, [&] {
        for (int r = 0; r < chunk_reps; ++r) {
          parser.Append(burst);
          while (parser.Parse() == net::RequestParser::State::kReady) {
            ++requests;
          }
        }
      });
  if (requests != static_cast<size_t>(chunk_reps) * 8 * kPipelined ||
      parser.buffered_bytes() != 0) {
    std::fprintf(stderr, "FATAL: http_parse lost requests\n");
    std::exit(1);
  }
  return e;
}

Entry BenchJsonDecode(const std::string& body, int reps) {
  // Parsed-output sanity first.
  {
    auto doc = net::JsonDoc::Parse(body);
    auto legacy = testing::TreeJson::Parse(body);
    if (!doc.ok() || !legacy.ok() ||
        doc.value().root().size() != legacy.value().AsObject().size()) {
      std::fprintf(stderr, "FATAL: json decode paths disagree\n");
      std::exit(1);
    }
  }

  size_t sink = 0;
  const int chunk_reps = reps / 8 > 0 ? reps / 8 : 1;
  const double mb = static_cast<double>(body.size()) / (1024.0 * 1024.0);
  Entry e{"json_decode_arena", "mb_per_sec"};
  e.value = BestThroughput(8, mb * chunk_reps, [&] {
    for (int r = 0; r < chunk_reps; ++r) {
      auto doc = net::JsonDoc::Parse(body);
      if (!doc.ok()) std::exit(1);
      sink += doc.value().root().size();
    }
  });
  e.baseline_legacy = BestThroughput(8, mb * chunk_reps, [&] {
    for (int r = 0; r < chunk_reps; ++r) {
      auto tree = testing::TreeJson::Parse(body);
      if (!tree.ok()) std::exit(1);
      sink += tree.value().AsObject().size();
    }
  });
  if (sink == 0) std::exit(1);
  return e;
}

Entry BenchCodecDecode(const std::string& body, size_t messages, int reps) {
  const int chunk_reps = reps / 8 > 0 ? reps / 8 : 1;
  Entry e{"codec_decode", "msgs_per_sec"};
  e.value = BestThroughput(
      8, static_cast<double>(messages) * chunk_reps, [&] {
        for (int r = 0; r < chunk_reps; ++r) {
          auto req = net::DecodeIngestChatRequest(body);
          if (!req.ok() || req.value().messages.size() != messages) {
            std::exit(1);
          }
        }
      });
  return e;
}

int Main(int argc, char** argv) {
  const common::Flags flags = InitBenchEnv(argc, argv);
  const bool quick = flags.Has("quick");
  const std::string out_core = flags.GetString("out-core", "BENCH_core.json");
  const std::string out_net = flags.GetString("out-net", "BENCH_net.json");

  const size_t chat_size = quick ? 4096 : 16384;
  const int reps = quick ? 5 : 20;
  const std::vector<std::string> chat = MakeChat(chat_size);

  std::vector<Entry> core_entries;
  core_entries.push_back(BenchStreamingIngest(chat, reps));
  Report(core_entries.back());
  core_entries.push_back(BenchSimilarityEval(chat, reps * 50));
  Report(core_entries.back());
  core_entries.push_back(BenchTokenize(chat, reps));
  Report(core_entries.back());
  WriteBenchFile(out_core, "core", core_entries);

  const size_t body_messages = 100;
  const std::string body = MakeIngestBody(chat, body_messages);
  const int net_reps = quick ? 200 : 2000;
  std::vector<Entry> net_entries;
  net_entries.push_back(BenchHttpParse(body, net_reps));
  Report(net_entries.back());
  net_entries.push_back(BenchJsonDecode(body, net_reps));
  Report(net_entries.back());
  net_entries.push_back(BenchCodecDecode(body, body_messages, net_reps));
  Report(net_entries.back());
  WriteBenchFile(out_net, "net", net_entries);
  return 0;
}

}  // namespace
}  // namespace lightor::bench

int main(int argc, char** argv) { return lightor::bench::Main(argc, argv); }
