#include "net/service.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "net/codec.h"
#include "net/json_arena.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serving/metrics.h"

namespace lightor::net {

namespace {

int HttpStatusFor(const common::Status& status) {
  switch (status.code()) {
    case common::StatusCode::kInvalidArgument:
      return 400;
    case common::StatusCode::kNotFound:
      return 404;
    case common::StatusCode::kAlreadyExists:
    case common::StatusCode::kFailedPrecondition:
      return 409;
    case common::StatusCode::kIoError:
    case common::StatusCode::kUnavailable:
      // Storage write failure (disk full, wedged log) or an unreachable
      // upstream. The record was NOT accepted — tell the client to retry
      // rather than silently losing a viewer session the crowd can never
      // re-supply.
      return 503;
    case common::StatusCode::kDeadlineExceeded:
      return 504;
    default:
      return 500;
  }
}

HttpResponse FromStatus(const common::Status& status) {
  HttpResponse response =
      ErrorResponse(HttpStatusFor(status), status.ToString());
  if (response.status == 503) {
    response.SetHeader("retry-after", "1");
  }
  return response;
}

/// Decode -> call -> encode, with decode failures always a 400 (a bad
/// body is the client's fault even when the backend would 500 on it).
template <typename Decode, typename Call>
HttpResponse JsonRoute(const HttpRequest& request, Decode decode,
                       Call call) {
  auto decoded = decode(request.body);
  if (!decoded.ok()) {
    return ErrorResponse(400, decoded.status().ToString());
  }
  auto result = call(std::move(decoded).value());
  if (!result.ok()) return FromStatus(result.status());
  return JsonResponse(200, EncodeJson(result.value()));
}

/// Retry-After is whole seconds on the wire; round the bucket's refill
/// estimate up so a compliant client never retries early, floor at 1.
std::string RetryAfterHeader(double retry_after_seconds) {
  const double ceiled = std::ceil(std::max(0.0, retry_after_seconds));
  return std::to_string(std::max<long long>(1, static_cast<long long>(ceiled)));
}

HttpResponse ThrottledResponse(const serving::IngestChatResponse& response) {
  HttpResponse http = JsonResponse(429, EncodeJson(response));
  http.SetHeader("retry-after", RetryAfterHeader(response.retry_after_seconds));
  return http;
}

/// Chunked multi-channel frame: a top-level JSON array of single-frame
/// requests. The frame itself is HTTP 200 once it parses and fits the
/// caps; each channel reports its own outcome per entry so one spiking
/// channel's 429 cannot fail its neighbours' deliveries.
HttpResponse BatchIngestRoute(serving::HighlightServer* server,
                              const RouteOptions& options,
                              const HttpRequest& request) {
  auto decoded = DecodeIngestBatchRequest(request.body);
  if (!decoded.ok()) {
    return ErrorResponse(400, decoded.status().ToString());
  }
  const std::vector<serving::IngestChatRequest>& batches = decoded.value();
  if (batches.size() > options.max_batch_channels) {
    return ErrorResponse(
        413, "ingest: batch frame carries " + std::to_string(batches.size()) +
                 " channels, cap is " +
                 std::to_string(options.max_batch_channels));
  }
  size_t total_messages = 0;
  for (const serving::IngestChatRequest& batch : batches) {
    total_messages += batch.messages.size();
  }
  if (total_messages > options.max_batch_messages) {
    return ErrorResponse(
        413, "ingest: batch frame carries " + std::to_string(total_messages) +
                 " messages, cap is " +
                 std::to_string(options.max_batch_messages));
  }

  std::vector<IngestBatchEntry> entries;
  entries.reserve(batches.size());
  double max_retry_after = 0.0;
  for (const serving::IngestChatRequest& batch : batches) {
    IngestBatchEntry entry;
    entry.video_id = batch.video_id;
    auto result = server->IngestChat(batch);
    if (!result.ok()) {
      entry.status = HttpStatusFor(result.status());
      entry.error = result.status().ToString();
    } else if (result.value().throttled) {
      entry.status = 429;
      entry.response = result.value();
      max_retry_after =
          std::max(max_retry_after, result.value().retry_after_seconds);
    } else {
      entry.response = result.value();
    }
    entries.push_back(std::move(entry));
  }
  HttpResponse http = JsonResponse(200, EncodeIngestBatchResponse(entries));
  if (max_retry_after > 0.0) {
    http.SetHeader("retry-after", RetryAfterHeader(max_retry_after));
  }
  return http;
}

}  // namespace

Router BuildRoutes(serving::HighlightServer* server, RouteOptions options) {
  Router router;

  router.Handle("POST", "/visit", [server](const HttpRequest& request) {
    return JsonRoute(request, DecodePageVisitRequest,
                     [server](serving::PageVisitRequest req) {
                       return server->OnPageVisit(req);
                     });
  });

  router.Handle("POST", "/session", [server](const HttpRequest& request) {
    auto decoded = DecodeLogSessionRequest(request.body);
    if (!decoded.ok()) {
      return ErrorResponse(400, decoded.status().ToString());
    }
    if (auto st = server->LogSession(decoded.value()); !st.ok()) {
      return FromStatus(st);
    }
    return JsonResponse(200, "{\"ok\":true}");
  });

  router.Handle("POST", "/refine", [server](const HttpRequest& request) {
    auto parsed = JsonDoc::Parse(request.body);
    if (!parsed.ok()) {
      return ErrorResponse(400, parsed.status().ToString());
    }
    const JsonDoc::Ref video_id = parsed.value().root().Find("video_id");
    if (!video_id || !video_id.is_string()) {
      return ErrorResponse(400, "refine: missing string field \"video_id\"");
    }
    auto report = server->Refine(std::string(video_id.AsString()));
    if (!report.ok()) return FromStatus(report.status());
    return JsonResponse(200, EncodeJson(report.value()));
  });

  router.Handle("POST", "/ingest",
                [server, options](const HttpRequest& request) {
    // Sniff the frame shape on the first non-whitespace byte: `[` is a
    // chunked multi-channel batch, anything else decodes as the classic
    // single-channel object (whose decoder produces the 400 on garbage).
    const size_t first = request.body.find_first_not_of(" \t\r\n");
    if (first != std::string_view::npos && request.body[first] == '[') {
      return BatchIngestRoute(server, options, request);
    }
    auto decoded = DecodeIngestChatRequest(request.body);
    if (!decoded.ok()) {
      return ErrorResponse(400, decoded.status().ToString());
    }
    auto result = server->IngestChat(decoded.value());
    if (!result.ok()) return FromStatus(result.status());
    if (result.value().throttled) return ThrottledResponse(result.value());
    return JsonResponse(200, EncodeJson(result.value()));
  });

  router.Handle("POST", "/finalize", [server](const HttpRequest& request) {
    return JsonRoute(request, DecodeFinalizeStreamRequest,
                     [server](serving::FinalizeStreamRequest req) {
                       return server->FinalizeStream(req);
                     });
  });

  router.Handle("GET", "/highlights", [server](const HttpRequest& request) {
    const std::string video_id = request.QueryParam("video_id");
    if (video_id.empty()) {
      return ErrorResponse(400, "highlights: missing query param video_id");
    }
    auto highlights = server->GetHighlights(video_id);
    if (!highlights.ok()) return FromStatus(highlights.status());
    return JsonResponse(200, EncodeJson(highlights.value()));
  });

  router.Handle("GET", "/metrics", [](const HttpRequest& request) {
    const std::string format = request.QueryParam("format");
    HttpResponse response;
    response.body = serving::ExportMetricsPage(
        format.empty() ? "prometheus" : std::string_view(format));
    response.SetHeader("content-type", format == "json"
                                           ? "application/json"
                                           : "text/plain; version=0.0.4");
    return response;
  });

  router.Handle("GET", "/healthz", [server](const HttpRequest&) {
    const auto recovery = server->recovery_info();
    // "draining" is the lame-duck announcement: still serving, but a
    // router should stop sending new work here (see BeginDrain()).
    std::string body = "{\"status\":\"ok\",\"state\":\"";
    body += server->draining() ? "draining" : "ok";
    body += "\",\"recovery\":{\"bootstrapped\":";
    body += recovery.bootstrapped ? "true" : "false";
    if (recovery.bootstrapped) {
      const storage::RecoveryStats& s = recovery.stats;
      body += ",\"checkpoint_gen\":" + std::to_string(s.checkpoint_gen);
      body += ",\"checkpoint_lsn\":" + std::to_string(s.checkpoint_lsn);
      body += ",\"log_gen\":" + std::to_string(s.log_gen);
      body += ",\"checkpoint_records\":" + std::to_string(s.checkpoint_records);
      body += ",\"records_replayed\":" + std::to_string(s.records_replayed);
      body += ",\"torn_bytes_truncated\":" +
              std::to_string(s.torn_bytes_truncated);
      body += ",\"wall_seconds\":" + std::to_string(s.wall_seconds);
    }
    body += "}}";
    return JsonResponse(200, std::move(body));
  });

  // Admin: checkpoint now. 409 (FailedPrecondition) when there is
  // nothing to checkpoint never happens here — the explicit trigger
  // always runs — but storage errors surface as 503/500.
  router.Handle("POST", "/debug/checkpoint",
                [server](const HttpRequest&) {
    auto stats = server->Checkpoint();
    if (!stats.ok()) return FromStatus(stats.status());
    const storage::CheckpointStats& s = stats.value();
    std::string body = "{\"gen\":" + std::to_string(s.gen);
    body += ",\"lsn\":" + std::to_string(s.lsn);
    body += ",\"records_written\":" + std::to_string(s.records_written);
    body += ",\"checkpoint_bytes\":" + std::to_string(s.checkpoint_bytes);
    body += ",\"log_bytes_truncated\":" +
            std::to_string(s.log_bytes_truncated);
    body += ",\"wall_seconds\":" + std::to_string(s.wall_seconds);
    body += "}";
    return JsonResponse(200, std::move(body));
  });

  router.Handle("GET", "/debug/requests", [](const HttpRequest& request) {
    // Filters: ?min_ms= (total duration floor), ?status= (exact code or
    // a class like "5xx"), ?route= (exact label), ?limit= (row cap).
    const std::string min_ms_param = request.QueryParam("min_ms");
    const std::string status_param = request.QueryParam("status");
    const std::string route_param = request.QueryParam("route");
    const std::string limit_param = request.QueryParam("limit");
    const double min_ms =
        min_ms_param.empty() ? 0.0 : std::atof(min_ms_param.c_str());
    const size_t limit =
        limit_param.empty()
            ? 100
            : static_cast<size_t>(std::atoll(limit_param.c_str()));
    int status_exact = 0;
    char status_class = 0;
    if (!status_param.empty()) {
      if (status_param.size() == 3 && status_param[1] == 'x' &&
          status_param[2] == 'x') {
        status_class = status_param[0];
      } else {
        status_exact = std::atoi(status_param.c_str());
      }
    }

    std::string body = "{\"requests\":[";
    size_t emitted = 0;
    for (const obs::WideEvent& event : obs::RequestLog::Global().Recent()) {
      if (static_cast<double>(event.total_us) * 1e-3 < min_ms) continue;
      if (status_exact != 0 && event.status != status_exact) continue;
      if (status_class != 0 && '0' + event.status / 100 != status_class) {
        continue;
      }
      if (!route_param.empty() && event.route != route_param) continue;
      if (emitted == limit) break;
      if (emitted++) body += ",";
      body += EncodeWideEventJson(event);
    }
    body += "]}";
    return JsonResponse(200, std::move(body));
  });

  router.Handle("GET", "/debug/trace", [](const HttpRequest& request) {
    const std::string trace_id = request.QueryParam("trace_id");
    uint64_t trace_hi = 0, trace_lo = 0;
    if (!obs::ParseTraceId(trace_id, &trace_hi, &trace_lo)) {
      return ErrorResponse(
          400, "debug/trace: trace_id must be 32 hex chars, non-zero");
    }
    const std::vector<obs::TraceEvent> events =
        obs::TraceRecorder::Global().EventsForTrace(trace_hi, trace_lo);
    if (events.empty()) {
      return ErrorResponse(404, "debug/trace: no retained spans for " +
                                    trace_id +
                                    " (dropped, or not tail-sampled)");
    }
    HttpResponse response;
    response.body = obs::ChromeTraceJson(events);
    response.SetHeader("content-type", "application/json");
    return response;
  });

  // Per-channel live-ingest accounting. This is the cardinality-safe
  // home for per-channel detail: the /metrics histograms stay unlabeled
  // while operators (and the flash-crowd loadgen SLO gate) read exact
  // per-channel queues and staleness here.
  router.Handle("GET", "/debug/channels", [server](const HttpRequest&) {
    const auto channels = server->ChannelsSnapshot();
    std::string body = "{\"channels\":[";
    for (size_t i = 0; i < channels.size(); ++i) {
      const auto& channel = channels[i];
      body += i == 0 ? "{\"video_id\":" : ",{\"video_id\":";
      common::AppendJsonString(channel.video_id, body);
      body += ",\"queued_messages\":";
      common::AppendJsonNumber(channel.queued_messages, body);
      body += ",\"admitted_messages\":";
      common::AppendJsonNumber(channel.admitted_messages, body);
      body += ",\"throttled_batches\":";
      common::AppendJsonNumber(channel.throttled_batches, body);
      body += ",\"rejected_messages\":";
      common::AppendJsonNumber(channel.rejected_messages, body);
      body += ",\"publishes\":";
      common::AppendJsonNumber(channel.publishes, body);
      body += ",\"last_staleness_seconds\":";
      common::AppendJsonNumber(channel.last_staleness_seconds, body);
      body += ",\"max_staleness_seconds\":";
      common::AppendJsonNumber(channel.max_staleness_seconds, body);
      body += channel.closed ? ",\"closed\":true}" : ",\"closed\":false}";
    }
    body += "]}";
    return JsonResponse(200, std::move(body));
  });

  return router;
}

}  // namespace lightor::net
