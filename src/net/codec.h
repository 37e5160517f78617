#ifndef LIGHTOR_NET_CODEC_H_
#define LIGHTOR_NET_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "serving/api.h"

namespace lightor::net {

/// JSON wire codec for the serving API (serving/api.h). One canonical
/// field order per type, so two servers serving the same state produce
/// byte-identical bodies — the loadgen differential check relies on it.
///
/// Decoders are strict about what matters on a public wire: malformed
/// JSON, a missing required field, or a field of the wrong type is an
/// InvalidArgument (the HTTP layer maps it to 400). Unknown fields are
/// ignored so old servers tolerate newer clients.
///
/// Wire schema (all bodies `application/json`):
///   PageVisitRequest      {"video_id","user"?}
///   PageVisitResponse     {"highlights":[Highlight],"first_visit",
///                          "snapshot_version","provisional"}
///   LogSessionRequest     {"video_id","user","session_id",
///                          "events":[{"wall_time","type","position",
///                                     "target"}]}
///   IngestChatRequest     {"video_id","messages":[{"timestamp","user",
///                                                  "text"}]}
///   IngestChatResponse    {"accepted","rejected","provisional_published",
///                          "snapshot_version","throttled",
///                          "retry_after_seconds"}
///   IngestBatchRequest    [IngestChatRequest, ...]   (chunked frame: one
///                          POST /ingest carrying many channels; the
///                          route sniffs `[` vs `{`)
///   IngestBatchResponse   {"entries":[IngestChatResponse + {"video_id",
///                          "status","error"?}]}  (per-entry HTTP-style
///                          status: 200, 429 throttled, 409 recorded)
///   FinalizeStreamRequest {"video_id","video_length"?}
///   FinalizeStreamResponse{"highlights":[Highlight],"snapshot_version",
///                          "video_length"}
///   GetHighlightsResponse {"highlights":[Highlight],"snapshot_version",
///                          "provisional"}
///   RefineReport          {"video_id","dots_updated","sessions_consumed",
///                          "dots":[{"dot_index","updated","type",
///                                   "enough_plays","plays_used",
///                                   "old_position","new_position",
///                                   "converged"}]}
///   Highlight             {"video_id","dot_index","dot_position",
///                          "start","end","score","iteration","converged"}
///   event "type" strings: "play","pause","seek_forward","seek_backward"

std::string EncodeJson(const serving::PageVisitRequest& v);
std::string EncodeJson(const serving::PageVisitResponse& v);
std::string EncodeJson(const serving::LogSessionRequest& v);
std::string EncodeJson(const serving::IngestChatRequest& v);
std::string EncodeJson(const serving::IngestChatResponse& v);
std::string EncodeJson(const serving::FinalizeStreamRequest& v);
std::string EncodeJson(const serving::FinalizeStreamResponse& v);
std::string EncodeJson(const serving::GetHighlightsResponse& v);
std::string EncodeJson(const serving::RefineReport& v);

common::Result<serving::PageVisitRequest> DecodePageVisitRequest(
    std::string_view json);
common::Result<serving::PageVisitResponse> DecodePageVisitResponse(
    std::string_view json);
common::Result<serving::LogSessionRequest> DecodeLogSessionRequest(
    std::string_view json);
common::Result<serving::IngestChatRequest> DecodeIngestChatRequest(
    std::string_view json);
common::Result<serving::IngestChatResponse> DecodeIngestChatResponse(
    std::string_view json);
common::Result<serving::FinalizeStreamRequest> DecodeFinalizeStreamRequest(
    std::string_view json);
common::Result<serving::FinalizeStreamResponse> DecodeFinalizeStreamResponse(
    std::string_view json);
common::Result<serving::GetHighlightsResponse> DecodeGetHighlightsResponse(
    std::string_view json);

/// One channel's outcome inside a batch ingest frame. `status` follows
/// the single-frame HTTP mapping (200 applied, 429 throttled, 409
/// recorded video, ...); `response` is meaningful for 200/429 and
/// `error` carries the status message otherwise.
struct IngestBatchEntry {
  std::string video_id;
  int status = 200;
  std::string error;
  serving::IngestChatResponse response;
};

std::string EncodeIngestBatchRequest(
    const std::vector<serving::IngestChatRequest>& batches);
common::Result<std::vector<serving::IngestChatRequest>>
DecodeIngestBatchRequest(std::string_view json);
std::string EncodeIngestBatchResponse(
    const std::vector<IngestBatchEntry>& entries);
common::Result<std::vector<IngestBatchEntry>> DecodeIngestBatchResponse(
    std::string_view json);

}  // namespace lightor::net

#endif  // LIGHTOR_NET_CODEC_H_
