#include "net/codec.h"

#include <cmath>

#include "common/strings.h"
#include "net/json_arena.h"

namespace lightor::net {

namespace {

using common::AppendJsonNumber;
using common::AppendJsonString;

common::Status FieldError(std::string_view key, std::string_view what) {
  return common::Status::InvalidArgument("codec: field \"" +
                                         std::string(key) + "\" " +
                                         std::string(what));
}

// Decoders run on the arena document (JsonDoc): field payloads stay
// string_views into the request body until the moment they are assigned
// into the decoded struct — the one materialization a message gets on its
// way from wire bytes to the engines.

common::Result<JsonDoc::Ref> Require(JsonDoc::Ref obj, std::string_view key,
                                     JsonDoc::Type type) {
  const JsonDoc::Ref field = obj.Find(key);
  if (!field) return FieldError(key, "is missing");
  if (field.type() != type) return FieldError(key, "has the wrong type");
  return field;
}

common::Result<std::string> GetString(JsonDoc::Ref obj,
                                      std::string_view key) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc::Ref field,
                           Require(obj, key, JsonDoc::Type::kString));
  return std::string(field.AsString());
}

common::Result<double> GetNumber(JsonDoc::Ref obj, std::string_view key) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc::Ref field,
                           Require(obj, key, JsonDoc::Type::kNumber));
  return field.AsNumber();
}

common::Result<bool> GetBool(JsonDoc::Ref obj, std::string_view key) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc::Ref field,
                           Require(obj, key, JsonDoc::Type::kBool));
  return field.AsBool();
}

/// Integral field: a JSON number with no fractional part.
common::Result<int64_t> GetInt(JsonDoc::Ref obj, std::string_view key) {
  LIGHTOR_ASSIGN_OR_RETURN(double v, GetNumber(obj, key));
  if (v != std::floor(v) || std::abs(v) > 9.2e18) {
    return FieldError(key, "is not an integer");
  }
  return static_cast<int64_t>(v);
}

common::Result<JsonDoc> ParseObject(std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, JsonDoc::Parse(json));
  if (!doc.root().is_object()) {
    return common::Status::InvalidArgument("codec: top-level JSON object "
                                           "expected");
  }
  return doc;
}

const char* InteractionTypeName(sim::InteractionType type) {
  switch (type) {
    case sim::InteractionType::kPlay:
      return "play";
    case sim::InteractionType::kPause:
      return "pause";
    case sim::InteractionType::kSeekForward:
      return "seek_forward";
    case sim::InteractionType::kSeekBackward:
      return "seek_backward";
  }
  return "play";
}

common::Result<sim::InteractionType> InteractionTypeFromName(
    std::string_view name) {
  if (name == "play") return sim::InteractionType::kPlay;
  if (name == "pause") return sim::InteractionType::kPause;
  if (name == "seek_forward") return sim::InteractionType::kSeekForward;
  if (name == "seek_backward") return sim::InteractionType::kSeekBackward;
  return common::Status::InvalidArgument("codec: unknown interaction type \"" +
                                         std::string(name) + "\"");
}

// Encoders append straight into the output string: each literal carries
// the separator, the key and its colon, so the bytes on the wire read
// off the source.

const char* Bool(bool v) { return v ? "true" : "false"; }

/// `"highlights":[...]` — the dot list shared by the response encoders.
void AppendHighlights(const std::vector<storage::HighlightRecord>& records,
                      std::string& out) {
  out += "\"highlights\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    const storage::HighlightRecord& rec = records[i];
    out += i == 0 ? "{\"video_id\":" : ",{\"video_id\":";
    AppendJsonString(rec.video_id, out);
    out += ",\"dot_index\":";
    AppendJsonNumber(rec.dot_index, out);
    out += ",\"dot_position\":";
    AppendJsonNumber(rec.dot_position, out);
    out += ",\"start\":";
    AppendJsonNumber(rec.start, out);
    out += ",\"end\":";
    AppendJsonNumber(rec.end, out);
    out += ",\"score\":";
    AppendJsonNumber(rec.score, out);
    out += ",\"iteration\":";
    AppendJsonNumber(rec.iteration, out);
    out += ",\"converged\":";
    out += Bool(rec.converged);
    out += '}';
  }
  out += ']';
}

/// `{"video_id":...,"messages":[...]}` — one live-chat batch, alone or
/// as an element of a batch frame.
void AppendIngestChatRequest(const serving::IngestChatRequest& v,
                             std::string& out) {
  out += "{\"video_id\":";
  AppendJsonString(v.video_id, out);
  out += ",\"messages\":[";
  for (size_t i = 0; i < v.messages.size(); ++i) {
    out += i == 0 ? "{\"timestamp\":" : ",{\"timestamp\":";
    AppendJsonNumber(v.messages[i].timestamp, out);
    out += ",\"user\":";
    AppendJsonString(v.messages[i].user, out);
    out += ",\"text\":";
    AppendJsonString(v.messages[i].text, out);
    out += '}';
  }
  out += "]}";
}

/// The ingest response fields without the closing brace, so a batch
/// entry can append its own fields to the same object.
void AppendIngestChatResponseFields(const serving::IngestChatResponse& v,
                                    std::string& out) {
  out += "{\"accepted\":";
  AppendJsonNumber(v.accepted, out);
  out += ",\"rejected\":";
  AppendJsonNumber(v.rejected, out);
  out += ",\"provisional_published\":";
  out += Bool(v.provisional_published);
  out += ",\"snapshot_version\":";
  AppendJsonNumber(v.snapshot_version, out);
  out += ",\"throttled\":";
  out += Bool(v.throttled);
  out += ",\"retry_after_seconds\":";
  AppendJsonNumber(v.retry_after_seconds, out);
}

common::Result<storage::HighlightRecord> HighlightFromJson(JsonDoc::Ref obj) {
  if (!obj.is_object()) {
    return common::Status::InvalidArgument("codec: highlight must be an "
                                           "object");
  }
  storage::HighlightRecord rec;
  LIGHTOR_ASSIGN_OR_RETURN(rec.video_id, GetString(obj, "video_id"));
  LIGHTOR_ASSIGN_OR_RETURN(int64_t index, GetInt(obj, "dot_index"));
  rec.dot_index = static_cast<int32_t>(index);
  LIGHTOR_ASSIGN_OR_RETURN(rec.dot_position, GetNumber(obj, "dot_position"));
  LIGHTOR_ASSIGN_OR_RETURN(rec.start, GetNumber(obj, "start"));
  LIGHTOR_ASSIGN_OR_RETURN(rec.end, GetNumber(obj, "end"));
  LIGHTOR_ASSIGN_OR_RETURN(rec.score, GetNumber(obj, "score"));
  LIGHTOR_ASSIGN_OR_RETURN(int64_t iteration, GetInt(obj, "iteration"));
  rec.iteration = static_cast<int32_t>(iteration);
  LIGHTOR_ASSIGN_OR_RETURN(rec.converged, GetBool(obj, "converged"));
  return rec;
}

/// Decodes one {"video_id","messages":[...]} entry on the arena doc —
/// shared by the single ingest frame and each element of a batch frame.
common::Result<serving::IngestChatRequest> IngestChatRequestFromJson(
    JsonDoc::Ref obj) {
  serving::IngestChatRequest req;
  LIGHTOR_ASSIGN_OR_RETURN(req.video_id, GetString(obj, "video_id"));
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc::Ref messages,
                           Require(obj, "messages", JsonDoc::Type::kArray));
  req.messages.reserve(messages.size());
  for (JsonDoc::Ref item = messages.first_child(); item;
       item = item.next_sibling()) {
    if (!item.is_object()) {
      return FieldError("messages", "holds a non-object");
    }
    // The one materialization on the ingest path: wire bytes flow as
    // views through parser and doc, and become owned strings only here,
    // directly inside the core::Message handed to the engines.
    core::Message message;
    LIGHTOR_ASSIGN_OR_RETURN(message.timestamp, GetNumber(item, "timestamp"));
    LIGHTOR_ASSIGN_OR_RETURN(message.user, GetString(item, "user"));
    LIGHTOR_ASSIGN_OR_RETURN(message.text, GetString(item, "text"));
    req.messages.push_back(std::move(message));
  }
  return req;
}

common::Result<std::vector<storage::HighlightRecord>> HighlightsFromJson(
    JsonDoc::Ref obj) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc::Ref arr,
                           Require(obj, "highlights", JsonDoc::Type::kArray));
  std::vector<storage::HighlightRecord> records;
  records.reserve(arr.size());
  for (JsonDoc::Ref item = arr.first_child(); item;
       item = item.next_sibling()) {
    LIGHTOR_ASSIGN_OR_RETURN(storage::HighlightRecord rec,
                             HighlightFromJson(item));
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace

std::string EncodeJson(const serving::PageVisitRequest& v) {
  std::string out = "{\"video_id\":";
  AppendJsonString(v.video_id, out);
  if (!v.user.empty()) {
    out += ",\"user\":";
    AppendJsonString(v.user, out);
  }
  out += '}';
  return out;
}

common::Result<serving::PageVisitRequest> DecodePageVisitRequest(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  const JsonDoc::Ref obj = doc.root();
  serving::PageVisitRequest req;
  LIGHTOR_ASSIGN_OR_RETURN(req.video_id, GetString(obj, "video_id"));
  if (const JsonDoc::Ref user = obj.Find("user")) {
    if (!user.is_string()) return FieldError("user", "has the wrong type");
    req.user = std::string(user.AsString());
  }
  return req;
}

std::string EncodeJson(const serving::PageVisitResponse& v) {
  std::string out = "{";
  AppendHighlights(v.highlights, out);
  out += ",\"first_visit\":";
  out += Bool(v.first_visit);
  out += ",\"snapshot_version\":";
  AppendJsonNumber(v.snapshot_version, out);
  out += ",\"provisional\":";
  out += Bool(v.provisional);
  out += '}';
  return out;
}

common::Result<serving::PageVisitResponse> DecodePageVisitResponse(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  const JsonDoc::Ref obj = doc.root();
  serving::PageVisitResponse resp;
  LIGHTOR_ASSIGN_OR_RETURN(resp.highlights, HighlightsFromJson(obj));
  LIGHTOR_ASSIGN_OR_RETURN(resp.first_visit, GetBool(obj, "first_visit"));
  LIGHTOR_ASSIGN_OR_RETURN(int64_t version,
                           GetInt(obj, "snapshot_version"));
  resp.snapshot_version = static_cast<uint64_t>(version);
  LIGHTOR_ASSIGN_OR_RETURN(resp.provisional, GetBool(obj, "provisional"));
  return resp;
}

std::string EncodeJson(const serving::LogSessionRequest& v) {
  std::string out = "{\"video_id\":";
  AppendJsonString(v.video_id, out);
  out += ",\"user\":";
  AppendJsonString(v.user, out);
  out += ",\"session_id\":";
  AppendJsonNumber(v.session_id, out);
  out += ",\"events\":[";
  for (size_t i = 0; i < v.events.size(); ++i) {
    out += i == 0 ? "{\"wall_time\":" : ",{\"wall_time\":";
    AppendJsonNumber(v.events[i].wall_time, out);
    out += ",\"type\":";
    AppendJsonString(InteractionTypeName(v.events[i].type), out);
    out += ",\"position\":";
    AppendJsonNumber(v.events[i].position, out);
    out += ",\"target\":";
    AppendJsonNumber(v.events[i].target, out);
    out += '}';
  }
  out += "]}";
  return out;
}

common::Result<serving::LogSessionRequest> DecodeLogSessionRequest(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  const JsonDoc::Ref obj = doc.root();
  serving::LogSessionRequest req;
  LIGHTOR_ASSIGN_OR_RETURN(req.video_id, GetString(obj, "video_id"));
  LIGHTOR_ASSIGN_OR_RETURN(req.user, GetString(obj, "user"));
  LIGHTOR_ASSIGN_OR_RETURN(int64_t session_id, GetInt(obj, "session_id"));
  if (session_id < 0) return FieldError("session_id", "is negative");
  req.session_id = static_cast<uint64_t>(session_id);
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc::Ref events,
                           Require(obj, "events", JsonDoc::Type::kArray));
  req.events.reserve(events.size());
  for (JsonDoc::Ref item = events.first_child(); item;
       item = item.next_sibling()) {
    if (!item.is_object()) return FieldError("events", "holds a non-object");
    sim::InteractionEvent event;
    LIGHTOR_ASSIGN_OR_RETURN(event.wall_time, GetNumber(item, "wall_time"));
    LIGHTOR_ASSIGN_OR_RETURN(JsonDoc::Ref type,
                             Require(item, "type", JsonDoc::Type::kString));
    LIGHTOR_ASSIGN_OR_RETURN(event.type,
                             InteractionTypeFromName(type.AsString()));
    LIGHTOR_ASSIGN_OR_RETURN(event.position, GetNumber(item, "position"));
    LIGHTOR_ASSIGN_OR_RETURN(event.target, GetNumber(item, "target"));
    req.events.push_back(event);
  }
  return req;
}

std::string EncodeJson(const serving::IngestChatRequest& v) {
  std::string out;
  AppendIngestChatRequest(v, out);
  return out;
}

common::Result<serving::IngestChatRequest> DecodeIngestChatRequest(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  return IngestChatRequestFromJson(doc.root());
}

namespace {

common::Result<serving::IngestChatResponse> IngestChatResponseFromJson(
    JsonDoc::Ref obj) {
  serving::IngestChatResponse resp;
  LIGHTOR_ASSIGN_OR_RETURN(int64_t accepted, GetInt(obj, "accepted"));
  resp.accepted = static_cast<size_t>(accepted);
  LIGHTOR_ASSIGN_OR_RETURN(int64_t rejected, GetInt(obj, "rejected"));
  resp.rejected = static_cast<size_t>(rejected);
  LIGHTOR_ASSIGN_OR_RETURN(resp.provisional_published,
                           GetBool(obj, "provisional_published"));
  LIGHTOR_ASSIGN_OR_RETURN(int64_t version,
                           GetInt(obj, "snapshot_version"));
  resp.snapshot_version = static_cast<uint64_t>(version);
  // Optional for wire compatibility with pre-admission servers.
  if (const JsonDoc::Ref throttled = obj.Find("throttled")) {
    if (!throttled.is_bool()) {
      return FieldError("throttled", "has the wrong type");
    }
    resp.throttled = throttled.AsBool();
  }
  if (const JsonDoc::Ref retry = obj.Find("retry_after_seconds")) {
    if (!retry.is_number()) {
      return FieldError("retry_after_seconds", "has the wrong type");
    }
    resp.retry_after_seconds = retry.AsNumber();
  }
  return resp;
}

}  // namespace

std::string EncodeJson(const serving::IngestChatResponse& v) {
  std::string out;
  AppendIngestChatResponseFields(v, out);
  out += '}';
  return out;
}

common::Result<serving::IngestChatResponse> DecodeIngestChatResponse(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  return IngestChatResponseFromJson(doc.root());
}

std::string EncodeIngestBatchRequest(
    const std::vector<serving::IngestChatRequest>& batches) {
  std::string out = "[";
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i > 0) out += ',';
    AppendIngestChatRequest(batches[i], out);
  }
  out += ']';
  return out;
}

common::Result<std::vector<serving::IngestChatRequest>>
DecodeIngestBatchRequest(std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, JsonDoc::Parse(json));
  if (!doc.root().is_array()) {
    return common::Status::InvalidArgument(
        "codec: batch ingest frame must be a top-level JSON array");
  }
  std::vector<serving::IngestChatRequest> batches;
  batches.reserve(doc.root().size());
  for (JsonDoc::Ref item = doc.root().first_child(); item;
       item = item.next_sibling()) {
    if (!item.is_object()) {
      return common::Status::InvalidArgument(
          "codec: batch ingest frame holds a non-object entry");
    }
    LIGHTOR_ASSIGN_OR_RETURN(serving::IngestChatRequest req,
                             IngestChatRequestFromJson(item));
    batches.push_back(std::move(req));
  }
  return batches;
}

std::string EncodeIngestBatchResponse(
    const std::vector<IngestBatchEntry>& entries) {
  std::string out = "{\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const IngestBatchEntry& entry = entries[i];
    if (i > 0) out += ',';
    // Admitted and throttled entries carry the full ingest response;
    // every entry then appends its own id and status.
    if (entry.status == 200 || entry.status == 429) {
      AppendIngestChatResponseFields(entry.response, out);
      out += ",\"video_id\":";
    } else {
      out += "{\"video_id\":";
    }
    AppendJsonString(entry.video_id, out);
    out += ",\"status\":";
    AppendJsonNumber(entry.status, out);
    if (!entry.error.empty()) {
      out += ",\"error\":";
      AppendJsonString(entry.error, out);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

common::Result<std::vector<IngestBatchEntry>> DecodeIngestBatchResponse(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  LIGHTOR_ASSIGN_OR_RETURN(
      JsonDoc::Ref arr,
      Require(doc.root(), "entries", JsonDoc::Type::kArray));
  std::vector<IngestBatchEntry> entries;
  entries.reserve(arr.size());
  for (JsonDoc::Ref item = arr.first_child(); item;
       item = item.next_sibling()) {
    if (!item.is_object()) {
      return FieldError("entries", "holds a non-object");
    }
    IngestBatchEntry entry;
    LIGHTOR_ASSIGN_OR_RETURN(entry.video_id, GetString(item, "video_id"));
    LIGHTOR_ASSIGN_OR_RETURN(int64_t status, GetInt(item, "status"));
    entry.status = static_cast<int>(status);
    if (const JsonDoc::Ref error = item.Find("error")) {
      if (!error.is_string()) return FieldError("error", "has the wrong type");
      entry.error = std::string(error.AsString());
    }
    if (entry.status == 200 || entry.status == 429) {
      LIGHTOR_ASSIGN_OR_RETURN(entry.response,
                               IngestChatResponseFromJson(item));
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string EncodeJson(const serving::FinalizeStreamRequest& v) {
  std::string out = "{\"video_id\":";
  AppendJsonString(v.video_id, out);
  if (v.video_length > 0.0) {
    out += ",\"video_length\":";
    AppendJsonNumber(v.video_length, out);
  }
  out += '}';
  return out;
}

common::Result<serving::FinalizeStreamRequest> DecodeFinalizeStreamRequest(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  const JsonDoc::Ref obj = doc.root();
  serving::FinalizeStreamRequest req;
  LIGHTOR_ASSIGN_OR_RETURN(req.video_id, GetString(obj, "video_id"));
  if (const JsonDoc::Ref length = obj.Find("video_length")) {
    if (!length.is_number()) {
      return FieldError("video_length", "has the wrong type");
    }
    req.video_length = length.AsNumber();
  }
  return req;
}

std::string EncodeJson(const serving::FinalizeStreamResponse& v) {
  std::string out = "{";
  AppendHighlights(v.highlights, out);
  out += ",\"snapshot_version\":";
  AppendJsonNumber(v.snapshot_version, out);
  out += ",\"video_length\":";
  AppendJsonNumber(v.video_length, out);
  out += '}';
  return out;
}

common::Result<serving::FinalizeStreamResponse> DecodeFinalizeStreamResponse(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  const JsonDoc::Ref obj = doc.root();
  serving::FinalizeStreamResponse resp;
  LIGHTOR_ASSIGN_OR_RETURN(resp.highlights, HighlightsFromJson(obj));
  LIGHTOR_ASSIGN_OR_RETURN(int64_t version,
                           GetInt(obj, "snapshot_version"));
  resp.snapshot_version = static_cast<uint64_t>(version);
  LIGHTOR_ASSIGN_OR_RETURN(resp.video_length,
                           GetNumber(obj, "video_length"));
  return resp;
}

std::string EncodeJson(const serving::GetHighlightsResponse& v) {
  std::string out = "{";
  AppendHighlights(v.highlights, out);
  out += ",\"snapshot_version\":";
  AppendJsonNumber(v.snapshot_version, out);
  out += ",\"provisional\":";
  out += Bool(v.provisional);
  out += '}';
  return out;
}

common::Result<serving::GetHighlightsResponse> DecodeGetHighlightsResponse(
    std::string_view json) {
  LIGHTOR_ASSIGN_OR_RETURN(JsonDoc doc, ParseObject(json));
  const JsonDoc::Ref obj = doc.root();
  serving::GetHighlightsResponse resp;
  LIGHTOR_ASSIGN_OR_RETURN(resp.highlights, HighlightsFromJson(obj));
  LIGHTOR_ASSIGN_OR_RETURN(int64_t version,
                           GetInt(obj, "snapshot_version"));
  resp.snapshot_version = static_cast<uint64_t>(version);
  LIGHTOR_ASSIGN_OR_RETURN(resp.provisional, GetBool(obj, "provisional"));
  return resp;
}

std::string EncodeJson(const serving::RefineReport& v) {
  std::string out = "{\"video_id\":";
  AppendJsonString(v.video_id, out);
  out += ",\"dots_updated\":";
  AppendJsonNumber(v.dots_updated, out);
  out += ",\"sessions_consumed\":";
  AppendJsonNumber(v.sessions_consumed, out);
  out += ",\"dots\":[";
  for (size_t i = 0; i < v.dots.size(); ++i) {
    const serving::DotRefineOutcome& dot = v.dots[i];
    out += i == 0 ? "{\"dot_index\":" : ",{\"dot_index\":";
    AppendJsonNumber(dot.dot_index, out);
    out += ",\"updated\":";
    out += Bool(dot.updated);
    out += dot.type == core::DotType::kTypeI ? ",\"type\":\"I\""
                                             : ",\"type\":\"II\"";
    out += ",\"enough_plays\":";
    out += Bool(dot.enough_plays);
    out += ",\"plays_used\":";
    AppendJsonNumber(dot.plays_used, out);
    out += ",\"old_position\":";
    AppendJsonNumber(dot.old_position, out);
    out += ",\"new_position\":";
    AppendJsonNumber(dot.new_position, out);
    out += ",\"converged\":";
    out += Bool(dot.converged);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace lightor::net
