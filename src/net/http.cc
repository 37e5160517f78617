#include "net/http.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace lightor::net {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

template <typename List>
auto* FindIn(const List& headers, std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (EqualsIgnoreCase(k, name)) return &v;
  }
  return static_cast<decltype(&headers.front().second)>(nullptr);
}

/// Parses the `name: value` lines of `head` (which excludes the start
/// line and the final blank line). Names are lowercased. Returns false
/// with `error` set on any malformed line.
bool ParseHeaderLines(std::string_view head, HeaderList& out,
                      std::string& error) {
  size_t pos = 0;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    if (line.front() == ' ' || line.front() == '\t') {
      error = "obsolete header line folding";
      return false;
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      error = "malformed header line";
      return false;
    }
    const std::string_view name = line.substr(0, colon);
    // RFC 7230: no whitespace between field name and colon.
    if (name.back() == ' ' || name.back() == '\t') {
      error = "whitespace before header colon";
      return false;
    }
    out.emplace_back(ToLower(name), std::string(TrimOws(line.substr(colon + 1))));
  }
  return true;
}

/// Strict all-digit Content-Length parse. Returns false on non-numeric
/// input; `overflow` when the value is numeric but exceeds `cap` (or
/// uint64) — the caller maps that to 413 rather than 400.
bool ParseContentLength(std::string_view value, size_t cap, size_t* out,
                        bool* overflow) {
  *overflow = false;
  if (value.empty()) return false;
  uint64_t n = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    if (n > (UINT64_MAX - 9) / 10) {
      *overflow = true;
      return true;
    }
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  if (n > cap) {
    *overflow = true;
    return true;
  }
  *out = static_cast<size_t>(n);
  return true;
}

}  // namespace

const std::string_view* HttpRequest::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

std::string HttpRequest::QueryParam(std::string_view key) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      if (pair == key) return "";
    } else if (pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
  }
  return "";
}

bool HttpRequest::keep_alive() const {
  const std::string_view* connection = FindHeader("connection");
  if (connection != nullptr) {
    if (EqualsIgnoreCase(*connection, "close")) return false;
    if (EqualsIgnoreCase(*connection, "keep-alive")) return true;
  }
  return version_minor >= 1;
}

void HttpResponse::SetHeader(std::string name, std::string value) {
  std::string lower = ToLower(name);
  for (auto& [k, v] : headers) {
    if (k == lower) {
      v = std::move(value);
      return;
    }
  }
  headers.emplace_back(std::move(lower), std::move(value));
}

const std::string* HttpResponse::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

std::string HttpResponse::Serialize(bool keep_alive) const {
  std::string out;
  out.reserve(128 + body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += StatusReason(status);
  out += "\r\n";
  for (const auto& [k, v] : headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "content-length: " + std::to_string(body.size()) + "\r\n";
  out += keep_alive ? "connection: keep-alive\r\n" : "connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.SetHeader("content-type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse ErrorResponse(int status, std::string_view message) {
  std::string body = "{\"error\":";
  common::AppendJsonString(message, body);
  body += "}";
  return JsonResponse(status, std::move(body));
}

std::string_view StatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return status >= 200 && status < 300 ? "OK" : "Error";
  }
}

RequestParser::State RequestParser::Fail(int status, std::string message) {
  failed_ = true;
  error_status_ = status;
  error_ = std::move(message);
  return State::kError;
}

void RequestParser::MaybeCompact() {
  // Never move bytes while a parsed head's offsets are in flight. Outside
  // that window the consumed prefix is dropped in one go — usually the
  // tail is empty (no pipelining) and the erase is a plain size reset, so
  // the per-request memmove the old parser paid is gone entirely.
  if (!have_head_ && pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
}

void RequestParser::Append(std::string_view bytes) {
  MaybeCompact();
  buffer_.append(bytes.data(), bytes.size());
}

RequestParser::State RequestParser::Parse() {
  if (failed_) return State::kError;
  MaybeCompact();

  if (!have_head_) {
    const size_t head_end = buffer_.find("\r\n\r\n", pos_);
    if (head_end == std::string::npos) {
      if (buffer_.size() - pos_ > limits_.max_header_bytes) {
        return Fail(431, "header block exceeds " +
                             std::to_string(limits_.max_header_bytes) +
                             " bytes");
      }
      return State::kNeedMore;
    }
    const size_t head_len = head_end + 4 - pos_;
    if (head_len > limits_.max_header_bytes) {
      return Fail(431, "header block exceeds " +
                           std::to_string(limits_.max_header_bytes) +
                           " bytes");
    }

    const std::string_view head(buffer_.data() + pos_, head_end - pos_);
    const size_t line_end = head.find("\r\n");
    const std::string_view start_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);

    // METHOD SP request-target SP HTTP-version
    const size_t sp1 = start_line.find(' ');
    const size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : start_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        start_line.find(' ', sp2 + 1) != std::string_view::npos) {
      return Fail(400, "malformed request line");
    }
    const std::string_view method = start_line.substr(0, sp1);
    const std::string_view target = start_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string_view version = start_line.substr(sp2 + 1);
    if (method.empty() || target.empty() || target.front() != '/') {
      return Fail(400, "malformed request line");
    }
    for (const char c : method) {
      if (c < 'A' || c > 'Z') return Fail(400, "malformed method");
    }
    if (version == "HTTP/1.1") {
      version_minor_ = 1;
    } else if (version == "HTTP/1.0") {
      version_minor_ = 0;
    } else {
      return Fail(505, "unsupported HTTP version");
    }
    // Field positions are staged as buffer offsets (the body may still be
    // in flight and later Appends may reallocate); views materialize once
    // the whole request is present.
    const auto range_of = [&](std::string_view part) {
      return Range{static_cast<uint32_t>(part.data() - buffer_.data()),
                   static_cast<uint32_t>(part.size())};
    };
    method_r_ = range_of(method);
    target_r_ = range_of(target);
    const size_t qmark = target.find('?');
    if (qmark == std::string_view::npos) {
      path_r_ = range_of(target);
      query_r_ = Range{};
    } else {
      path_r_ = range_of(target.substr(0, qmark));
      query_r_ = range_of(target.substr(qmark + 1));
    }

    // `name: value` header lines. Names are lowercased in place in the
    // buffer (offsets don't move), values are OWS-trimmed ranges.
    header_ranges_.clear();
    std::string_view header_lines =
        line_end == std::string_view::npos ? std::string_view()
                                           : head.substr(line_end + 2);
    size_t lpos = 0;
    while (lpos < header_lines.size()) {
      size_t eol = header_lines.find("\r\n", lpos);
      if (eol == std::string_view::npos) eol = header_lines.size();
      const std::string_view line = header_lines.substr(lpos, eol - lpos);
      lpos = eol + 2;
      if (line.empty()) continue;
      if (line.front() == ' ' || line.front() == '\t') {
        return Fail(400, "obsolete header line folding");
      }
      const size_t colon = line.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return Fail(400, "malformed header line");
      }
      const std::string_view name = line.substr(0, colon);
      // RFC 7230: no whitespace between field name and colon.
      if (name.back() == ' ' || name.back() == '\t') {
        return Fail(400, "whitespace before header colon");
      }
      const Range name_r = range_of(name);
      char* p = buffer_.data() + name_r.off;
      for (uint32_t i = 0; i < name_r.len; ++i) {
        p[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(p[i])));
      }
      header_ranges_.emplace_back(name_r, range_of(TrimOws(line.substr(colon + 1))));
    }

    for (const auto& kv : header_ranges_) {
      if (ViewOf(kv.first) == "transfer-encoding") {
        return Fail(501, "transfer-encoding is not supported");
      }
    }
    content_length_ = 0;
    bool have_length = false;
    Range first_length{};
    for (const auto& [k, v] : header_ranges_) {
      if (ViewOf(k) != "content-length") continue;
      if (have_length && ViewOf(first_length) != ViewOf(v)) {
        return Fail(400, "conflicting content-length headers");
      }
      first_length = v;
      have_length = true;
    }
    if (have_length) {
      bool overflow = false;
      if (!ParseContentLength(ViewOf(first_length), limits_.max_body_bytes,
                              &content_length_, &overflow)) {
        return Fail(400, "malformed content-length");
      }
      if (overflow) {
        return Fail(413, "declared body exceeds " +
                             std::to_string(limits_.max_body_bytes) +
                             " bytes");
      }
    }

    pos_ += head_len;
    have_head_ = true;
    pending_request_bytes_ = head_len;
  }

  if (buffer_.size() - pos_ < content_length_) return State::kNeedMore;
  request_.method = ViewOf(method_r_);
  request_.target = ViewOf(target_r_);
  request_.path = ViewOf(path_r_);
  request_.query = ViewOf(query_r_);
  request_.version_minor = version_minor_;
  request_.headers.clear();
  for (const auto& [k, v] : header_ranges_) {
    request_.headers.emplace_back(ViewOf(k), ViewOf(v));
  }
  request_.body = std::string_view(buffer_.data() + pos_, content_length_);
  pos_ += content_length_;
  have_head_ = false;
  last_request_bytes_ = pending_request_bytes_ + content_length_;
  pending_request_bytes_ = 0;
  content_length_ = 0;
  return State::kReady;
}

ResponseParser::State ResponseParser::Fail(std::string message) {
  failed_ = true;
  error_ = std::move(message);
  return State::kError;
}

ResponseParser::State ResponseParser::Parse() {
  if (failed_) return State::kError;

  if (!have_head_) {
    const size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) return State::kNeedMore;
    const size_t head_len = head_end + 4;

    response_ = HttpResponse{};
    const std::string_view head(buffer_.data(), head_end);
    const size_t line_end = head.find("\r\n");
    const std::string_view status_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);

    // HTTP-version SP status-code SP reason-phrase
    if (status_line.substr(0, 7) != "HTTP/1.") {
      return Fail("malformed status line");
    }
    const size_t sp1 = status_line.find(' ');
    if (sp1 == std::string_view::npos || sp1 + 4 > status_line.size()) {
      return Fail("malformed status line");
    }
    int code = 0;
    for (size_t i = sp1 + 1; i < sp1 + 4; ++i) {
      const char c = status_line[i];
      if (c < '0' || c > '9') return Fail("malformed status code");
      code = code * 10 + (c - '0');
    }
    response_.status = code;

    const std::string_view header_lines =
        line_end == std::string_view::npos
            ? std::string_view()
            : head.substr(line_end + 2);
    std::string error;
    if (!ParseHeaderLines(header_lines, response_.headers, error)) {
      return Fail(std::move(error));
    }

    content_length_ = 0;
    have_length_ = false;
    if (const std::string* v = response_.FindHeader("content-length")) {
      bool overflow = false;
      if (!ParseContentLength(*v, SIZE_MAX / 2, &content_length_,
                              &overflow) ||
          overflow) {
        return Fail("malformed content-length");
      }
      have_length_ = true;
    }

    buffer_.erase(0, head_len);
    have_head_ = true;
  }

  if (!have_length_) return State::kNeedMore;  // body runs to EOF
  if (buffer_.size() < content_length_) return State::kNeedMore;
  response_.body = buffer_.substr(0, content_length_);
  buffer_.erase(0, content_length_);
  have_head_ = false;
  return State::kReady;
}

ResponseParser::State ResponseParser::OnEof() {
  if (failed_) return State::kError;
  if (have_head_ && !have_length_) {
    response_.body = std::move(buffer_);
    buffer_.clear();
    have_head_ = false;
    return State::kReady;
  }
  return Fail("connection closed mid-response");
}

}  // namespace lightor::net
