#include "common/strings.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace lightor::common {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (true) {
    const size_t pos = s.find(delim, begin);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(begin));
      break;
    }
    out.emplace_back(s.substr(begin, pos - begin));
    begin = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t begin = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > begin) out.emplace_back(s.substr(begin, i - begin));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string FormatDouble(double x, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, x);
  return buf;
}

std::string FormatTimestamp(double seconds) {
  const long total = std::lround(std::max(0.0, seconds));
  const long h = total / 3600;
  const long m = (total % 3600) / 60;
  const long s = total % 60;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%ld:%02ld:%02ld", h, m, s);
  return buf;
}

void AppendJsonString(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendJsonNumber(double v, std::string& out) {
  char buf[32];
  if (v == std::floor(v) && std::abs(v) < 9.2e18) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

}  // namespace lightor::common
