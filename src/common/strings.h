#ifndef LIGHTOR_COMMON_STRINGS_H_
#define LIGHTOR_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace lightor::common {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits `s` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats a double with `precision` decimals (fixed notation).
std::string FormatDouble(double x, int precision = 3);

/// Renders seconds as "h:mm:ss".
std::string FormatTimestamp(double seconds);

/// Appends `s` as a double-quoted JSON string literal: `"` and `\` are
/// backslash-escaped, \n \r \t \b \f use their short escapes, any other
/// byte below 0x20 becomes \u00XX, and UTF-8 passes through unchanged.
/// The one JSON string escaper of the codebase.
void AppendJsonString(std::string_view s, std::string& out);

/// Appends `v` as a JSON number: integral values within int64 range
/// print exactly ("%lld", so ids and counts round-trip), everything else
/// with enough digits to round-trip a double ("%.17g"). `v` must be
/// finite.
void AppendJsonNumber(double v, std::string& out);

}  // namespace lightor::common

#endif  // LIGHTOR_COMMON_STRINGS_H_
