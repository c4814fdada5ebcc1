#ifndef SKINNER_COMMON_STR_UTIL_H_
#define SKINNER_COMMON_STR_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace skinner {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-casing (SQL keywords / identifiers are case-insensitive).
std::string ToLower(std::string_view s);

/// ASCII upper-casing.
std::string ToUpper(std::string_view s);

/// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// True if `s` starts with `prefix` (case sensitive).
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses all of `s` as a base-10 int64. A value outside int64 is a
/// ParseError naming `s`, never a silent clamp to the nearest bound.
Result<int64_t> ParseInt64(const std::string& s);

/// Parses all of `s` as a double. Overflow to +-HUGE_VAL is a ParseError
/// naming `s`; underflow (a magnitude too small to represent, rounded
/// toward zero) is accepted.
Result<double> ParseDouble(const std::string& s);

/// SQL LIKE pattern matching with % and _ wildcards.
bool LikeMatch(std::string_view value, std::string_view pattern);

}  // namespace skinner

#endif  // SKINNER_COMMON_STR_UTIL_H_
