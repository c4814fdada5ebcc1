#include "common/str_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace skinner {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
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

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {
bool LikeMatchImpl(std::string_view v, size_t vi, std::string_view p, size_t pi) {
  while (pi < p.size()) {
    char pc = p[pi];
    if (pc == '%') {
      // Collapse consecutive %.
      while (pi < p.size() && p[pi] == '%') ++pi;
      if (pi == p.size()) return true;
      for (size_t k = vi; k <= v.size(); ++k) {
        if (LikeMatchImpl(v, k, p, pi)) return true;
      }
      return false;
    }
    if (vi >= v.size()) return false;
    if (pc != '_' && pc != v[vi]) return false;
    ++vi;
    ++pi;
  }
  return vi == v.size();
}
}  // namespace

bool LikeMatch(std::string_view value, std::string_view pattern) {
  return LikeMatchImpl(value, 0, pattern, 0);
}

Result<int64_t> ParseInt64(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::ParseError("not an integer: '" + s + "'");
  }
  if (errno == ERANGE) {
    return Status::ParseError("integer out of range: '" + s + "'");
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::ParseError("not a number: '" + s + "'");
  }
  if (errno == ERANGE && std::fabs(v) == HUGE_VAL) {
    return Status::ParseError("number out of range: '" + s + "'");
  }
  return v;
}

}  // namespace skinner
