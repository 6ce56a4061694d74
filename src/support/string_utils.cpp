#include "support/string_utils.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>

namespace tadfa {
namespace {

/// std::isspace in the "C" locale, without the call.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

}  // namespace

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_whitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) {
      ++i;
    }
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && is_space(s[b])) {
    ++b;
  }
  std::size_t e = s.size();
  while (e > b && is_space(s[e - 1])) {
    --e;
  }
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& items,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) {
      out += separator;
    }
    out += items[i];
  }
  return out;
}

std::errc scan_int(std::string_view s, long long& out) {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) {
    ++i;
  }
  const bool negative = i < s.size() && s[i] == '-';
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    ++i;
  }
  // Unsigned, so from_chars takes no second sign.
  unsigned long long magnitude = 0;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data() + i, last, magnitude);
  if (ec == std::errc::invalid_argument || end != last) {
    return std::errc::invalid_argument;
  }
  constexpr auto kMax =
      static_cast<unsigned long long>(std::numeric_limits<long long>::max());
  if (ec != std::errc{} || magnitude > kMax + (negative ? 1 : 0)) {
    return std::errc::result_out_of_range;
  }
  if (negative) {
    magnitude = 0ull - magnitude;  // two's complement: 2^63 is INT64_MIN
  }
  out = static_cast<long long>(magnitude);
  return std::errc{};
}

bool parse_int(std::string_view s, long long& out) {
  return scan_int(s, out) == std::errc{};
}

bool parse_double(std::string_view s, double& out) {
  if (s.empty()) {
    return false;
  }
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  out = v;
  return true;
}

}  // namespace tadfa
