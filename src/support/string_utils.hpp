// Small string helpers shared by the IR text parser and the harnesses.
#pragma once

#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace tadfa {

/// Splits on a delimiter character; empty fields are kept.
std::vector<std::string> split(std::string_view s, char delim);

/// Splits on runs of whitespace; empty fields are dropped.
std::vector<std::string> split_whitespace(std::string_view s);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view separator);

/// Reads a signed 64-bit decimal as strtoll does (leading white space and
/// one sign allowed), with nothing after it. Returns std::errc{} with `out`
/// set, invalid_argument when `s` is no such number, and
/// result_out_of_range when it is one that does not fit.
std::errc scan_int(std::string_view s, long long& out);

/// Parses a signed 64-bit integer; returns false on any trailing garbage
/// and on a value out of range.
bool parse_int(std::string_view s, long long& out);

/// Parses a double; returns false on any trailing garbage.
bool parse_double(std::string_view s, double& out);

}  // namespace tadfa
