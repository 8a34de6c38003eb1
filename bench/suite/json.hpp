#pragma once

// Minimal JSON reader and writer helpers for the suite's own files:
// BENCHMARK.json, the JSON-lines results files, and the trace it writes.
// Enough JSON for those inputs, with no new dependency.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paralagg::suite {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  // in document order

  /// Member of an object, or null when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] bool is(Type t) const { return type == t; }
};

/// Parse one JSON document; throws std::runtime_error with the byte offset
/// on malformed input or trailing garbage.
Json parse_json(std::string_view text);

/// `s` as a quoted JSON string.
std::string json_quote(std::string_view s);

/// A finite number with all its significant digits ("null" if not finite).
std::string json_number(double v);

/// Whole file contents; throws std::runtime_error if unreadable.
std::string read_file(const std::string& path);

}  // namespace paralagg::suite
