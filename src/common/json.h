#ifndef GENBASE_COMMON_JSON_H_
#define GENBASE_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace genbase::json {

/// \brief Minimal JSON document model, sized for this repo's own artifacts:
/// BENCH_*.json reports, TRACE_*.json span dumps and METRICS_*.json
/// snapshots are all emitted by hand-rolled printers here, and the
/// exporter round-trip tests need to read them back without growing a
/// third-party dependency. Standard JSON only —
/// no comments, no trailing commas, UTF-8 passed through uninterpreted
/// (\uXXXX escapes above ASCII are preserved verbatim as text).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /// Insertion-ordered, duplicate keys preserved (last one wins in Find).
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  /// Member `key` as a number / string, with a default when the member is
  /// absent or has the wrong type.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
};

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected). Errors carry a byte offset.
genbase::Result<Value> Parse(const std::string& text);

/// Appends `s` as the body of a JSON string (no surrounding quotes): `"`
/// and `\` are backslash-escaped, newline and tab as \n and \t, other
/// control characters as \u00XX; everything else, UTF-8 included, passes
/// through. The one escaper behind every artifact this repo writes.
void AppendEscaped(std::string* out, std::string_view s);

}  // namespace genbase::json

#endif  // GENBASE_COMMON_JSON_H_
