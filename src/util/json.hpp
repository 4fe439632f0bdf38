// Minimal JSON reader for the result store and the shard-merge path.
//
// The repo's JSON has always been write-only (attack reports, bench
// records); the persistent result store and `splitlock_cli merge` need the
// other direction: parse records that may have been produced by another
// process, an older binary, or a run that died mid-write. The parser is
// therefore strict but non-throwing — any syntax error yields nullopt and
// the caller treats the input as a cache miss / corrupt shard, never a
// crash.
//
// Scope: the subset the store emits. Objects, arrays, strings (with the
// escapes JsonEscape produces, incl. \uXXXX for control characters),
// doubles via strtod, true/false/null. Numbers are stored as double —
// every integer the records carry (counts, indices, versions) is well
// under 2^53; 64-bit hashes travel as hex strings for exactness.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace splitlock::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsString() const { return type == Type::kString; }
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsBool() const { return type == Type::kBool; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;

  // Typed member accessors with defaults (missing or mistyped -> default).
  double GetNumber(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;
  std::string GetString(const std::string& key, std::string def) const;

  // Strict unsigned integer member: `def` when absent; nullopt when present
  // but not a non-negative integral number <= 2^53 (the range a double
  // holds exactly). The one reader for counts, indices and versions.
  std::optional<uint64_t> GetUint(const std::string& key, uint64_t def) const;
};

// Parses exactly one JSON document (trailing non-whitespace is an error).
// nullopt on any malformed input.
std::optional<JsonValue> ParseJson(std::string_view text);

// 64-bit value <-> fixed-width lowercase hex ("%016x"): how the store and
// shard tables carry hashes without double-precision loss.
std::string HexU64(uint64_t value);
std::optional<uint64_t> ParseHexU64(std::string_view hex);

}  // namespace splitlock::util
