// Minimal JSON parsing — the read-side companion of JsonWriter.
//
// A JsonValue is a small recursive variant: null, bool, double, string,
// array, object. Objects preserve key order (they are pair vectors, not
// maps) so parse -> re-serialize round-trips stay deterministic, and the
// parser is strict: trailing characters, malformed escapes or numbers,
// and nesting past kJsonMaxDepth throw IoError with the byte offset of
// the offence.
//
// This powers the JSONL trace reader (obs/trace_reader) and the campaign
// job-spec API (exp/job_spec). It is deliberately not a DOM library —
// just enough structure to interpret documents this repo itself writes,
// plus the strict validation a service endpoint needs.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace dds {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// One parsed JSON value. Arrays and objects are shared_ptrs so the
/// variant stays complete (and values stay cheap to copy).
struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  [[nodiscard]] bool isNull() const {
    return std::holds_alternative<std::nullptr_t>(v);
  }
  [[nodiscard]] const bool* asBool() const { return std::get_if<bool>(&v); }
  [[nodiscard]] const double* asNumber() const {
    return std::get_if<double>(&v);
  }
  [[nodiscard]] const std::string* asString() const {
    return std::get_if<std::string>(&v);
  }
  [[nodiscard]] const JsonArray* asArray() const {
    const auto* p = std::get_if<std::shared_ptr<JsonArray>>(&v);
    return p == nullptr ? nullptr : p->get();
  }
  [[nodiscard]] const JsonObject* asObject() const {
    const auto* p = std::get_if<std::shared_ptr<JsonObject>>(&v);
    return p == nullptr ? nullptr : p->get();
  }
};

/// First value of `key` in an object, or nullptr when absent.
[[nodiscard]] const JsonValue* jsonFind(const JsonObject& obj,
                                        const std::string& key);

/// Parse one complete JSON document; throws IoError on any syntax error,
/// trailing input, or containers nested deeper than kJsonMaxDepth
/// (json.hpp) — the parser recurses per level, so the cap is what keeps
/// hostile input from exhausting the stack.
[[nodiscard]] JsonValue parseJson(const std::string& text);

}  // namespace dds
