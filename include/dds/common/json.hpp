// Minimal JSON emission for benchmark/campaign result export.
//
// Not a parser and not a DOM — a forward-only writer that produces
// deterministic output (insertion order preserved) so BENCH_*.json
// baselines can live in git. Numbers keep one fixed text form (see
// jsonNumber), which also makes parse -> re-serialize idempotent for
// trace files.
//
// Two layout styles: Pretty (2-space indent, human-diffable, the
// default) and Compact (no whitespace — one JSONL record per str()).
//
// The writer appends into a std::string — its own, or a caller's
// buffer (the JSONL trace sink reuses one across events) — and keeps
// its container stack inline, so a document costs no allocation beyond
// the growth of that string. Nesting is capped at kJsonMaxDepth, the
// same bound parseJson enforces.
//
// JSON has no NaN/Inf, so non-finite doubles need an explicit policy:
//   Null           — emit null (legacy default; lossy for readers that
//                    distinguish "absent" from "not a number")
//   StringSentinel — emit "NaN" / "Infinity" / "-Infinity" strings,
//                    which TraceReader maps back to the exact value
//   Throw          — PreconditionError; for documents where a
//                    non-finite value can only mean a bug upstream
//
//   JsonWriter w;
//   w.beginObject();
//   w.key("name").value("campaign");
//   w.key("runs").beginArray();
//   w.value(1.5);
//   w.endArray();
//   w.endObject();
//   std::string text = w.str();
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "dds/common/error.hpp"

namespace dds {

/// Deepest container nesting a JSON document may have, written or read.
inline constexpr std::size_t kJsonMaxDepth = 256;

/// Escape a string for embedding in a JSON document (no quotes added).
[[nodiscard]] std::string jsonEscape(std::string_view s);

/// Streaming JSON writer with indentation and container bookkeeping.
class JsonWriter {
 public:
  enum class Style { Pretty, Compact };
  enum class NonFinitePolicy { Null, StringSentinel, Throw };

  struct Options {
    Style style = Style::Pretty;
    NonFinitePolicy non_finite = NonFinitePolicy::Null;
  };

  JsonWriter() : out_(&own_) {}
  explicit JsonWriter(Options options) : options_(options), out_(&own_) {}

  /// Append to `out` instead of the writer's own buffer; `out` must
  /// outlive the writer, and str() then reads nothing.
  JsonWriter(std::string& out, Options options)
      : options_(options), out_(&out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Write an object key; the next value/begin* call is its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// The document so far; call after the outermost container is closed.
  /// Pretty documents end with '\n'; Compact ones do not (the caller
  /// owns record separators in JSONL streams).
  [[nodiscard]] std::string str() const;

 private:
  void push(bool is_array);
  void pop(bool is_array);
  void beforeValue();
  void indent();
  void put(char c) { out_->push_back(c); }
  void put(std::string_view s) { out_->append(s); }

  Options options_;
  std::string own_;
  std::string* out_;  // own_ or the caller's buffer
  // Open containers, innermost at depth_ - 1: whether each is an array
  // and whether it has an item yet.
  std::bitset<kJsonMaxDepth> is_array_;
  std::bitset<kJsonMaxDepth> has_items_;
  std::size_t depth_ = 0;
  bool pending_key_ = false;
};

/// The text form of a finite double. Integral values below 1e15 print
/// as plain integers ("7200", not "7.2e+03"); every other value prints
/// as printf's "%.{p}g" for the first p in {1, 3, 6, 9, 12, 15} that
/// scans back to the same double, else "%.17g". Computed without
/// printf: the shortest round-trip digits from std::to_chars, laid out
/// as "%.{p}g" would print them.
[[nodiscard]] std::string jsonNumber(double v);

}  // namespace dds
