#include "dds/common/json.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

namespace dds {
namespace {

constexpr std::array<int, 6> kPrecisionLadder = {1, 3, 6, 9, 12, 15};

// Longest text any path below writes: "%.17g" of a negative subnormal
// ("-2.2250738585072009e-308", 24 chars) or an int64 (20 chars).
constexpr std::size_t kNumberChars = 32;

// The legacy ladder printed "%.{p}g" for the first p in the ladder that
// scans back to v, else "%.17g". No decimal shorter than v's shortest
// round-trip form (n digits) scans back, so that p is the first one
// >= n. For a normal double, v lies within half an ulp (< 1.2e-16
// relative) of its shortest form, far inside half a unit of the 15th
// digit (> 5e-16 relative): rounding v to p >= n digits gives back the
// same digits, and "%.{p}g" is those digits in %g layout. Subnormals
// are coarser than that, so they take to_chars(general, p) itself.
char* writeNumber(char* first, char* last, double v) {
  const double a = std::fabs(v);
  if (a < 1.0e15) {
    const auto whole = static_cast<long long>(v);
    if (static_cast<double>(whole) == v) {
      return std::to_chars(first, last, whole).ptr;
    }
  }
  // Shortest round trip as "d[.ddd]e{+|-}xx", %g's scientific layout.
  char sci[kNumberChars];
  const char* sci_end =
      std::to_chars(sci, sci + sizeof(sci), a, std::chars_format::scientific)
          .ptr;
  char digits[17];
  int n = 0;
  const char* e = sci;
  for (; *e != 'e'; ++e) {
    if (*e != '.') digits[n++] = *e;
  }
  if (n > kPrecisionLadder.back()) {
    return std::to_chars(first, last, v, std::chars_format::general, 17).ptr;
  }
  const int p = *std::find_if(kPrecisionLadder.begin(), kPrecisionLadder.end(),
                              [n](int step) { return step >= n; });
  if (a < std::numeric_limits<double>::min()) {
    return std::to_chars(first, last, v, std::chars_format::general, p).ptr;
  }
  int exp10 = 0;
  std::from_chars(e + 2, sci_end, exp10);
  if (e[1] == '-') exp10 = -exp10;

  char* out = first;
  if (v < 0.0) *out++ = '-';
  if (exp10 < -4 || exp10 >= p) {
    std::memcpy(out, sci, static_cast<std::size_t>(sci_end - sci));
    return out + (sci_end - sci);
  }
  if (exp10 < 0) {  // 0.000ddd
    *out++ = '0';
    *out++ = '.';
    for (int i = -1; i > exp10; --i) *out++ = '0';
    for (int i = 0; i < n; ++i) *out++ = digits[i];
    return out;
  }
  for (int i = 0; i <= exp10; ++i) *out++ = i < n ? digits[i] : '0';
  if (n > exp10 + 1) {
    *out++ = '.';
    for (int i = exp10 + 1; i < n; ++i) *out++ = digits[i];
  }
  return out;
}

// Appends the escaped form of `s` to `out`: runs of plain characters
// in one append each, one escape sequence per special character.
void escapeInto(std::string_view s, std::string& out) {
  std::size_t run = 0;  // start of the pending run of plain characters
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(s.substr(run));
}

}  // namespace

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  escapeInto(s, out);
  return out;
}

std::string jsonNumber(double v) {
  DDS_REQUIRE(std::isfinite(v), "jsonNumber requires a finite value");
  char buf[kNumberChars];
  return std::string(buf, writeNumber(buf, buf + sizeof(buf), v));
}

void JsonWriter::push(bool is_array) {
  beforeValue();
  DDS_REQUIRE(depth_ < kJsonMaxDepth, "JSON nesting too deep");
  put(is_array ? '[' : '{');
  is_array_[depth_] = is_array;
  has_items_[depth_] = false;
  ++depth_;
}

void JsonWriter::pop(bool is_array) {
  const bool had_items = has_items_[--depth_];
  if (had_items && options_.style == Style::Pretty) {
    put('\n');
    indent();
  }
  put(is_array ? ']' : '}');
}

JsonWriter& JsonWriter::beginObject() {
  push(false);
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  DDS_REQUIRE(depth_ > 0 && !is_array_[depth_ - 1],
              "endObject without matching beginObject");
  DDS_REQUIRE(!pending_key_, "object key without a value");
  pop(false);
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  push(true);
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  DDS_REQUIRE(depth_ > 0 && is_array_[depth_ - 1],
              "endArray without matching beginArray");
  pop(true);
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  DDS_REQUIRE(depth_ > 0 && !is_array_[depth_ - 1], "key outside an object");
  DDS_REQUIRE(!pending_key_, "two keys in a row");
  pending_key_ = true;
  if (has_items_[depth_ - 1]) put(',');
  has_items_[depth_ - 1] = true;
  if (options_.style == Style::Pretty) {
    put('\n');
    indent();
  }
  put('"');
  escapeInto(name, *out_);
  put(options_.style == Style::Pretty ? std::string_view("\": ")
                                      : std::string_view("\":"));
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  put('"');
  escapeInto(v, *out_);
  put('"');
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) {
    switch (options_.non_finite) {
      case NonFinitePolicy::Null:
        return null();
      case NonFinitePolicy::StringSentinel:
        if (std::isnan(v)) return value("NaN");
        return value(v > 0.0 ? "Infinity" : "-Infinity");
      case NonFinitePolicy::Throw:
        DDS_REQUIRE(false, "non-finite value in JSON document");
    }
  }
  beforeValue();
  char buf[kNumberChars];
  out_->append(buf, writeNumber(buf, buf + sizeof(buf), v));
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  char buf[kNumberChars];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  char buf[kNumberChars];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  put(v ? std::string_view("true") : std::string_view("false"));
  return *this;
}

JsonWriter& JsonWriter::null() {
  beforeValue();
  put("null");
  return *this;
}

std::string JsonWriter::str() const {
  DDS_REQUIRE(depth_ == 0, "unterminated JSON container");
  if (options_.style == Style::Compact) return own_;
  return own_ + "\n";
}

void JsonWriter::beforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (depth_ > 0) {
    DDS_REQUIRE(is_array_[depth_ - 1], "value inside an object needs a key");
    if (has_items_[depth_ - 1]) put(',');
    has_items_[depth_ - 1] = true;
    if (options_.style == Style::Pretty) {
      put('\n');
      indent();
    }
  }
}

void JsonWriter::indent() {
  for (std::size_t i = 0; i < depth_; ++i) put("  ");
}

}  // namespace dds
