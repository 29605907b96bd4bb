// jsonNumber must print every double exactly as the printf ladder it
// replaced did: trace files, campaign records and BENCH baselines are
// compared byte for byte, so the text form is a format contract. The
// legacy implementation lives on here as the oracle.
#include "dds/common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

namespace dds {
namespace {

std::string legacyJsonNumber(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (const int precision : {1, 3, 6, 9, 12, 15}) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", precision, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

/// Checks `v` and -v; returns how many doubles were compared.
class Checker {
 public:
  void check(double v) {
    if (!std::isfinite(v)) return;
    one(v);
    one(-v);
  }
  [[nodiscard]] std::uint64_t compared() const { return compared_; }

 private:
  void one(double v) {
    ++compared_;
    const std::string got = jsonNumber(v);
    const std::string want = legacyJsonNumber(v);
    if (got != want && ++mismatches_ <= 20) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": got " << got << ", legacy " << want;
    }
  }
  std::uint64_t compared_ = 0;
  int mismatches_ = 0;
};

/// The double nearest to mantissa * 10^exp10, by a correctly rounded scan.
double decimal(std::uint64_t mantissa, int exp10) {
  char text[48];
  std::snprintf(text, sizeof(text), "%llue%d",
                static_cast<unsigned long long>(mantissa), exp10);
  return std::strtod(text, nullptr);
}

/// A random mantissa of exactly `digits` decimal digits.
std::uint64_t mantissaOf(std::mt19937_64& rng, int digits) {
  std::uint64_t lo = 1;
  for (int i = 1; i < digits; ++i) lo *= 10;
  return std::uniform_int_distribution<std::uint64_t>(lo, lo * 10 - 1)(rng);
}

TEST(JsonNumberIdentity, RawBitPatterns) {
  std::mt19937_64 rng(0x5eed0001);
  Checker c;
  for (int i = 0; i < 200'000; ++i) c.check(std::bit_cast<double>(rng()));
  EXPECT_GE(c.compared(), 390'000u);
}

TEST(JsonNumberIdentity, SubnormalsZerosAndLimits) {
  std::mt19937_64 rng(0x5eed0002);
  Checker c;
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  for (int i = 0; i < 50'000; ++i) {
    c.check(std::bit_cast<double>(rng() & kMantissa));  // exponent field 0
  }
  for (const double v :
       {0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon()}) {
    c.check(v);
  }
  // Small multiples of the least subnormal: their rounding interval is
  // wide enough that "%.{p}g" may keep digits the shortest form drops.
  for (int i = 1; i <= 20'000; ++i) {
    c.check(i * std::numeric_limits<double>::denorm_min());
  }
  EXPECT_EQ(jsonNumber(-0.0), "0");
  EXPECT_GE(c.compared(), 140'000u);
}

TEST(JsonNumberIdentity, PowersOfTwoAndNeighbours) {
  // Every power of two: their rounding interval is narrower below than
  // above, and each binade's first and last values.
  Checker c;
  for (int k = -1074; k <= 1023; ++k) {
    const double v = std::ldexp(1.0, k);
    c.check(v);
    c.check(std::nextafter(v, 0.0));
    c.check(std::nextafter(v, std::numeric_limits<double>::infinity()));
    c.check(1.5 * v);
  }
  EXPECT_GE(c.compared(), 16'000u);
}

TEST(JsonNumberIdentity, IntegerBoundaryAt1e15) {
  Checker c;
  for (const double base : {1.0e15, 9007199254740992.0, 1.0e16, 1.0e17}) {
    double up = base;
    double down = base;
    for (int i = 0; i < 2'000; ++i) {
      c.check(up);
      c.check(down);
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, 0.0);
    }
  }
  for (int i = 1; i <= 20'000; ++i) {
    c.check(1.0e15 - i * 0.5);
    c.check(static_cast<double>(i) + 0.5);
  }
  // Just below 2^53, halves, quarters and eighths have exact decimal
  // forms of 17-19 digits: "%.17g" meets exact ties there.
  for (int k = 1; k <= 3; ++k) {
    for (std::uint64_t i = 0; i < 4'000; ++i) {
      const std::uint64_t odd = (std::uint64_t{1} << 53) - 1 - 2 * i;
      c.check(std::ldexp(static_cast<double>(odd), -k));
    }
  }
  EXPECT_GE(c.compared(), 120'000u);
}

TEST(JsonNumberIdentity, DecimalsOfEveryLengthAroundLayoutSwitches) {
  // Shortest forms of 1..17 digits, at the exponents where %g switches
  // between fixed and scientific layout: below -4, and at p - 1, p and
  // p + 1 for every ladder precision p.
  std::mt19937_64 rng(0x5eed0003);
  Checker c;
  for (int rep = 0; rep < 130; ++rep) {
    for (int digits = 1; digits <= 17; ++digits) {
      for (int exp10 = -7; exp10 <= 17; ++exp10) {
        // Place the decimal point so the value's exponent is exp10.
        c.check(decimal(mantissaOf(rng, digits), exp10 - digits + 1));
      }
    }
  }
  EXPECT_GE(c.compared(), 110'000u);
}

TEST(JsonNumberIdentity, SixteenAndSeventeenDigitValues) {
  std::mt19937_64 rng(0x5eed0004);
  std::uniform_int_distribution<int> exp_dist(-320, 290);
  Checker c;
  for (int i = 0; i < 60'000; ++i) {
    const int digits = 16 + i % 2;
    c.check(decimal(mantissaOf(rng, digits), exp_dist(rng)));
  }
  EXPECT_GE(c.compared(), 120'000u);
}

TEST(JsonNumberIdentity, TraceLikeMagnitudes) {
  // Rates, costs, ratios and times as runs produce them: arithmetic
  // results over a few decades, and short decimals across the range.
  std::mt19937_64 rng(0x5eed0005);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exp_dist(-300, 290);
  Checker c;
  for (int i = 0; i < 60'000; ++i) {
    c.check(unit(rng));
    c.check(unit(rng) * 1.0e6);
    c.check(std::pow(10.0, 8.0 * unit(rng) - 4.0));
    c.check(static_cast<double>(rng() % 100'000) / 60.0);
    c.check(decimal(mantissaOf(rng, 1 + i % 15), exp_dist(rng)));
  }
  EXPECT_GE(c.compared(), 590'000u);
}

}  // namespace
}  // namespace dds
