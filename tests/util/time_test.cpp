#include "util/time.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace fatih::util {
namespace {

TEST(Duration, FactoryUnits) {
  EXPECT_EQ(Duration::nanos(1).count_nanos(), 1);
  EXPECT_EQ(Duration::micros(1).count_nanos(), 1'000);
  EXPECT_EQ(Duration::millis(1).count_nanos(), 1'000'000);
  EXPECT_EQ(Duration::seconds(1).count_nanos(), 1'000'000'000);
}

TEST(Duration, FromSecondsFraction) {
  EXPECT_EQ(Duration::from_seconds(0.0035).count_nanos(), 3'500'000);
  EXPECT_DOUBLE_EQ(Duration::from_seconds(2.5).to_seconds(), 2.5);
}

TEST(Duration, Arithmetic) {
  const auto a = Duration::millis(3);
  const auto b = Duration::millis(2);
  EXPECT_EQ((a + b).count_nanos(), Duration::millis(5).count_nanos());
  EXPECT_EQ((a - b).count_nanos(), Duration::millis(1).count_nanos());
  EXPECT_EQ((a * 4).count_nanos(), Duration::millis(12).count_nanos());
  EXPECT_EQ((a / 3).count_nanos(), Duration::millis(1).count_nanos());
}

TEST(Duration, CompoundAssignment) {
  auto d = Duration::seconds(1);
  d += Duration::seconds(2);
  EXPECT_EQ(d, Duration::seconds(3));
  d -= Duration::seconds(1);
  EXPECT_EQ(d, Duration::seconds(2));
}

TEST(Duration, Ordering) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_GT(Duration::seconds(1), Duration::millis(999));
  EXPECT_EQ(Duration::micros(1000), Duration::millis(1));
}

TEST(Duration, Scaled) {
  EXPECT_EQ(Duration::seconds(10).scaled(0.5), Duration::seconds(5));
  EXPECT_EQ(Duration::millis(100).scaled(2.0), Duration::millis(200));
}

TEST(SimTime, OriginAndAdvance) {
  const auto t0 = SimTime::origin();
  EXPECT_EQ(t0.nanos(), 0);
  const auto t1 = t0 + Duration::seconds(2);
  EXPECT_DOUBLE_EQ(t1.seconds(), 2.0);
  EXPECT_EQ(t1 - t0, Duration::seconds(2));
}

TEST(SimTime, InfinityDominates) {
  EXPECT_GT(SimTime::infinity(), SimTime::from_seconds(1e9));
}

TEST(SimTime, FromSeconds) {
  EXPECT_EQ(SimTime::from_seconds(1.5).nanos(), 1'500'000'000);
}

TEST(TimeInterval, ContainsHalfOpen) {
  const TimeInterval tau{SimTime::from_seconds(1), SimTime::from_seconds(2)};
  EXPECT_TRUE(tau.contains(SimTime::from_seconds(1)));
  EXPECT_TRUE(tau.contains(SimTime::from_seconds(1.999)));
  EXPECT_FALSE(tau.contains(SimTime::from_seconds(2)));
  EXPECT_FALSE(tau.contains(SimTime::from_seconds(0.5)));
  EXPECT_EQ(tau.length(), Duration::seconds(1));
}

TEST(TimeFormatting, Renders) {
  EXPECT_EQ(to_string(SimTime::from_seconds(1.5)), "1.500000s");
  EXPECT_EQ(to_string(Duration::millis(250)), "0.250000s");
}

std::string printf_seconds(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6fs", static_cast<double>(ns) / 1e9);
  return buf;
}

TEST(TimeFormatting, IntegerFormatMatchesPrintfOffTies) {
  // Off the ±500 ns ties, the integer formatter prints exactly what
  // "%.6fs" of the double quotient prints: small counts, both sides of
  // every microsecond and second boundary, round boundaries, negative
  // durations (including the "-0.000000s" of sub-half-microsecond
  // negatives), long runs and the extremes.
  std::vector<std::int64_t> sweep;
  for (std::int64_t ns = 0; ns <= 20'000; ++ns) sweep.push_back(ns);
  for (const std::int64_t base : {std::int64_t{1'000'000}, std::int64_t{999'999'000},
                                  std::int64_t{1'000'000'000}, std::int64_t{59'999'999'000},
                                  std::int64_t{3'600'000'000'000}}) {
    for (std::int64_t off = -1500; off <= 1500; ++off) sweep.push_back(base + off);
  }
  for (std::int64_t round = 0; round <= 600; ++round) sweep.push_back(round * 500'000'000);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    sweep.push_back(static_cast<std::int64_t>(x >> 21));  // up to ~8.8e12 ns
  }
  sweep.push_back(std::numeric_limits<std::int64_t>::max());
  const std::size_t positives = sweep.size();
  for (std::size_t i = 0; i < positives; ++i) sweep.push_back(-sweep[i]);
  sweep.push_back(std::numeric_limits<std::int64_t>::min());

  std::size_t compared = 0;
  for (const std::int64_t ns : sweep) {
    const std::uint64_t mag =
        ns < 0 ? 0 - static_cast<std::uint64_t>(ns) : static_cast<std::uint64_t>(ns);
    if (mag % 1000 == 500) continue;  // ties: see the next test
    ++compared;
    ASSERT_EQ(to_string(Duration::nanos(ns)), printf_seconds(ns)) << ns << " ns";
    ASSERT_EQ(to_string(SimTime::from_nanos(ns)), printf_seconds(ns)) << ns << " ns";
  }
  EXPECT_GT(compared, 100'000u);
}

TEST(TimeFormatting, TiesRoundAwayFromZero) {
  // An exact ±500 ns tie rounds away from zero. "%.6fs" of ns / 1e9 does
  // whatever side the double quotient lands on, so it agrees on some ties
  // and not on others; these are the divergences this formatter accepts.
  EXPECT_EQ(to_string(Duration::nanos(500)), "0.000001s");
  EXPECT_EQ(printf_seconds(500), "0.000000s");  // 5e-7 is stored just below
  EXPECT_EQ(to_string(Duration::nanos(-500)), "-0.000001s");
  EXPECT_EQ(printf_seconds(-500), "-0.000000s");
  EXPECT_EQ(to_string(Duration::nanos(1'500)), "0.000002s");
  EXPECT_EQ(printf_seconds(1'500), "0.000002s");  // 1.5e-6 is stored just above
  EXPECT_EQ(to_string(SimTime::from_nanos(1'000'000'500)), "1.000001s");
  EXPECT_EQ(to_string(SimTime::from_nanos(2'499'999'500)), "2.500000s");
}

}  // namespace
}  // namespace fatih::util
