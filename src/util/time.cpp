#include "util/time.hpp"

#include <cstdio>

namespace fatih::util {

namespace {

/// "<sign><whole>.<six decimals>s" in integer arithmetic: the nanosecond
/// count rounds to the nearest microsecond, ties away from zero. Matches
/// `"%.6fs"` of ns / 1e9 except on some exact ±500 ns ties, where the
/// double quotient lands on either side of the tie.
std::string format_seconds(std::int64_t ns) {
  const bool negative = ns < 0;
  const std::uint64_t mag =
      negative ? 0 - static_cast<std::uint64_t>(ns) : static_cast<std::uint64_t>(ns);
  const std::uint64_t micros = mag / 1000 + (mag % 1000 >= 500 ? 1 : 0);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%llu.%06llus", negative ? "-" : "",
                static_cast<unsigned long long>(micros / 1'000'000),
                static_cast<unsigned long long>(micros % 1'000'000));
  return buf;
}

}  // namespace

std::string to_string(SimTime t) { return format_seconds(t.nanos()); }

std::string to_string(Duration d) { return format_seconds(d.count_nanos()); }

}  // namespace fatih::util
