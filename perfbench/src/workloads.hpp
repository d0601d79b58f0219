// The benchmark's workloads: each turns a seed into a ScenarioSpec.
//
// Every workload runs on the classic single-simulator engine (shards = 0),
// so one run never needs more than one core. The seed shapes the inputs
// (flow endpoints and phases, traffic-rate jitter, TCP start times, the
// simulator and attack rng streams) while keeping the offered work nearly
// constant, so run-to-run spread measures the machine, not the input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace perfbench {

/// Outcome of one run at a workload's default seed, recorded once at the
/// commit that introduced the benchmark. A later build that reproduces a
/// different outcome has changed detection behaviour, and the run counts as
/// failed.
struct PinnedOutcome {
  std::uint64_t final_digest = 0;
  std::uint64_t suspicion_hash = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dispatched = 0;
};

/// The seed whose outcome is pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  const char* name;
  fatih::scenario::ScenarioSpec (*make)(std::uint64_t seed);
  PinnedOutcome pinned;  ///< at kDefaultSeed
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

}  // namespace perfbench
