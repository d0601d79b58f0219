// The paper's own definitions as the benchmark's correctness oracle:
// alpha-accuracy and completeness (dissertation Ch. 4), checked with
// detection::check_accuracy / check_completeness_for against the ground
// truth a spec's attacks imply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace perfbench {

struct OracleReport {
  std::size_t suspicions = 0;  ///< raised by correct reporters
  /// Suspicions check_accuracy rejects (no faulty router in the segment
  /// during the interval, or longer than the precision), as rendered.
  std::vector<std::string> violations{};
  bool complete = true;  ///< every attacker ends up in some suspicion
  /// Simulated time from the earliest attack onset to the end of the first
  /// (in raise order) accurate suspicion naming an attacker; empty when
  /// there is none.
  std::optional<double> detect_delay_s{};
};

/// Checks `suspicions` (rendered, in raise order) against the ground truth
/// of `spec`: each attack marks its router traffic-faulty from the
/// attack's `active_from_ns`. Unparseable text counts as a violation.
[[nodiscard]] OracleReport check(const fatih::scenario::ScenarioSpec& spec,
                                 const std::vector<std::string>& suspicions);

}  // namespace perfbench
