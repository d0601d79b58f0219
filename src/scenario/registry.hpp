// The builtin scenario corpus.
//
// Declarative ScenarioSpecs for the line networks of the detection tests,
// the Abilene forwarding substrate (pinned by
// Network.AbileneForwardingCountsArePinned in tests/sim/network_test.cpp),
// generated Rocketfuel-scale graphs, and the Fig. 6.4 chi bottleneck —
// including every Ch. 6 chi figure (fig6_5 ... fig6_16), which
// bench/chi_figures runs and prints. These are the seeds of the golden
// regression corpus (BENCH_fleet_corpus.json): every spec here is run by
// tools/fatih-fleet and its suspicion set and counters are pinned.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace fatih::scenario {

/// All builtin scenarios, sorted by name.
[[nodiscard]] const std::vector<ScenarioSpec>& builtin_scenarios();

/// Looks up a builtin by name; nullptr when unknown.
[[nodiscard]] const ScenarioSpec* find_scenario(std::string_view name);

/// The Fig. 6.4 chi bottleneck (s1, s2 -> r -> rd) under the Ch. 6
/// traffic mix for `rounds` 1 s rounds, 3 of them calibration: victim CBR
/// flow 1 from s1 and TCP flows 10 and 11; under heavy congestion an
/// on-off burst source (flow 2) from s2; `flow3_pps` > 0 adds CBR flow 3
/// from s1 to keep a RED average in its active band. Every Fig. 6.4
/// builtin starts from it, as do the bench sweeps that derive variants.
[[nodiscard]] ScenarioSpec chi_bottleneck_spec(std::string name, std::uint64_t seed,
                                               std::int64_t rounds, bool red,
                                               bool heavy_congestion = true,
                                               std::int64_t flow3_pps = 0);

}  // namespace fatih::scenario
