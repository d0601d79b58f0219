// The traced run: rebuilds a workload from the layers' public APIs, the
// way scenario::ScenarioRun builds it, and times the calls into each layer
// from outside.
//
// Spans are recorded by the benchmark's own code, never inside src/:
//   * bench taps registered before and after a detection engine's packet
//     taps bracket them (taps run in registration order);
//   * control sinks registered before and after the engine's sinks bracket
//     control-message handling;
//   * a ForwardFilter decorator around each compromised router's chain
//     times the attack filters;
//   * zero-width run_until slices at the instants the engine's round
//     timers fire time round evaluation (no event is added);
//   * the rest of run_until is the event engine's own time.
// Each layer's time is self time: a span's duration minus the spans nested
// in it, so the layers plus the residual sum to the traced run time.
//
// The rebuild must reproduce ScenarioRun exactly (same digests, same
// suspicion strings); the caller checks that before trusting the numbers.
#pragma once

#include <cstdint>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

struct TracedRun {
  /// What ScenarioRun::finish() would have returned.
  fatih::scenario::ScenarioResult result;

  // Set-up (construction) time by layer, seconds.
  double setup_s = 0;
  double topo_generate_s = 0;  ///< topology generation + network build
  double routing_tables_s = 0;  ///< Topology::from_network, SPF tables, route install
  double commission_s = 0;      ///< detection engine constructor + start()

  // Run time (end of construction through the final digest), seconds.
  double run_s = 0;
  double sim_self_s = 0;    ///< run_until minus every bracketed callback
  double tap_s = 0;         ///< detection packet taps
  double control_s = 0;     ///< detection control-message sinks
  double filter_s = 0;      ///< attack forward filters
  double eval_s = 0;        ///< round timers (exchange, flooding, TV, chi replay)
  double digest_s = 0;      ///< checkpoint digests at round boundaries
  double residual_s = 0;    ///< run_s minus all of the above

  // Work and failure counts.
  std::uint64_t events = 0;
  std::uint64_t tap_calls = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t filter_calls = 0;
  std::uint64_t rounds_evaluated = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t exchange_bytes = 0;
  std::uint64_t guard_rejects = 0;
  std::uint64_t drops = 0;
  std::uint64_t tcp_retransmits = 0;
};

/// Builds and runs `spec` with layer spans. Classic engine only (shards ==
/// 0) and no churn; throws std::invalid_argument otherwise.
[[nodiscard]] TracedRun run_traced(const fatih::scenario::ScenarioSpec& spec);

}  // namespace perfbench
