// Materializes a ScenarioSpec into a live experiment and drives it.
//
// A ScenarioRun owns the network, routes, traffic agents, attack filters,
// churn schedule and detection engine a spec describes, and can advance
// simulated time incrementally (run_to) while capturing StateDigests — the
// checkpoint/restore and drift-bisection primitives. Every run of the same
// spec is bit-identical: construction order, seeds and event scheduling
// are all functions of the spec alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detection/types.hpp"
#include "scenario/spec.hpp"

namespace fatih::detection { class QueueValidator; }
namespace fatih::traffic { class TcpFlow; }

namespace fatih::scenario {

/// Everything a checkpoint pins about an in-flight run: counters plus FNV
/// fingerprints of the RNG stream position, the live pending event queue,
/// the detector's round state and the suspicion set. Two runs of one spec
/// agree on the digest at every instant or they have diverged.
struct StateDigest {
  std::int64_t t_ns = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rng_hash = 0;
  std::uint64_t pending_hash = 0;
  std::uint64_t detector_hash = 0;
  std::uint64_t suspicion_hash = 0;
  std::uint64_t suspicion_count = 0;

  /// One word folding every field, the value stored in checkpoints.
  [[nodiscard]] std::uint64_t hash() const;
  bool operator==(const StateDigest&) const = default;
};

/// A (time, digest) pair captured at a detection-round boundary.
struct Checkpoint {
  std::int64_t t_ns = 0;
  std::uint64_t digest = 0;

  bool operator==(const Checkpoint&) const = default;
};

/// What one completed run contributes to the corpus.
struct ScenarioResult {
  std::string name{};
  std::uint64_t spec_hash = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t final_digest = 0;
  std::vector<std::string> suspicions{};
  std::vector<Checkpoint> checkpoints{};
};

class ScenarioRun {
 public:
  explicit ScenarioRun(const ScenarioSpec& spec);
  ~ScenarioRun();
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  /// Advances simulated time to `t_ns` (clamped to end_time_ns()),
  /// capturing a checkpoint at every round boundary crossed.
  void run_to(std::int64_t t_ns);

  /// Runs to the end and assembles the corpus record.
  [[nodiscard]] ScenarioResult finish();

  /// Absolute horizon: duration_ns plus the drain window.
  [[nodiscard]] std::int64_t end_time_ns() const;

  /// Digest of the current state (current sim time).
  [[nodiscard]] StateDigest digest() const;

  /// Suspicions raised so far, in raise order: the structured records the
  /// accuracy / completeness checkers (detection/spec.hpp) take.
  [[nodiscard]] const std::vector<detection::Suspicion>& suspicions() const;

  /// The same suspicions, rendered.
  [[nodiscard]] std::vector<std::string> suspicion_strings() const;

  /// Checkpoints captured so far (round boundaries passed by run_to).
  [[nodiscard]] const std::vector<Checkpoint>& checkpoints() const;

  [[nodiscard]] const ScenarioSpec& spec() const;

  /// The chi validator (detector kind chi), else nullptr: per-round
  /// stats, calibration, and the error-sample hook the figures read.
  [[nodiscard]] detection::QueueValidator* chi_validator();

  /// Ground truth: packets `router`'s attack filters have dropped so far.
  [[nodiscard]] std::uint64_t malicious_drops(util::NodeId router) const;

  /// The spec's TCP flow with `flow_id`, else nullptr.
  [[nodiscard]] const traffic::TcpFlow* tcp_flow(std::uint32_t flow_id) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: straight run of `spec`, start to finish.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

}  // namespace fatih::scenario
