// The generated-topology builtins (gen_*) on the one event engine: a
// repeated run reproduces every digest and checkpoint, and every record
// meets the paper's own oracle (dissertation §4.2.2, detection/spec.hpp).
// Accuracy: each suspicion names a router that was faulty during its
// interval, within the detector's precision (2 for Pi2 and chi, k+2 for
// Pi(k+2)). Completeness: each attacker is eventually suspected. A clean
// spec raises no suspicion at all.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detection/spec.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace fatih::scenario {
namespace {

const ScenarioSpec& registered(const char* name) {
  const ScenarioSpec* spec = find_scenario(name);
  EXPECT_NE(spec, nullptr) << name;
  return *spec;
}

std::string rendered(const ScenarioRun& run) {
  std::string out;
  for (const std::string& s : run.suspicion_strings()) out.append("  ").append(s).append("\n");
  return out;
}

std::size_t precision_of(const ScenarioSpec& spec) {
  return spec.detector.kind == DetectorKind::kPik2 ? spec.detector.k + 2 : 2;
}

/// Runs the named builtin to its end and checks it against the oracle.
/// Ground truth is the spec's own attack list: each attacked router is
/// traffic-faulty from its attack's active_from_ns.
void expect_oracle(const char* name) {
  const ScenarioSpec& spec = registered(name);
  ScenarioRun run(spec);
  run.run_to(run.end_time_ns());
  const std::vector<detection::Suspicion>& suspicions = run.suspicions();

  detection::GroundTruth truth;
  for (const AttackSpec& a : spec.attacks) {
    truth.mark_traffic_faulty(a.at, util::SimTime::from_nanos(a.active_from_ns));
  }
  const detection::SpecReport report =
      detection::check_accuracy(suspicions, truth, precision_of(spec));
  EXPECT_TRUE(report.accuracy_holds())
      << name << ": " << report.violations << " suspicions name no faulty router, "
      << report.oversized << " exceed precision " << precision_of(spec) << "\n"
      << rendered(run);

  if (spec.attacks.empty()) {
    EXPECT_TRUE(suspicions.empty()) << name << " is clean but raised:\n" << rendered(run);
  }
  for (const AttackSpec& a : spec.attacks) {
    EXPECT_TRUE(detection::check_completeness_for(suspicions, a.at))
        << name << ": attacker r" << a.at << " never suspected\n"
        << rendered(run);
  }
}

TEST(GenScenarios, EbonePik2CleanMeetsOracle) { expect_oracle("gen_ebone_pik2_clean"); }

TEST(GenScenarios, EbonePi2DropMeetsOracle) { expect_oracle("gen_ebone_pi2_drop"); }

TEST(GenScenarios, SprintlinkPik2CleanMeetsOracle) {
  expect_oracle("gen_sprintlink_pik2_clean");
}

TEST(GenScenarios, SprintlinkPik2DropMeetsOracle) { expect_oracle("gen_sprintlink_pik2_drop"); }

TEST(GenScenarios, SprintlinkChiDropMeetsOracle) { expect_oracle("gen_sprintlink_chi_drop"); }

TEST(GenScenarios, WidePik2CleanMeetsOracle) { expect_oracle("gen_wide_pik2_clean"); }

/// Runs `name` twice, every heap- and pointer-shaped object rebuilt in
/// between, and expects the same digest at every round boundary and at the
/// end, the same suspicions and the same counters.
void expect_run_twice_identical(const char* name) {
  const ScenarioSpec& spec = registered(name);
  const ScenarioResult a = run_scenario(spec);
  const ScenarioResult b = run_scenario(spec);
  EXPECT_GT(a.delivered, 0u) << name;
  EXPECT_EQ(a.final_digest, b.final_digest) << name;
  EXPECT_EQ(a.checkpoints, b.checkpoints) << name;
  EXPECT_EQ(a.suspicions, b.suspicions) << name;
  EXPECT_EQ(a.forwarded, b.forwarded) << name;
  EXPECT_EQ(a.delivered, b.delivered) << name;
  EXPECT_EQ(a.dispatched, b.dispatched) << name;
}

// The two ShardDeterminism tests keep the ids they had when they belonged
// to the sharded engine's suite; both now run on the one event engine.
TEST(ShardDeterminism, RunTwiceIsStable) {
  for (const char* name :
       {"gen_ebone_pik2_clean", "gen_ebone_pi2_drop", "gen_sprintlink_chi_drop"}) {
    expect_run_twice_identical(name);
  }
}

TEST(ShardDeterminism, ClassicEngineStillBitIdenticalOnClassicSpecs) {
  // A hand-written (non-generated) builtin through the same counter and
  // digest code.
  expect_run_twice_identical("line4_pik2_drop");
}

TEST(GenScenarios, DropScenarioRaisesSuspicion) {
  // Repeatability would hold trivially on an idle detector; the attacked
  // runs must actually detect something.
  for (const char* name :
       {"gen_ebone_pi2_drop", "gen_sprintlink_pik2_drop", "gen_sprintlink_chi_drop"}) {
    EXPECT_FALSE(run_scenario(registered(name)).suspicions.empty()) << name;
  }
}

}  // namespace
}  // namespace fatih::scenario
