// §6.4.3 reproduction: Protocol chi vs the static-threshold baseline.
//
// The dissertation's argument: any static loss threshold faces a dilemma —
//   * set it low enough to catch focused attacks and it false-positives
//     under ordinary congestion;
//   * set it high enough to be congestion-safe and focused attacks (SYN
//     dropping, queue-occupancy-gated dropping) sail through.
// Protocol chi, which predicts each congestive loss, does both jobs.
//
// Three scenarios on the same topology/traffic mix:
//   A: congestion only (no attack)      -> want NO alarms
//   B: SYN-drop attack under congestion -> want alarms
//   C: queue>=90% gated victim dropping -> want alarms
// Each static threshold T alarms when a round loses more than T packets.
//
//   fig6_10_chi_vs_threshold           the table
//   fig6_10_chi_vs_threshold --smoke   the table plus a verdict line; exits
//                                      1 unless the expected shape holds
#include <cstdio>
#include <cstring>
#include <vector>

#include "detection/chi.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace fatih;

namespace {

// Per-round loss counts for each scenario, captured once; thresholds are
// then evaluated offline against the same counts (exactly what a static
// detector would do), while chi runs its own verdicts in-line.
struct Scenario {
  std::vector<std::uint64_t> losses_per_round;   // observed at the queue
  std::vector<bool> chi_alarm_per_round;
};

/// Scenario A, B or C (which = 0, 1, 2): the 20-round drop-tail figure mix
/// under heavy congestion, with Fig. 6.9's SYN attack (and its victim
/// host) or Fig. 6.7's queue>=90% attack taken from the registry.
Scenario run_scenario(int which) {
  scenario::ScenarioSpec spec = scenario::chi_bottleneck_spec(
      "fig6_10_chi_vs_threshold", static_cast<std::uint64_t>(1000 + which), 20, false);
  if (which == 1) {
    const scenario::ScenarioSpec& syn = *scenario::find_scenario("fig6_9_attack_syn");
    spec.attacks = syn.attacks;
    spec.flows.push_back(syn.flows.back());  // the victim's connection attempt
  } else if (which == 2) {
    spec.attacks = scenario::find_scenario("fig6_7_attack_q90")->attacks;
  }
  scenario::ScenarioRun run(spec);
  run.run_to(run.end_time_ns());
  Scenario out;
  for (const auto& rs : run.chi_validator()->rounds()) {
    out.losses_per_round.push_back(rs.drops);
    out.chi_alarm_per_round.push_back(rs.alarmed && rs.round >= 3);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (argc > 2 || (argc == 2 && !smoke)) {
    std::fprintf(stderr, "usage: fig6_10_chi_vs_threshold [--smoke]\n");
    return 2;
  }
  std::printf("== §6.4.3: Protocol chi vs static thresholds ==\n\n");
  const Scenario clean = run_scenario(0);
  const Scenario syn = run_scenario(1);
  const Scenario q90 = run_scenario(2);

  std::printf("%-22s %18s %12s %12s\n", "detector", "falseAlarms(clean)", "catchesSYN",
              "catchesQ90");
  bool shape_holds = true;
  for (std::uint64_t threshold : {5ULL, 10ULL, 25ULL, 50ULL, 100ULL, 250ULL, 500ULL}) {
    std::size_t fp = 0;
    for (std::size_t i = 3; i < clean.losses_per_round.size(); ++i) {
      if (clean.losses_per_round[i] > threshold) ++fp;
    }
    auto detects = [&](const Scenario& s) {
      // Attack drops add on top of congestion; a static detector flags a
      // round iff total losses exceed the threshold AFTER attack start,
      // but it would also have flagged pre-attack rounds the same way —
      // detection only counts if post-attack rounds exceed while matched
      // clean rounds would not (otherwise it is indistinguishable noise).
      bool any = false;
      for (std::size_t i = 8; i < s.losses_per_round.size(); ++i) {
        const std::uint64_t baseline =
            i < clean.losses_per_round.size() ? clean.losses_per_round[i] : 0;
        if (s.losses_per_round[i] > threshold && baseline <= threshold) any = true;
      }
      return any;
    };
    const bool caught_syn = detects(syn);
    const bool caught_q90 = detects(q90);
    std::printf("static threshold %-5llu %18zu %12s %12s\n",
                static_cast<unsigned long long>(threshold), fp, caught_syn ? "yes" : "NO",
                caught_q90 ? "yes" : "NO");
    // The dilemma: no static threshold is clean AND catches both attacks.
    if (fp == 0 && caught_syn && caught_q90) shape_holds = false;
  }

  std::size_t chi_fp = 0;
  for (bool a : clean.chi_alarm_per_round) {
    if (a) ++chi_fp;
  }
  auto chi_detects = [](const Scenario& s) {
    for (std::size_t i = 8; i < s.chi_alarm_per_round.size(); ++i) {
      if (s.chi_alarm_per_round[i]) return true;
    }
    return false;
  };
  const bool chi_syn = chi_detects(syn);
  const bool chi_q90 = chi_detects(q90);
  std::printf("%-22s %18zu %12s %12s\n", "Protocol chi", chi_fp, chi_syn ? "yes" : "NO",
              chi_q90 ? "yes" : "NO");
  if (chi_fp != 0 || !chi_syn || !chi_q90) shape_holds = false;
  std::printf("\nExpected shape: every threshold row fails at least one column;\n"
              "the chi row is clean on the left and detects on the right.\n");
  if (!smoke) return 0;
  std::printf("expected shape %s\n", shape_holds ? "ok" : "SMOKE FAILURE");
  return shape_holds ? 0 : 1;
}
