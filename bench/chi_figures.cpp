// The Protocol chi figures of dissertation Ch. 6 (the §6.4 emulation and
// §6.5 RED experiments, Figs. 6.5-6.16). Each figure is the builtin
// ScenarioSpec of the same name (`fatih-fleet print <name>` shows it) on
// the Fig. 6.4 bottleneck, run through ScenarioRun and printed as a
// per-round table plus a verdict.
//
//   chi_figures <name>    one figure
//   chi_figures           every figure, in table order
//   chi_figures --smoke   every figure's verdict; exits 1 unless each
//                         attack figure is [DETECTED] and each clean one
//                         [CLEAN]
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "detection/chi.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "traffic/tcp.hpp"

namespace {

namespace sc = fatih::scenario;
using fatih::detection::AlarmTally;
using fatih::detection::QueueValidator;

/// Router r of Fig. 6.4, the owner of the monitored queue.
constexpr fatih::util::NodeId kR = 2;
/// The SYN figures' victim host: a TCP connection attempt, flow 50.
constexpr std::uint32_t kVictimFlow = 50;

struct Figure {
  const char* scenario;
  const char* title;
};

constexpr Figure kFigures[] = {
    {"fig6_5_no_attack", "Figure 6.5: drop-tail bottleneck, no attack"},
    {"fig6_6_attack_drop20", "Figure 6.6: attack 1 - drop 20% of the selected flow"},
    {"fig6_7_attack_q90", "Figure 6.7: attack 2 - drop victims when queue >= 90% full"},
    {"fig6_8_attack_q95", "Figure 6.8: attack 3 - drop victims when queue >= 95% full"},
    {"fig6_9_attack_syn", "Figure 6.9: attack 4 - drop the victim's SYN packets"},
    {"fig6_11_red_no_attack", "Figure 6.11: RED bottleneck, no attack"},
    {"fig6_12_red_attack1", "Figure 6.12: RED attack 1 - drop victims when avg queue > 45000B"},
    {"fig6_13_red_attack2", "Figure 6.13: RED attack 2 - drop victims when avg queue > 54000B"},
    {"fig6_14_red_attack3", "Figure 6.14: RED attack 3 - drop 10% of victims when avg > 45000B"},
    {"fig6_15_red_attack4", "Figure 6.15: RED attack 4 - drop 5% of victims when avg > 45000B"},
    {"fig6_16_red_attack5", "Figure 6.16: RED attack 5 - drop the victim's SYN packets"},
};

/// The round in which the spec's first attack switches on; none when the
/// spec has no attack.
std::optional<std::int64_t> onset_round(const sc::ScenarioSpec& spec) {
  std::optional<std::int64_t> onset;
  for (const sc::AttackSpec& a : spec.attacks) {
    const std::int64_t round = (a.active_from_ns - spec.detector.epoch_ns) / spec.detector.tau_ns;
    onset = std::min(onset.value_or(round), round);
  }
  return onset;
}

/// Passes when an attack figure alarms after its onset and never before,
/// and a clean figure never alarms.
bool verdict_holds(const AlarmTally& t, bool attack_present) {
  return t.false_alarms == 0 && (!attack_present || t.hits > 0);
}

/// Prints the per-round table: losses seen, how many the queue model
/// explains, the residual, the test confidences, and whether the round
/// alarmed.
void print_rounds(const QueueValidator& v, const sc::ScenarioSpec& spec) {
  const bool red = spec.detector.red;
  std::printf("%-6s %8s %8s %7s %7s %7s %9s %9s %7s\n", "round", "entries", "exits", "drops",
              "cong", "susp", red ? "E[drops]" : "c_single", red ? "maxflowZ" : "c_comb",
              "alarm");
  for (const auto& rs : v.rounds()) {
    std::printf("%-6lld %8llu %8llu %7llu %7llu %7llu %9.3f %9.3f %7s%s\n",
                static_cast<long long>(rs.round), static_cast<unsigned long long>(rs.entries),
                static_cast<unsigned long long>(rs.exits),
                static_cast<unsigned long long>(rs.drops),
                static_cast<unsigned long long>(rs.congestive),
                static_cast<unsigned long long>(rs.suspicious),
                red ? rs.red_expected_drops : rs.max_single_confidence,
                red ? rs.red_max_flow_z : rs.combined_confidence, rs.alarmed ? "ALARM" : "-",
                rs.round < spec.detector.learning_rounds ? "  (learning)" : "");
  }
}

void print_verdict(sc::ScenarioRun& run, const AlarmTally& t, bool attack_present) {
  const QueueValidator& v = *run.chi_validator();
  std::printf("\ncalibration: mu=%.1fB sigma=%.1fB; ground truth: %llu malicious drops\n", v.mu(),
              v.sigma(), static_cast<unsigned long long>(run.malicious_drops(kR)));
  if (attack_present) {
    std::printf("verdict: %zu alarmed rounds during attack, %zu false alarms%s\n", t.hits,
                t.false_alarms, verdict_holds(t, true) ? "  [DETECTED]" : "");
  } else {
    std::printf("verdict: %zu false alarms%s\n", t.false_alarms,
                verdict_holds(t, false) ? "  [CLEAN]" : "");
  }
  if (const fatih::traffic::TcpFlow* victim = run.tcp_flow(kVictimFlow)) {
    std::printf("victim connected: %s after %u SYN retransmissions\n",
                victim->connected() ? "yes" : "NO", victim->syn_retransmits());
  }
}

/// Runs one figure; prints it in full unless `smoke`, where only a
/// one-line verdict is printed. Returns whether the verdict holds.
bool run_figure(const Figure& fig, bool smoke) {
  const sc::ScenarioSpec& spec = *sc::find_scenario(fig.scenario);
  sc::ScenarioRun run(spec);
  run.run_to(run.end_time_ns());
  const QueueValidator& v = *run.chi_validator();
  const bool attack_present = !spec.attacks.empty();
  const AlarmTally tally = fatih::detection::tally_alarms(v.rounds(), onset_round(spec));
  const bool ok = verdict_holds(tally, attack_present);
  if (smoke) {
    std::printf("%-22s %zu hits, %zu false alarms  %s\n", fig.scenario, tally.hits,
                tally.false_alarms, ok ? "ok" : "SMOKE FAILURE");
  } else {
    std::printf("== %s ==\n\n", fig.title);
    print_rounds(v, spec);
    print_verdict(run, tally, attack_present);
  }
  return ok;
}

int usage() {
  std::fprintf(stderr, "usage: chi_figures [--smoke | <figure>]\nfigures:\n");
  for (const Figure& f : kFigures) std::fprintf(stderr, "  %s\n", f.scenario);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) return usage();
  const std::string arg = argc == 2 ? argv[1] : "";
  if (arg.empty() || arg == "--smoke") {
    const bool smoke = !arg.empty();
    bool ok = true;
    for (const Figure& f : kFigures) {
      if (!smoke && &f != kFigures) std::printf("\n");
      ok = run_figure(f, smoke) && ok;
    }
    return smoke && !ok ? 1 : 0;
  }
  for (const Figure& f : kFigures) {
    if (arg == f.scenario) {
      run_figure(f, false);
      return 0;
    }
  }
  return usage();
}
