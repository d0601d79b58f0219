// Ablation of Protocol chi's design choices (the knobs DESIGN.md calls
// out): length of the trusted calibration period and the magnitude of the
// router's processing jitter. For each cell: the calibrated sigma, false
// alarms on a clean congested run, and whether the queue-90%-gated attack
// is still caught.
//
// Expected shape: more calibration tightens sigma estimates; more jitter
// widens sigma (costing single-packet sensitivity) but never costs
// correctness — detection degrades gracefully, false alarms stay at zero.
#include <cstdio>

#include "detection/chi.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace fatih;

namespace {

struct Cell {
  double sigma = 0;
  std::size_t false_alarms = 0;
  bool detects = false;
};

/// The 16-round drop-tail figure mix with `learning_rounds` of calibration
/// and every router's processing jitter set to `jitter_ns`.
scenario::ScenarioSpec cell_spec(std::int64_t learning_rounds, std::int64_t jitter_ns) {
  scenario::ScenarioSpec spec =
      scenario::chi_bottleneck_spec("tab6_1_chi_ablation", 607, 16, false);
  spec.detector.learning_rounds = learning_rounds;
  spec.proc_jitter_ns = jitter_ns;
  return spec;
}

Cell run_cell(std::int64_t learning_rounds, std::int64_t jitter_ns) {
  Cell cell;
  {  // clean congested run
    scenario::ScenarioRun run(cell_spec(learning_rounds, jitter_ns));
    run.run_to(run.end_time_ns());
    const detection::QueueValidator& v = *run.chi_validator();
    cell.sigma = v.sigma();
    for (const auto& rs : v.rounds()) {
      if (rs.alarmed) ++cell.false_alarms;
    }
  }
  {  // attacked run: Fig. 6.7's queue>=90% attack, once calibration is done
    scenario::ScenarioSpec spec = cell_spec(learning_rounds, jitter_ns);
    spec.attacks = scenario::find_scenario("fig6_7_attack_q90")->attacks;
    spec.attacks.front().active_from_ns = (learning_rounds + 3) * 1'000'000'000;
    scenario::ScenarioRun run(spec);
    run.run_to(run.end_time_ns());
    for (const auto& rs : run.chi_validator()->rounds()) {
      if (rs.alarmed && rs.round >= learning_rounds + 2) cell.detects = true;
    }
  }
  return cell;
}

}  // namespace

int main() {
  std::printf("== Protocol chi ablation: calibration length x processing jitter ==\n\n");
  std::printf("%-10s %-12s | %10s %12s %10s\n", "learnRnds", "jitter(us)", "sigma(B)",
              "falseAlarms", "catchesQ90");
  for (std::int64_t learning : {2L, 3L, 6L}) {
    for (std::int64_t jitter_us : {0L, 50L, 200L}) {
      const Cell cell = run_cell(learning, jitter_us * 1000);
      std::printf("%-10lld %-12lld | %10.1f %12zu %10s\n",
                  static_cast<long long>(learning), static_cast<long long>(jitter_us),
                  cell.sigma, cell.false_alarms, cell.detects ? "yes" : "NO");
    }
  }
  std::printf("\nExpected: zero false alarms everywhere; sigma grows with jitter;\n"
              "the queue-gated attack stays detected across the sweep.\n");
  return 0;
}
