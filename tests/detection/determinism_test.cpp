// Determinism regression: identical seeds must produce byte-identical
// runs. This is the invariant the perf work (pooled event engine, packet
// move-through, flat per-round stores) was required to preserve — tie-break
// order in the event heap and iteration order of every accounting walk are
// all load-bearing for it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "detection/chi.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "tests/detection/churn_net.hpp"
#include "tests/detection/test_net.hpp"

namespace fatih::detection {
namespace {

using testing::ChurnNet;
using testing::LineNet;
using util::Duration;
using util::SimTime;

struct RunResult {
  std::uint64_t events_dispatched = 0;
  std::vector<std::string> suspicions;  // formatted, in raise order
  std::uint64_t rounds_invalidated = 0;
};

/// One full Π2 experiment: 5-router line, bidirectional CBR, a rate-drop
/// attacker at r2 from t=2s, four rounds. Everything seeded; no wall-clock
/// input anywhere.
RunResult run_pi2_fixture() {
  LineNet line{5};
  Pi2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.evaluate_settle = Duration::millis(300);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 4;
  Pi2Engine engine(line.net, line.keys, *line.paths, line.terminals(), cfg);
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  line.add_cbr(4, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  line.net.router(2).set_forward_filter(
      std::make_shared<attacks::RateDropAttack>(match, 1.0, SimTime::from_seconds(2), 99));
  engine.start();
  line.net.sim().run_until(SimTime::from_seconds(6));

  RunResult out;
  out.events_dispatched = line.net.sim().events_dispatched();
  for (const auto& s : engine.suspicions()) out.suspicions.push_back(s.to_string());
  return out;
}

TEST(Determinism, Pi2FixtureTwiceIsByteIdentical) {
  const RunResult a = run_pi2_fixture();
  const RunResult b = run_pi2_fixture();
  // The comparison must not be vacuous: the attack raises suspicions and
  // the run dispatches real work.
  ASSERT_FALSE(a.suspicions.empty());
  ASSERT_GT(a.events_dispatched, 1000U);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  ASSERT_EQ(a.suspicions.size(), b.suspicions.size());
  EXPECT_EQ(a.suspicions, b.suspicions);
}

/// The churn diamond with live link-state routing, a flapping link, and an
/// attacker — the most event-entangled fixture in the suite (hello timers,
/// LSA floods, SPF runs, epoch pushes, round invalidation all interleave
/// with data traffic). Shared by the Πk+2 and χ run-twice checks below.
struct ChurnHarness {
  ChurnNet n;
  ChurnHarness() {
    n.add_cbr(0, 2, 1, 400, 2.05, 13.5);
    attacks::FlowMatch match;
    match.flow_ids = {1};
    n.net.router(1).set_forward_filter(
        std::make_shared<attacks::RateDropAttack>(match, 0.3, SimTime::from_seconds(5.5), 99));
    ChurnNet::flap_schedule().arm(n.net);
  }
  void run() { n.net.sim().run_until(SimTime::from_seconds(14)); }
};

RunResult run_pik2_churn_fixture() {
  ChurnHarness h;
  Pik2Config cfg;
  cfg.clock = ChurnNet::clock();
  cfg.k = 1;
  cfg.collect_settle = Duration::millis(150);
  cfg.exchange_timeout = Duration::millis(500);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = 10;
  Pik2Engine engine(h.n.net, h.n.keys, *h.n.paths, ChurnNet::terminals(), cfg);
  engine.start();
  h.run();

  RunResult out;
  out.events_dispatched = h.n.net.sim().events_dispatched();
  for (const auto& s : engine.suspicions()) out.suspicions.push_back(s.to_string());
  out.rounds_invalidated = engine.rounds_invalidated();
  return out;
}

RunResult run_chi_churn_fixture() {
  ChurnHarness h;
  ChiConfig cfg;
  cfg.clock = ChurnNet::clock();
  cfg.settle = Duration::millis(400);
  cfg.grace = Duration::millis(200);
  cfg.learning_rounds = 3;
  cfg.rounds = 10;
  QueueValidator v(h.n.net, h.n.keys, *h.n.paths, 1, 2, cfg);
  v.start();
  h.run();

  RunResult out;
  out.events_dispatched = h.n.net.sim().events_dispatched();
  for (const auto& s : v.suspicions()) out.suspicions.push_back(s.to_string());
  out.rounds_invalidated = v.rounds_invalidated();
  return out;
}

TEST(Determinism, Pik2ChurnFixtureTwiceIsByteIdentical) {
  const RunResult a = run_pik2_churn_fixture();
  const RunResult b = run_pik2_churn_fixture();
  // Non-vacuous: the attacker is caught AND the flap invalidated rounds.
  ASSERT_FALSE(a.suspicions.empty());
  ASSERT_GT(a.rounds_invalidated, 0U);
  ASSERT_GT(a.events_dispatched, 1000U);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.suspicions, b.suspicions);
  EXPECT_EQ(a.rounds_invalidated, b.rounds_invalidated);
}

TEST(Determinism, ChiChurnFixtureTwiceIsByteIdentical) {
  const RunResult a = run_chi_churn_fixture();
  const RunResult b = run_chi_churn_fixture();
  ASSERT_FALSE(a.suspicions.empty());
  ASSERT_GT(a.rounds_invalidated, 0U);
  ASSERT_GT(a.events_dispatched, 1000U);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.suspicions, b.suspicions);
  EXPECT_EQ(a.rounds_invalidated, b.rounds_invalidated);
}

}  // namespace
}  // namespace fatih::detection
