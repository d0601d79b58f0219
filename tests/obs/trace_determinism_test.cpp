// The observability acceptance test: two identically-seeded runs of the
// churn scenario (all three detection engines, an attacker, a link flap
// on a live link-state fabric) must serialize byte-identical traces and
// metrics snapshots. This is the property that makes the trace sink a
// legitimate test/bench instrument — if observation perturbed the run or
// recorded nondeterministically, figure regeneration and trace-based
// assertions would be meaningless. The same run with nothing attached
// must also match the observed one: a sink observes, it never perturbs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "detection/chi.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "tests/detection/churn_net.hpp"

namespace fatih::detection {
namespace {

using util::Duration;
using util::SimTime;

constexpr std::int64_t kRounds = 14;
constexpr double kEndS = 18.0;

/// Everything one run leaves behind, serialized.
struct RunRecord {
  std::string trace_jsonl;
  std::string metrics_json;
  std::uint64_t trace_recorded = 0;
  DetectorCounters pi2_counters;
  DetectorCounters pik2_counters;
  DetectorCounters chi_counters;
  ReliableChannel::Stats reliable;
  std::vector<std::string> suspicions;  ///< pi2, then pik2, then chi
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dispatched = 0;
};

RunRecord run_once(std::uint64_t seed, bool observed = true) {
  obs::TraceSink sink;
  obs::MetricsRegistry metrics;

  RunRecord rec;
  testing::ChurnNet n(seed);
  if (observed) n.net.attach_observability(&sink, &metrics);
  for (util::NodeId r = 0; r < 4; ++r) {
    n.net.router(r).add_forward_tap(
        [&rec](const sim::Packet&, util::NodeId, std::size_t, SimTime) { ++rec.forwarded; });
    n.net.router(r).add_local_handler(
        [&rec](const sim::Packet&, util::NodeId, SimTime) { ++rec.delivered; });
  }
  n.add_cbr(0, 2, /*flow=*/1, /*pps=*/400.0, /*start=*/2.05, /*stop=*/16.5);

  attacks::FlowMatch match;
  match.flow_ids = {1};
  n.net.router(1).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.3, SimTime::from_seconds(5.5), 99));

  Pi2Config p2;
  p2.clock = testing::ChurnNet::clock();
  p2.k = 1;
  p2.collect_settle = Duration::millis(150);
  p2.evaluate_settle = Duration::millis(300);
  p2.policy = TvPolicy::kContentOrder;
  p2.rounds = kRounds;
  auto pi2 = std::make_unique<Pi2Engine>(n.net, n.keys, *n.paths,
                                         testing::ChurnNet::terminals(), p2);

  Pik2Config pk;
  pk.clock = testing::ChurnNet::clock();
  pk.k = 1;
  pk.collect_settle = Duration::millis(150);
  pk.exchange_timeout = Duration::millis(500);
  pk.policy = TvPolicy::kContentOrder;
  pk.rounds = kRounds;
  pk.reliable.enabled = true;
  auto pik2 = std::make_unique<Pik2Engine>(n.net, n.keys, *n.paths,
                                           testing::ChurnNet::terminals(), pk);

  ChiConfig cc;
  cc.clock = testing::ChurnNet::clock();
  cc.settle = Duration::millis(400);
  cc.grace = Duration::millis(200);
  cc.learning_rounds = 3;
  cc.rounds = kRounds;
  auto chi = std::make_unique<QueueValidator>(n.net, n.keys, *n.paths,
                                              /*owner=*/1, /*peer=*/2, cc);

  testing::ChurnNet::flap_schedule().arm(n.net);
  pi2->start();
  pik2->start();
  chi->start();
  if (observed) sink.annotate(SimTime::origin(), "COMMISSION");
  n.net.sim().run_until(SimTime::from_seconds(kEndS));

  rec.trace_jsonl = sink.to_jsonl();
  rec.metrics_json = metrics.to_json();
  rec.trace_recorded = sink.recorded();
  rec.pi2_counters = pi2->counters();
  rec.pik2_counters = pik2->counters();
  rec.chi_counters = chi->counters();
  rec.reliable = pik2->channel()->stats();
  for (const auto* list : {&pi2->suspicions(), &pik2->suspicions(), &chi->suspicions()}) {
    for (const Suspicion& x : *list) rec.suspicions.push_back(x.to_string());
  }
  rec.dispatched = n.net.sim().events_dispatched();
  return rec;
}

void expect_counters_eq(const DetectorCounters& x, const DetectorCounters& y) {
  EXPECT_EQ(x.rounds_opened, y.rounds_opened);
  EXPECT_EQ(x.rounds_evaluated, y.rounds_evaluated);
  EXPECT_EQ(x.rounds_invalidated, y.rounds_invalidated);
  EXPECT_EQ(x.suspicions, y.suspicions);
}

TEST(TraceDeterminism, IdenticalSeedsProduceByteIdenticalOutput) {
  const RunRecord r1 = run_once(/*seed=*/7);
  const RunRecord r2 = run_once(/*seed=*/7);

  // Non-vacuous: the scenario actually produced a substantial trace.
  EXPECT_GT(r1.trace_recorded, 100U);
  EXPECT_FALSE(r1.metrics_json.empty());

  // The headline property.
  EXPECT_EQ(r1.trace_jsonl, r2.trace_jsonl);
  EXPECT_EQ(r1.metrics_json, r2.metrics_json);
  EXPECT_EQ(r1.trace_recorded, r2.trace_recorded);
  expect_counters_eq(r1.pi2_counters, r2.pi2_counters);
  expect_counters_eq(r1.pik2_counters, r2.pik2_counters);
  expect_counters_eq(r1.chi_counters, r2.chi_counters);
}

TEST(TraceDeterminism, AttachingObservabilityLeavesTheRunUnchanged) {
  const RunRecord detached = run_once(/*seed=*/7, /*observed=*/false);
  const RunRecord attached = run_once(/*seed=*/7, /*observed=*/true);

  // Non-vacuous: the detached run recorded nothing, the attached one did,
  // and the scenario raised suspicions for the comparison to cover.
  EXPECT_EQ(detached.trace_recorded, 0U);
  EXPECT_GT(attached.trace_recorded, 100U);
  EXPECT_FALSE(attached.suspicions.empty());

  expect_counters_eq(detached.pi2_counters, attached.pi2_counters);
  expect_counters_eq(detached.pik2_counters, attached.pik2_counters);
  expect_counters_eq(detached.chi_counters, attached.chi_counters);
  EXPECT_EQ(detached.suspicions, attached.suspicions);
  EXPECT_GT(attached.forwarded, 0U);
  EXPECT_EQ(detached.forwarded, attached.forwarded);
  EXPECT_EQ(detached.delivered, attached.delivered);
  EXPECT_EQ(detached.dispatched, attached.dispatched);
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  // The converse guard: if every seed serialized identically, the
  // determinism assertion above would be vacuous.
  const RunRecord r1 = run_once(/*seed=*/7);
  const RunRecord r2 = run_once(/*seed=*/8);
  EXPECT_NE(r1.trace_jsonl, r2.trace_jsonl);
}

TEST(TraceDeterminism, EveryInstrumentedLayerAppearsInTheTrace) {
  obs::TraceSink sink;
  obs::MetricsRegistry metrics;
  {
    // Re-run once with the sink shared so we can query the live objects.
    testing::ChurnNet n(7);
    n.net.attach_observability(&sink, &metrics);
    n.add_cbr(0, 2, 1, 400.0, 2.05, 16.5);
    attacks::FlowMatch match;
    match.flow_ids = {1};
    n.net.router(1).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
        match, 0.3, SimTime::from_seconds(5.5), 99));
    Pik2Config pk;
    pk.clock = testing::ChurnNet::clock();
    pk.k = 1;
    pk.collect_settle = Duration::millis(150);
    pk.exchange_timeout = Duration::millis(500);
    pk.policy = TvPolicy::kContentOrder;
    pk.rounds = kRounds;
    pk.reliable.enabled = true;
    Pik2Engine pik2(n.net, n.keys, *n.paths, testing::ChurnNet::terminals(), pk);
    testing::ChurnNet::flap_schedule().arm(n.net);
    pik2.start();
    n.net.sim().run_until(SimTime::from_seconds(kEndS));

    // The engine's introspection counters and the registry mirror agree.
    const DetectorCounters& c = pik2.counters();
    EXPECT_EQ(metrics.counter_value("pik2.rounds_opened"), c.rounds_opened);
    EXPECT_EQ(metrics.counter_value("pik2.rounds_evaluated"), c.rounds_evaluated);
    EXPECT_EQ(metrics.counter_value("pik2.rounds_invalidated"), c.rounds_invalidated);
    EXPECT_EQ(metrics.counter_value("pik2.suspicions"), c.suspicions);
    EXPECT_GT(c.rounds_invalidated, 0U);  // the flap straddled rounds

    // Reliable transport counters mirror the channel stats.
    ASSERT_NE(pik2.channel(), nullptr);
    const ReliableChannel::Stats& rs = pik2.channel()->stats();
    EXPECT_EQ(metrics.counter_value("reliable.messages"), rs.messages);
    EXPECT_EQ(metrics.counter_value("reliable.transmissions"), rs.transmissions);
    EXPECT_EQ(metrics.counter_value("reliable.retransmits"), rs.retransmits);
    EXPECT_EQ(metrics.counter_value("reliable.failures"), rs.failures);
    EXPECT_EQ(metrics.counter_value("reliable.acks_received"), rs.acks_received);
    EXPECT_GT(rs.messages, 0U);
  }

  // Every layer that claims instrumentation shows up.
  obs::Timeline tl(sink);
  using obs::TraceCategory;
  using obs::TraceCode;
  EXPECT_TRUE(tl.first(TraceCategory::kQueue).has_value());          // sim enqueue
  EXPECT_TRUE(tl.first(TraceCategory::kDrop).has_value());           // attacker drops
  EXPECT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kSpfRun).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kLinkDown).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kLinkUp).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kRouteChange).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRound, TraceCode::kRoundOpen).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kRound, TraceCode::kRoundInvalidated).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kExchange, TraceCode::kExchangeSend).has_value());
  EXPECT_TRUE(tl.first(TraceCategory::kSuspicion).has_value());
  // Registry saw the sim hot path.
  EXPECT_GT(metrics.counter_value("sim.enqueued"), 0U);
  EXPECT_GT(metrics.counter_value("sim.forwarded"), 0U);
  EXPECT_GT(metrics.counter_value("sim.drop.malicious"), 0U);
  EXPECT_GT(metrics.counter_value("routing.spf_runs"), 0U);
}

}  // namespace
}  // namespace fatih::detection
