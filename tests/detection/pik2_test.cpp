#include "detection/pik2.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>

#include "attacks/attacks.hpp"
#include "detection/spec.hpp"
#include "obs/metrics.hpp"
#include "tests/detection/test_net.hpp"

namespace fatih::detection {
namespace {

using testing::LineNet;
using util::Duration;
using util::SimTime;

Pik2Config fast_config(std::int64_t rounds = 4, std::size_t k = 1) {
  Pik2Config cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.k = k;
  cfg.collect_settle = Duration::millis(150);
  cfg.exchange_timeout = Duration::millis(300);
  cfg.policy = TvPolicy::kContentOrder;
  cfg.rounds = rounds;
  return cfg;
}

struct Pik2Fixture {
  LineNet line{6};
  std::unique_ptr<Pik2Engine> engine;

  explicit Pik2Fixture(Pik2Config cfg = fast_config()) {
    engine = std::make_unique<Pik2Engine>(line.net, line.keys, *line.paths, line.terminals(),
                                          cfg);
    line.add_cbr(0, 5, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
    line.add_cbr(5, 0, 2, 150, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
    engine->start();
  }

  void run(double seconds = 6.0) { line.net.sim().run_until(SimTime::from_seconds(seconds)); }
};

TEST(Pik2, NoAttackNoSuspicions) {
  Pik2Fixture f;
  f.run();
  EXPECT_TRUE(f.engine->suspicions().empty());
}

TEST(Pik2, OnlyEndRoutersMonitor) {
  Pik2Fixture f;
  // k=1: every segment has length exactly 3. Router 2 on a 6-line is an
  // end of <0,1,2>, <2,3,4> and their reverses.
  for (const auto& seg : f.engine->monitored_by(2)) {
    EXPECT_TRUE(seg.is_end(2));
    EXPECT_EQ(seg.length(), 3U);
  }
  EXPECT_EQ(f.engine->monitored_by(2).size(), 4U);
}

TEST(Pik2, DropperSuspectedWithPrecisionKPlus2) {
  Pik2Fixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(3, SimTime::from_seconds(2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(3).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(2), 99));
  f.run();
  const auto& suspicions = f.engine->suspicions();
  ASSERT_FALSE(suspicions.empty());
  EXPECT_TRUE(check_accuracy(suspicions, truth, 3).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(suspicions, 3));
}

TEST(Pik2, SubtleDropperStillCaught) {
  // 10% drops of one flow only.
  Pik2Fixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(2, SimTime::from_seconds(1));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.1, SimTime::from_seconds(1), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 3).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 2));
}

TEST(Pik2, ModificationDetected) {
  Pik2Fixture f;
  GroundTruth truth;
  truth.mark_traffic_faulty(2, SimTime::from_seconds(2));
  attacks::FlowMatch match;
  f.line.net.router(2).set_forward_filter(std::make_shared<attacks::ModificationAttack>(
      match, 0.3, SimTime::from_seconds(2), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 3).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 2));
}

TEST(Pik2, ControlDroppingInteriorCausesTimeoutSuspicion) {
  // A protocol-faulty interior router that discards the summary exchange
  // is caught by the timeout rule (§5.2: "if the exchange operation
  // fails within a pre-specified timeout interval mu").
  Pik2Fixture f;
  GroundTruth truth;
  // The filter activates at t=2 s, during round 1's exchange phase: the
  // first sabotaged suspicion is attributed to round 1's interval.
  truth.mark_protocol_faulty(2, SimTime::from_seconds(1));
  struct ControlDrop final : sim::ForwardFilter {
    util::SimTime from;
    explicit ControlDrop(util::SimTime t) : from(t) {}
    sim::ForwardDecision on_forward(const sim::Packet& p, util::NodeId, const sim::Interface&,
                                    sim::Router& router) override {
      if (router.sim().now() >= from && p.is_control()) return sim::ForwardDecision::drop();
      return sim::ForwardDecision::forward();
    }
  };
  f.line.net.router(2).set_forward_filter(
      std::make_shared<ControlDrop>(SimTime::from_seconds(2)));
  f.run();
  bool timeout_suspicion = false;
  for (const auto& s : f.engine->suspicions()) {
    if (s.cause == "exchange-timeout" && s.segment.contains(2)) timeout_suspicion = true;
  }
  EXPECT_TRUE(timeout_suspicion);
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 3).accuracy_holds());
}

TEST(Pik2, WithheldSummarySuspected) {
  Pik2Fixture f;
  GroundTruth truth;
  truth.mark_protocol_faulty(0, SimTime::from_seconds(2));
  f.engine->set_report_mutator(0, [](SegmentSummary& s) { return s.round < 2; });
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  // The peer ends of r0's segments time out; suspected segments contain 0.
  bool found = false;
  for (const auto& s : f.engine->suspicions()) {
    if (s.segment.contains(0)) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 3).accuracy_holds());
}

TEST(Pik2, SamplingStillDetectsSustainedDropping) {
  auto cfg = fast_config(4);
  cfg.sample_keep_per_256 = 64;  // monitor ~25% of packets (§5.2.1)
  Pik2Fixture f(cfg);
  GroundTruth truth;
  truth.mark_traffic_faulty(3, SimTime::from_seconds(1));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(3).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.5, SimTime::from_seconds(1), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 3).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 3));
}

TEST(Pik2, LargerKGrowsPrecisionBound) {
  auto cfg = fast_config(4, /*k=*/2);
  Pik2Fixture f(cfg);
  GroundTruth truth;
  truth.mark_traffic_faulty(2, SimTime::from_seconds(2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(2), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  // Precision k+2 = 4.
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 4).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 2));
}

TEST(Pik2, ReconciliationCompressionDetectsEquivalently) {
  // Appendix-A compressed exchange: same detections, far fewer bytes.
  auto cfg = fast_config(4);
  cfg.policy = TvPolicy::kContent;
  cfg.compression = SummaryCompression::kReconcile;
  cfg.reconcile_bound = 48;
  Pik2Fixture f(cfg);
  GroundTruth truth;
  truth.mark_traffic_faulty(3, SimTime::from_seconds(2));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(3).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.1, SimTime::from_seconds(2), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 3).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 3));
}

TEST(Pik2, ReconciliationCleanRunStaysQuiet) {
  auto cfg = fast_config(4);
  cfg.policy = TvPolicy::kContent;
  cfg.compression = SummaryCompression::kReconcile;
  cfg.reconcile_bound = 48;
  Pik2Fixture f(cfg);
  f.run();
  EXPECT_TRUE(f.engine->suspicions().empty());
}

TEST(Pik2, ReconciliationSlashesExchangeBandwidth) {
  auto full_cfg = fast_config(4);
  full_cfg.policy = TvPolicy::kContent;
  Pik2Fixture full(full_cfg);
  full.run();
  auto recon_cfg = fast_config(4);
  recon_cfg.policy = TvPolicy::kContent;
  recon_cfg.compression = SummaryCompression::kReconcile;
  recon_cfg.reconcile_bound = 16;
  Pik2Fixture recon(recon_cfg);
  recon.run();
  ASSERT_GT(full.engine->exchange_bytes(), 0U);
  ASSERT_GT(recon.engine->exchange_bytes(), 0U);
  // 200 pps of 8-byte fingerprints per segment vs ~20 field elements.
  EXPECT_LT(recon.engine->exchange_bytes() * 4, full.engine->exchange_bytes());
}

TEST(Pik2, BloomCompressionDetectsSustainedDropping) {
  auto cfg = fast_config(4);
  cfg.policy = TvPolicy::kContent;
  cfg.compression = SummaryCompression::kBloom;
  cfg.thresholds.max_lost_packets = 2;
  Pik2Fixture f(cfg);
  GroundTruth truth;
  truth.mark_traffic_faulty(3, SimTime::from_seconds(1));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(3).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.3, SimTime::from_seconds(1), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 3).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 3));
}

TEST(Pik2, BloomCompressionCleanRunStaysQuiet) {
  auto cfg = fast_config(4);
  cfg.policy = TvPolicy::kContent;
  cfg.compression = SummaryCompression::kBloom;
  cfg.thresholds.max_lost_packets = 2;
  Pik2Fixture f(cfg);
  f.run();
  EXPECT_TRUE(f.engine->suspicions().empty());
}

TEST(Pik2, OversizedDifferenceStillSuspected) {
  // A drop rate that blows past the reconciliation bound must not escape:
  // an unreconcilable difference is itself a detection.
  auto cfg = fast_config(4);
  cfg.policy = TvPolicy::kContent;
  cfg.compression = SummaryCompression::kReconcile;
  cfg.reconcile_bound = 8;  // tiny bound, 100% drop blows through it
  Pik2Fixture f(cfg);
  GroundTruth truth;
  truth.mark_traffic_faulty(2, SimTime::from_seconds(1));
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(1), 99));
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 3).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 2));
}

TEST(Pik2, AdjacentColludersRequireK2) {
  // §5.2's motivating scenario: with AdjacentFault(2), two ADJACENT faulty
  // routers must both be covered. A dropper whose downstream neighbor is
  // protocol-faulty (suppresses its own summaries to shield short
  // segments) is still caught because k=2 also monitors the 3- and
  // 4-segments anchored at correct routers.
  auto cfg = fast_config(4, /*k=*/2);
  Pik2Fixture f(cfg);
  GroundTruth truth;
  truth.mark_traffic_faulty(2, SimTime::from_seconds(1));
  truth.mark_protocol_faulty(3, SimTime::origin());  // suppresses from round 0
  attacks::FlowMatch match;
  match.flow_ids = {1};
  f.line.net.router(2).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(1), 99));
  // r3 colludes: suppresses every summary it would send, so segments ending
  // at r3 yield only exchange-timeouts, never content evidence.
  f.engine->set_report_mutator(3, [](SegmentSummary&) { return false; });
  f.run();
  ASSERT_FALSE(f.engine->suspicions().empty());
  EXPECT_TRUE(check_accuracy(f.engine->suspicions(), truth, 4).accuracy_holds());
  EXPECT_TRUE(check_completeness_for(f.engine->suspicions(), 2));
  // Some CORRECT router must have raised evidence (not just the colluders'
  // neighbors timing out on r3): completeness from correct observers.
  bool correct_reporter = false;
  for (const auto& s : f.engine->suspicions()) {
    if (s.reporter != 2 && s.reporter != 3 && s.segment.contains(2)) correct_reporter = true;
  }
  EXPECT_TRUE(correct_reporter);
}

TEST(Pik2, BenignLossWithinThresholdTolerated) {
  sim::LinkConfig tight = testing::fast_link();
  tight.bandwidth_bps = 2e6;
  tight.queue_limit_bytes = 8000;
  LineNet line(5, tight);
  auto cfg = fast_config(4);
  cfg.thresholds.max_lost_fraction = 0.6;
  Pik2Engine engine(line.net, line.keys, *line.paths, line.terminals(), cfg);
  line.add_cbr(0, 4, 1, 400, SimTime::from_seconds(0.05), SimTime::from_seconds(3.9));
  engine.start();
  line.net.sim().run_until(SimTime::from_seconds(6));
  EXPECT_TRUE(engine.suspicions().empty());
}

// A well-signed summary from a protocol-faulty end (r5) that is not in the
// receiver's own form and shape is a TV failure of that segment and round:
// the receiver (r3, default kFull) never evaluates it with the sender's
// parameters. Each case below is a lie that a receiver trusting the peer's
// form would read out of bounds, pass, or stall on.
struct MalformedPeerRun {
  std::set<std::pair<routing::PathSegment, std::int64_t>> shipped;  ///< by r5
  std::set<std::pair<routing::PathSegment, std::int64_t>> failed;   ///< tv-failed at r3
  std::size_t other_suspicions = 0;  ///< any suspicion of a segment without r5
  obs::MetricsRegistry metrics;
};

void run_with_malformed_peer(MalformedPeerRun& out,
                             const std::function<void(SegmentSummary&)>& lie) {
  const auto cfg = fast_config();
  Pik2Fixture f(cfg);
  f.line.net.sim().set_metrics(&out.metrics);
  f.engine->set_report_mutator(5, [&out, &lie](SegmentSummary& s) {
    lie(s);
    out.shipped.emplace(s.segment, s.round);
    return true;
  });
  f.run();
  for (const auto& s : f.engine->suspicions()) {
    if (!s.segment.contains(5)) ++out.other_suspicions;
    if (s.reporter == 3 && s.cause == "tv-failed") {
      out.failed.emplace(s.segment, cfg.clock.round_of(s.interval.begin));
    }
  }
}

TEST(Pik2PeerForm, OneReconcileEvaluationIsTvFailureAndNeverReconciled) {
  // Reconciling one evaluation against reconcile_bound + 4 points would
  // read past the peer's vector.
  MalformedPeerRun run;
  run_with_malformed_peer(run, [](SegmentSummary& s) { s.recon_evals = {1}; });
  ASSERT_FALSE(run.shipped.empty());
  EXPECT_EQ(run.failed, run.shipped);
  EXPECT_EQ(run.other_suspicions, 0U);
  EXPECT_EQ(run.metrics.find_counter("reconcile.calls"), nullptr);
}

TEST(Pik2PeerForm, ZeroHashBloomDigestIsTvFailure) {
  // With bloom_hashes = 0 the Bloom estimate is 0/0 = NaN, which no
  // allowance comparison flags.
  MalformedPeerRun run;
  run_with_malformed_peer(run, [](SegmentSummary& s) {
    s.content.clear();
    s.bloom_words = {0};
    s.bloom_hashes = 0;
  });
  ASSERT_FALSE(run.shipped.empty());
  EXPECT_EQ(run.failed, run.shipped);
  EXPECT_EQ(run.other_suspicions, 0U);
}

TEST(Pik2PeerForm, HugeBloomHashCountIsTvFailureWithoutEvaluation) {
  // Rebuilding the receiver's filter with a million hashes per fingerprint
  // takes seconds, and it would then saturate to match this all-ones one.
  MalformedPeerRun run;
  run_with_malformed_peer(run, [](SegmentSummary& s) {
    s.content.clear();
    s.bloom_words = {~0ULL};
    s.bloom_hashes = 1'000'000;
  });
  ASSERT_FALSE(run.shipped.empty());
  EXPECT_EQ(run.failed, run.shipped);
  EXPECT_EQ(run.other_suspicions, 0U);
}

}  // namespace
}  // namespace fatih::detection
