#include "detection/chi.hpp"

#include <gtest/gtest.h>

#include "attacks/attacks.hpp"
#include "detection/spec.hpp"
#include "routing/install.hpp"
#include "traffic/sources.hpp"
#include "traffic/tcp.hpp"

namespace fatih::detection {
namespace {

using util::Duration;
using util::NodeId;
using util::SimTime;

// Fig. 6.4's "simple topology": two source routers feeding r, whose output
// queue toward rd is the bottleneck being validated.
//
//   s1(0) \.
//           r(2) ---bottleneck--- rd(3)
//   s2(1) /
struct ChiNet {
  sim::Network net;
  crypto::KeyRegistry keys{31337};
  std::shared_ptr<routing::RoutingTables> tables;
  std::unique_ptr<PathCache> paths;
  std::vector<std::unique_ptr<traffic::CbrSource>> cbr;
  std::vector<std::unique_ptr<traffic::OnOffSource>> onoff;
  NodeId s1, s2, r, rd;

  explicit ChiNet(std::uint64_t seed = 5, double bottleneck_bps = 1e7,
                  std::size_t qlimit = 50000)
      : net(seed) {
    s1 = net.add_router("s1").id();
    s2 = net.add_router("s2").id();
    r = net.add_router("r").id();
    rd = net.add_router("rd").id();
    sim::LinkConfig edge;
    edge.bandwidth_bps = 1e8;
    edge.delay = Duration::millis(1);
    sim::LinkConfig core;
    core.bandwidth_bps = bottleneck_bps;
    core.delay = Duration::millis(2);
    core.queue_limit_bytes = qlimit;
    net.connect(s1, r, edge);
    net.connect(s2, r, edge);
    net.connect(r, rd, core);
    tables = std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
    routing::install_static_routes(net, *tables);
    paths = std::make_unique<PathCache>(tables);
    for (NodeId n : {s1, s2, r, rd}) {
      net.router(n).set_processing_delay(Duration::micros(20), Duration::micros(50));
    }
  }

  void add_cbr(NodeId src, std::uint32_t flow, double pps, double start, double stop) {
    traffic::CbrSource::Config cfg;
    cfg.src = src;
    cfg.dst = rd;
    cfg.flow_id = flow;
    cfg.rate_pps = pps;
    cfg.start = SimTime::from_seconds(start);
    cfg.stop = SimTime::from_seconds(stop);
    cbr.push_back(std::make_unique<traffic::CbrSource>(net, cfg));
  }

  void add_onoff(NodeId src, std::uint32_t flow, double pps, double start, double stop) {
    traffic::OnOffSource::Config cfg;
    cfg.src = src;
    cfg.dst = rd;
    cfg.flow_id = flow;
    cfg.on_rate_pps = pps;
    cfg.mean_on = Duration::millis(150);
    cfg.mean_off = Duration::millis(250);
    cfg.start = SimTime::from_seconds(start);
    cfg.stop = SimTime::from_seconds(stop);
    onoff.push_back(std::make_unique<traffic::OnOffSource>(net, cfg));
  }
};

ChiConfig fast_chi(std::int64_t rounds = 10) {
  ChiConfig cfg;
  cfg.clock = RoundClock{SimTime::origin(), Duration::seconds(1)};
  cfg.settle = Duration::millis(400);
  cfg.grace = Duration::millis(200);
  cfg.learning_rounds = 3;
  cfg.rounds = rounds;
  return cfg;
}

TEST(Chi, CalibrationLearnsErrorModel) {
  ChiNet n;
  n.add_cbr(n.s1, 1, 500, 0.05, 9.5);
  n.add_onoff(n.s2, 2, 1500, 0.05, 9.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi());
  v.start();
  n.net.sim().run_until(SimTime::from_seconds(12));
  EXPECT_TRUE(v.learned());
  EXPECT_GT(v.error_stats().count(), 500U);
  // Jitter-induced noise is small relative to a packet.
  EXPECT_LT(v.sigma(), 2000.0);
}

TEST(Chi, PredictionExactWithoutJitter) {
  ChiNet n;
  for (NodeId node : {n.s1, n.s2, n.r, n.rd}) {
    n.net.router(node).set_processing_delay(Duration::micros(20), {});
  }
  n.add_cbr(n.s1, 1, 500, 0.05, 9.5);
  n.add_cbr(n.s2, 2, 300, 0.05, 9.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi());
  v.start();
  n.net.sim().run_until(SimTime::from_seconds(12));
  ASSERT_TRUE(v.learned());
  ASSERT_GT(v.error_stats().count(), 100U);
  // With deterministic processing the queue replay is essentially exact;
  // the only residual noise comes from unresolvable event-ordering ties
  // (a departure and an unrelated arrival at the same instant, including
  // the validator's own paced report fragments). Well under one packet.
  EXPECT_NEAR(v.error_stats().mean(), 0.0, 30.0);
  EXPECT_LT(v.error_stats().stddev(), 250.0);
}

TEST(Chi, NoAttackNoAlarmsDespiteCongestion) {
  // The headline property (Fig. 6.5): genuine congestive losses must not
  // raise alarms once the congestion ambiguity is resolved.
  ChiNet n;
  n.add_cbr(n.s1, 1, 600, 0.05, 11.5);
  n.add_onoff(n.s2, 2, 1400, 0.05, 11.5);  // bursts overflow the bottleneck
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(11));
  v.start();
  n.net.sim().run_until(SimTime::from_seconds(13));
  ASSERT_TRUE(v.learned());
  // Congestion genuinely happened...
  std::uint64_t drops = 0;
  for (const auto& rs : v.rounds()) drops += rs.drops;
  EXPECT_GT(drops, 20U);
  // ...yet no round alarmed.
  EXPECT_TRUE(v.suspicions().empty());
}

TEST(Chi, Drop20PercentOfVictimDetected) {
  // Attack 1 (Fig. 6.6): drop 20% of the selected flow.
  ChiNet n;
  n.add_cbr(n.s1, 1, 400, 0.05, 11.5);
  n.add_cbr(n.s2, 2, 300, 0.05, 11.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(11));
  v.start();
  attacks::FlowMatch match;
  match.flow_ids = {1};
  n.net.router(n.r).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.2, SimTime::from_seconds(6), 77));
  n.net.sim().run_until(SimTime::from_seconds(13));
  ASSERT_FALSE(v.suspicions().empty());
  for (const auto& s : v.suspicions()) {
    EXPECT_TRUE(s.segment.contains(n.r));
    EXPECT_GE(s.interval.begin, SimTime::from_seconds(5));
  }
}

TEST(Chi, QueueNinetyPercentAttackDetected) {
  // Attack 2 (Fig. 6.7): drop the victim only when the queue is 90% full
  // — crafted to masquerade as congestion; chi's per-packet prediction
  // still sees ~10% headroom and flags it.
  ChiNet n;
  n.add_cbr(n.s1, 1, 500, 0.05, 13.5);
  n.add_onoff(n.s2, 2, 1300, 0.05, 13.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(13));
  v.start();
  attacks::FlowMatch match;
  match.flow_ids = {1};
  n.net.router(n.r).set_forward_filter(std::make_shared<attacks::QueueThresholdDropAttack>(
      match, 0.9, 1.0, SimTime::from_seconds(6), 77));
  n.net.sim().run_until(SimTime::from_seconds(15));
  EXPECT_FALSE(v.suspicions().empty());
}

TEST(Chi, QueueNinetyFivePercentAttackDetected) {
  // Attack 3 (Fig. 6.8): same with a 95% trigger; finer margin.
  ChiNet n;
  n.add_cbr(n.s1, 1, 500, 0.05, 13.5);
  n.add_onoff(n.s2, 2, 1300, 0.05, 13.5);
  auto cfg = fast_chi(13);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, cfg);
  v.start();
  attacks::FlowMatch match;
  match.flow_ids = {1};
  n.net.router(n.r).set_forward_filter(std::make_shared<attacks::QueueThresholdDropAttack>(
      match, 0.95, 1.0, SimTime::from_seconds(6), 77));
  n.net.sim().run_until(SimTime::from_seconds(15));
  EXPECT_FALSE(v.suspicions().empty());
}

TEST(Chi, SynDropDetectedDespiteTinyVolume) {
  // Attack 4 (Fig. 6.9): kill connection attempts by dropping SYNs. The
  // volume is negligible — single-packet precision is what catches it.
  ChiNet n;
  n.add_cbr(n.s1, 1, 200, 0.05, 11.5);  // light background, no congestion
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(11));
  v.start();
  attacks::FlowMatch match;
  match.syn_only = true;
  n.net.router(n.r).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 1.0, SimTime::from_seconds(5), 77));
  traffic::TcpFlow tcp(n.net, n.s2, n.rd, 50, {});
  tcp.start(SimTime::from_seconds(6.2));
  n.net.sim().run_until(SimTime::from_seconds(13));
  EXPECT_FALSE(tcp.connected());
  ASSERT_FALSE(v.suspicions().empty());
  bool single = false;
  for (const auto& s : v.suspicions()) {
    if (s.cause == "single-loss-test") single = true;
  }
  EXPECT_TRUE(single);
}

TEST(Chi, MissingSelfReportSuspected) {
  ChiNet n;
  n.add_cbr(n.s1, 1, 300, 0.05, 9.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(9));
  v.set_self_report_mutator([&n](ChiReport& rep) {
    return n.net.sim().now() < SimTime::from_seconds(6) || rep.round < 5;
  });
  v.start();
  n.net.sim().run_until(SimTime::from_seconds(11));
  bool missing = false;
  for (const auto& s : v.suspicions()) {
    if (s.cause == "missing-report") missing = true;
  }
  EXPECT_TRUE(missing);
}

TEST(Chi, PhantomSelfReportImplicatesLiar) {
  // A protocol-faulty r pads its self-report with packets it never sent,
  // trying to inflate qpred; the phantoms never exit, so they register as
  // drops with ample headroom and trip the single-packet test.
  ChiNet n;
  n.add_cbr(n.s1, 1, 300, 0.05, 9.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(9));
  util::Rng rng(4242);
  v.set_self_report_mutator([&](ChiReport& rep) {
    if (rep.round >= 5) {
      for (int i = 0; i < 20; ++i) {
        ChiRecord fake;
        fake.fp = rng.next_u64();
        fake.size_bytes = 1000;
        fake.flow_id = 1;
        fake.ts = SimTime::from_seconds(static_cast<double>(rep.round) + 0.05 * i);
        rep.records.push_back(fake);
      }
    }
    return true;
  });
  v.start();
  n.net.sim().run_until(SimTime::from_seconds(11));
  EXPECT_FALSE(v.suspicions().empty());
}

TEST(Chi, RoundStatsAccounting) {
  ChiNet n;
  n.add_cbr(n.s1, 1, 500, 0.05, 7.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(7));
  v.start();
  n.net.sim().run_until(SimTime::from_seconds(9));
  ASSERT_GE(v.rounds().size(), 7U);
  for (const auto& rs : v.rounds()) {
    // Clean network: every entry eventually exits.
    EXPECT_EQ(rs.drops, 0U) << "round " << rs.round;
    if (rs.round >= 1 && rs.round < 7) {
      EXPECT_NEAR(rs.entries, 500.0, 30.0);
    }
  }
}

TEST(Chi, MaliciousDelayDetected) {
  // Conservation of timeliness (§2.4.1): the adversary holds victim
  // packets for 100 ms before forwarding — no loss at all, so every
  // loss-based test stays silent, but the sojourn bound cannot be met.
  ChiNet n;
  n.add_cbr(n.s1, 1, 300, 0.05, 11.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(11));
  v.start();
  attacks::FlowMatch match;
  match.flow_ids = {1};
  n.net.router(n.r).set_forward_filter(std::make_shared<attacks::ReorderAttack>(
      match, 0.2, Duration::millis(100), SimTime::from_seconds(6), 77));
  n.net.sim().run_until(SimTime::from_seconds(13));
  bool delay_alarm = false;
  for (const auto& s : v.suspicions()) {
    if (s.cause == "delay-test") delay_alarm = true;
  }
  EXPECT_TRUE(delay_alarm);
}

TEST(Chi, QueueingDelayNotMistakenForAttack) {
  // Genuine congestion queues packets up to the full drain time; the
  // timeliness test must not fire on that.
  ChiNet n;
  n.add_cbr(n.s1, 1, 600, 0.05, 11.5);
  n.add_onoff(n.s2, 2, 1400, 0.05, 11.5);
  QueueValidator v(n.net, n.keys, *n.paths, n.r, n.rd, fast_chi(11));
  v.start();
  n.net.sim().run_until(SimTime::from_seconds(13));
  for (const auto& s : v.suspicions()) {
    EXPECT_NE(s.cause, "delay-test");
  }
  std::uint64_t delayed = 0;
  for (const auto& rs : v.rounds()) delayed += rs.delayed;
  EXPECT_EQ(delayed, 0U);
}

TEST(Chi, HostNeighborsReportToo) {
  // An end host directly attached to r participates as a reporter for the
  // traffic it feeds into the monitored queue.
  sim::Network net(99);
  crypto::KeyRegistry keys{31337};
  const NodeId h = net.add_host("h").id();
  const NodeId r = net.add_router("r").id();
  const NodeId rd = net.add_router("rd").id();
  sim::LinkConfig edge;
  edge.bandwidth_bps = 1e8;
  edge.delay = Duration::millis(1);
  sim::LinkConfig core;
  core.bandwidth_bps = 1e7;
  core.delay = Duration::millis(2);
  core.queue_limit_bytes = 50000;
  net.connect(h, r, edge);
  net.connect(r, rd, core);
  auto tables = std::make_shared<routing::RoutingTables>(routing::Topology::from_network(net));
  routing::install_static_routes(net, *tables);
  PathCache paths(tables);
  net.router(r).set_processing_delay(Duration::micros(20), Duration::micros(50));

  traffic::CbrSource::Config c;
  c.src = h;
  c.dst = rd;
  c.flow_id = 1;
  c.rate_pps = 300;
  c.start = SimTime::from_seconds(0.05);
  c.stop = SimTime::from_seconds(9.5);
  traffic::CbrSource src(net, c);

  QueueValidator v(net, keys, paths, r, rd, fast_chi(9));
  v.start();
  attacks::FlowMatch match;
  match.flow_ids = {1};
  net.router(r).set_forward_filter(std::make_shared<attacks::RateDropAttack>(
      match, 0.3, SimTime::from_seconds(5), 77));
  net.sim().run_until(SimTime::from_seconds(11));
  ASSERT_TRUE(v.learned());
  EXPECT_FALSE(v.suspicions().empty());
}

TEST(ChiVerdict, OnlyAlarmsFromTheOnsetRoundOnAreHits) {
  std::vector<QueueValidator::RoundStats> rounds(10);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    rounds[i].round = static_cast<std::int64_t>(i);
    rounds[i].alarmed = i >= 6;
  }
  // Onset in round 8: rounds 8 and 9 are hits; the alarms in rounds 6 and
  // 7 came before any attack and are false, the round just before the
  // onset included.
  const AlarmTally attacked = tally_alarms(rounds, 8);
  EXPECT_EQ(attacked.hits, 2u);
  EXPECT_EQ(attacked.false_alarms, 2u);
  // No attack at all: every alarm is false.
  const AlarmTally clean = tally_alarms(rounds, std::nullopt);
  EXPECT_EQ(clean.hits, 0u);
  EXPECT_EQ(clean.false_alarms, 4u);
}

TEST(ChiEngine, MonitorsAllRouterQueues) {
  ChiNet n;
  n.add_cbr(n.s1, 1, 200, 0.05, 6.5);
  ChiEngine engine(n.net, n.keys, *n.paths, fast_chi(6));
  engine.monitor_all();
  engine.start();
  n.net.sim().run_until(SimTime::from_seconds(8));
  // 3 duplex links = 6 simplex router-router queues.
  EXPECT_EQ(engine.validators().size(), 6U);
  EXPECT_TRUE(engine.all_suspicions().empty());
}

}  // namespace
}  // namespace fatih::detection
