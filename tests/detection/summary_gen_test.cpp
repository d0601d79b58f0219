#include "detection/summary_gen.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "attacks/attacks.hpp"
#include "tests/detection/churn_net.hpp"
#include "tests/detection/test_net.hpp"

namespace fatih::detection {
namespace {

using testing::LineNet;
using util::Duration;
using util::NodeId;
using util::SimTime;

RoundClock one_second_rounds() { return RoundClock{SimTime::origin(), Duration::seconds(1)}; }

TEST(SummaryGenerator, InteriorRouterRecordsAlignedTraffic) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  line.add_cbr(0, 4, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(0.9));
  line.net.sim().run_until(SimTime::from_seconds(2));
  const auto summary = gen.take_summary(seg, 0);
  EXPECT_NEAR(static_cast<double>(summary.counters.packets), 80.0, 2.0);
  EXPECT_EQ(summary.content.size(), summary.counters.packets);
}

TEST(SummaryGenerator, SinkRecordsAtReceive) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 3, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 2);
  line.add_cbr(0, 4, 1, 50, SimTime::from_seconds(0.1), SimTime::from_seconds(0.9));
  line.net.sim().run_until(SimTime::from_seconds(2));
  const auto summary = gen.take_summary(seg, 0);
  EXPECT_NEAR(static_cast<double>(summary.counters.packets), 40.0, 2.0);
}

TEST(SummaryGenerator, UpstreamAndDownstreamAgreeOnCleanTraffic) {
  LineNet line(5);
  SummaryGenerator up(line.net, line.keys, 1, one_second_rounds(), *line.paths);
  SummaryGenerator down(line.net, line.keys, 3, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  up.monitor(seg, 0);
  down.monitor(seg, 2);
  line.add_cbr(0, 4, 1, 200, SimTime::from_seconds(0.05), SimTime::from_seconds(0.95));
  line.net.sim().run_until(SimTime::from_seconds(2));
  const auto s_up = up.take_summary(seg, 0);
  const auto s_down = down.take_summary(seg, 0);
  ASSERT_GT(s_up.counters.packets, 0U);
  EXPECT_EQ(s_up.counters.packets, s_down.counters.packets);
  // Same fingerprints in the same order.
  EXPECT_EQ(s_up.content, s_down.content);
}

TEST(SummaryGenerator, OffSegmentTrafficNotRecorded) {
  // Traffic 3 -> 4 does not traverse <1,2,3>; the generator at 2 must not
  // charge it to that segment.
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  line.add_cbr(3, 4, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(0.9));
  line.net.sim().run_until(SimTime::from_seconds(2));
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, 0U);
}

TEST(SummaryGenerator, ReverseDirectionNotRecorded) {
  // Traffic 4 -> 0 traverses the reverse segment <3,2,1>, not <1,2,3>.
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  line.add_cbr(4, 0, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(0.9));
  line.net.sim().run_until(SimTime::from_seconds(2));
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, 0U);
}

TEST(SummaryGenerator, BucketsByOriginationRound) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  // 10 pps continuously across rounds 0..2.
  line.add_cbr(0, 4, 1, 10, SimTime::from_seconds(0.05), SimTime::from_seconds(2.95));
  line.net.sim().run_until(SimTime::from_seconds(4));
  const auto r0 = gen.take_summary(seg, 0);
  const auto r1 = gen.take_summary(seg, 1);
  const auto r2 = gen.take_summary(seg, 2);
  EXPECT_NEAR(static_cast<double>(r0.counters.packets), 10.0, 1.0);
  EXPECT_NEAR(static_cast<double>(r1.counters.packets), 10.0, 1.0);
  EXPECT_NEAR(static_cast<double>(r2.counters.packets), 10.0, 1.0);
}

TEST(SummaryGenerator, TakeSummaryConsumes) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  line.add_cbr(0, 4, 1, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(0.5));
  line.net.sim().run_until(SimTime::from_seconds(2));
  EXPECT_GT(gen.take_summary(seg, 0).counters.packets, 0U);
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, 0U);  // already taken
}

TEST(SummaryGenerator, SamplingKeepsSubset) {
  LineNet line(5);
  SummaryGenerator full(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  SummaryGenerator sampled(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  full.monitor(seg, 1, 256);
  sampled.monitor(seg, 1, 64);  // keep ~25%
  line.add_cbr(0, 4, 1, 1000, SimTime::from_seconds(0.05), SimTime::from_seconds(0.95));
  line.net.sim().run_until(SimTime::from_seconds(2));
  const auto all = full.take_summary(seg, 0);
  const auto some = sampled.take_summary(seg, 0);
  ASSERT_GT(all.counters.packets, 800U);
  const double keep_ratio = static_cast<double>(some.counters.packets) /
                            static_cast<double>(all.counters.packets);
  EXPECT_NEAR(keep_ratio, 0.25, 0.08);
}

TEST(SummaryGenerator, ControlTrafficExcluded) {
  LineNet line(5);
  SummaryGenerator gen(line.net, line.keys, 2, one_second_rounds(), *line.paths);
  const routing::PathSegment seg{1, 2, 3};
  gen.monitor(seg, 1);
  // Send a control packet along the segment.
  sim::PacketHeader hdr;
  hdr.src = 0;
  hdr.dst = 4;
  hdr.proto = sim::Protocol::kControl;
  const sim::Packet p = line.net.make_packet(hdr, 100);
  line.net.sim().schedule_at(SimTime::from_seconds(0.1),
                             [&] { line.net.router(0).originate(p); });
  line.net.sim().run_until(SimTime::from_seconds(1));
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, 0U);
}

TEST(SummaryGenerator, JudgesEachPacketAgainstTheEpochItWasCreatedIn) {
  // The installed routes never change, so r0 -> r2 packets keep crossing
  // r1; only the path oracle moves them onto the detour, from 1 s on. The
  // generator at r1 must record what was created before that epoch and
  // nothing created after it, although by then it has already resolved
  // (r0, r2) against the primary path.
  sim::Network net(1);
  const auto primary = testing::add_diamond(net);
  routing::install_static_routes(net, *primary);
  const auto detour = testing::diamond_tables(false);
  PathCache paths(primary);
  crypto::KeyRegistry keys(777);
  const RoundClock clock = one_second_rounds();
  SummaryGenerator gen(net, keys, 1, clock, paths);
  const routing::PathSegment seg{0, 1, 2};
  gen.monitor(seg, 1);

  // r0 -> r2 packets r1 forwarded to r2, by the round they were created in.
  std::array<std::uint64_t, 2> crossed{};
  net.router(1).add_forward_tap(
      [&](const sim::Packet& p, NodeId /*prev*/, std::size_t out, SimTime /*now*/) {
        if (p.hdr.src == 0 && p.hdr.dst == 2 && net.router(1).interface(out).peer() == 2) {
          ++crossed.at(static_cast<std::size_t>(clock.round_of(p.created)));
        }
      });
  traffic::CbrSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 2;
  cfg.flow_id = 1;
  cfg.rate_pps = 100;
  cfg.start = SimTime::from_seconds(0.1);
  cfg.stop = SimTime::from_seconds(1.9);
  traffic::CbrSource source(net, cfg);
  net.sim().schedule_at(SimTime::from_seconds(1), [&] {
    paths.push_epoch(detour, SimTime::from_seconds(1), SimTime::from_seconds(1));
  });
  net.sim().run_until(SimTime::from_seconds(3));

  ASSERT_EQ(paths.epoch_count(), 2U);
  ASSERT_GT(crossed[0], 0U);
  ASSERT_GT(crossed[1], 0U);
  EXPECT_EQ(gen.take_summary(seg, 0).counters.packets, crossed[0]);
  EXPECT_EQ(gen.take_summary(seg, 1).counters.packets, 0U);
}

TEST(SummaryGenerator, EachRoleRecordsOnlyItsAlignedTraffic) {
  // r2 holds three roles on different segments of the line:
  //   source   <2,3,4> at 0: forward time, next hop r3
  //   interior <1,2,3> at 1: forward time, from r1, next hop r3
  //   sink     <4,3,2> at 2: receive time, from r3
  // Four flows cross r2; each role must get exactly the flows whose path
  // contains its segment, and only while they leave towards seg[i+1].
  LineNet line(5);
  const RoundClock clock = one_second_rounds();
  SummaryGenerator gen(line.net, line.keys, 2, clock, *line.paths);
  const routing::PathSegment source{2, 3, 4};
  const routing::PathSegment interior{1, 2, 3};
  const routing::PathSegment sink{4, 3, 2};
  gen.monitor(source, 0);
  gen.monitor(interior, 1);
  gen.monitor(sink, 2);

  constexpr std::uint32_t kA = 1;  // r0 -> r4: source and interior
  constexpr std::uint32_t kB = 2;  // r4 -> r0: sink
  constexpr std::uint32_t kC = 3;  // r1 -> r3: interior only (its path ends at r3)
  constexpr std::uint32_t kD = 4;  // r3 -> r1: none (its path starts at r3)
  line.add_cbr(0, 4, kA, 100, SimTime::from_seconds(0.1), SimTime::from_seconds(2.9));
  line.add_cbr(4, 0, kB, 50, SimTime::from_seconds(0.1), SimTime::from_seconds(2.9));
  line.add_cbr(1, 3, kC, 30, SimTime::from_seconds(0.1), SimTime::from_seconds(2.9));
  line.add_cbr(3, 1, kD, 20, SimTime::from_seconds(0.1), SimTime::from_seconds(2.9));

  // What r2 did with each flow, by creation round: forwarded to r3,
  // forwarded to r1, received from r3.
  using PerRound = std::array<std::array<std::uint64_t, 3>, 5>;  // [flow][round]
  PerRound to_r3{};
  PerRound to_r1{};
  PerRound from_r3{};
  auto& r2 = line.net.router(2);
  auto count = [&](PerRound& per, const sim::Packet& p) {
    ++per.at(p.hdr.flow_id).at(static_cast<std::size_t>(clock.round_of(p.created)));
  };
  r2.add_forward_tap([&](const sim::Packet& p, NodeId /*prev*/, std::size_t out, SimTime) {
    const NodeId next = r2.interface(out).peer();
    if (next == 3) count(to_r3, p);
    if (next == 1) count(to_r1, p);
  });
  r2.add_receive_tap([&](const sim::Packet& p, NodeId prev, SimTime) {
    if (prev == 3) count(from_r3, p);
  });

  // Round 1: a role added once the memo already holds flow A's (r0, r4)
  // entry must still see flow A.
  const routing::PathSegment late{0, 1, 2, 3};
  line.net.sim().schedule_at(SimTime::from_seconds(1), [&] { gen.monitor(late, 2); });
  // Round 2: r2 turns flow A back towards r1 instead of on to r3.
  attacks::FlowMatch match;
  match.flow_ids = {kA};
  const std::size_t wrong = r2.interface_to(1)->index();
  r2.set_forward_filter(std::make_shared<attacks::MisrouteAttack>(
      match, 1.0, wrong, SimTime::from_seconds(2), 99));
  line.net.sim().run_until(SimTime::from_seconds(4));

  for (std::size_t round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    const auto r = static_cast<std::int64_t>(round);
    ASSERT_GT(to_r3[kC][round], 0U);
    ASSERT_GT(from_r3[kB][round], 0U);
    ASSERT_GT(from_r3[kD][round], 0U);
    EXPECT_EQ(gen.take_summary(source, r).counters.packets, to_r3[kA][round]);
    EXPECT_EQ(gen.take_summary(interior, r).counters.packets, to_r3[kA][round] + to_r3[kC][round]);
    EXPECT_EQ(gen.take_summary(sink, r).counters.packets, from_r3[kB][round]);
  }
  ASSERT_GT(to_r3[kA][0], 0U);
  ASSERT_GT(to_r3[kA][1], 0U);
  EXPECT_EQ(gen.take_summary(late, 1).counters.packets, to_r3[kA][1]);
  // Misrouted: flow A still crossed r2 in round 2, but never towards r3,
  // so the loop above found the source role empty and the interior role
  // holding flow C alone.
  EXPECT_GT(to_r1[kA][2], 0U);
  EXPECT_EQ(to_r3[kA][2], 0U);
}

}  // namespace
}  // namespace fatih::detection
