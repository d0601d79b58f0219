// Property tests for the seeded topology generator (src/topo): seed
// stability (byte-identical graphs, pinned digests), degree-distribution
// shape against the pinned Rocketfuel histograms, connectivity, the
// structural guarantees the scenarios build on (core-only inter-PoP
// links, uniform backbone delay, the PoP-0 chi bottleneck), and the codec
// round-trip of generator parameters through ScenarioSpec.
#include "topo/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "scenario/spec.hpp"

namespace fatih::topo {
namespace {

// Pinned structural digests: regenerate with the same params must be
// byte-identical forever (the gen_* corpus records depend on it).
constexpr std::uint64_t kSprintlinkDigest = 11037831699627619433ULL;
constexpr std::uint64_t kEboneDigest = 17675609933224398286ULL;

TEST(Generator, SeedStabilityByteIdentical) {
  const GeneratedTopology a = generate(sprintlink());
  const GeneratedTopology b = generate(sprintlink());
  ASSERT_EQ(a.pop_of, b.pop_of);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].a, b.links[i].a);
    EXPECT_EQ(a.links[i].b, b.links[i].b);
    EXPECT_EQ(a.links[i].inter, b.links[i].inter);
  }
  EXPECT_EQ(a.pop_hub, b.pop_hub);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), kSprintlinkDigest);
  EXPECT_EQ(generate(ebone()).digest(), kEboneDigest);
}

TEST(Generator, DifferentSeedDifferentGraph) {
  TopoParams p = sprintlink();
  p.seed += 1;
  EXPECT_NE(generate(p).digest(), kSprintlinkDigest);
}

TEST(Generator, SprintlinkShape) {
  const GeneratedTopology g = generate(sprintlink());
  EXPECT_EQ(g.routers(), 315u);
  EXPECT_EQ(g.pops(), 45u);
  EXPECT_EQ(g.links.size(), 972u);
  EXPECT_TRUE(g.connected());
  // Degree histogram (deg 1, 2, 3-4, 5-8, 9-16, 17+): the Rocketfuel-like
  // heavy middle with a hub tail, pinned exactly for seed stability.
  const std::array<std::uint32_t, 6> expected{1, 7, 62, 200, 43, 2};
  EXPECT_EQ(g.degree_histogram(), expected);
  for (std::uint32_t d : g.degrees()) EXPECT_LE(d, sprintlink().max_degree);
}

TEST(Generator, EboneShape) {
  const GeneratedTopology g = generate(ebone());
  EXPECT_EQ(g.routers(), 87u);
  EXPECT_EQ(g.pops(), 11u);
  EXPECT_EQ(g.links.size(), 161u);
  EXPECT_TRUE(g.connected());
  const std::array<std::uint32_t, 6> expected{11, 23, 31, 16, 6, 0};
  EXPECT_EQ(g.degree_histogram(), expected);
  for (std::uint32_t d : g.degrees()) EXPECT_LE(d, ebone().max_degree);
}

TEST(Generator, ScalesBeyondRocketfuel) {
  TopoParams p;
  p.routers = 600;
  p.links = 1500;
  p.pops = 24;
  p.max_degree = 32;
  p.seed = 2099;
  ASSERT_TRUE(validate(p));
  const GeneratedTopology g = generate(p);
  EXPECT_EQ(g.routers(), 600u);
  EXPECT_EQ(g.links.size(), 1500u);
  EXPECT_TRUE(g.connected());
}

TEST(Generator, PopsAreContiguousIdRanges) {
  const GeneratedTopology g = generate(ebone());
  // pop_of must be non-decreasing: PoP p occupies one contiguous id range.
  for (std::size_t i = 1; i < g.pop_of.size(); ++i) {
    EXPECT_LE(g.pop_of[i - 1], g.pop_of[i]);
    EXPECT_LE(g.pop_of[i] - g.pop_of[i - 1], 1u);
  }
  EXPECT_EQ(g.pop_of.back() + 1, g.pops());
}

TEST(Generator, InterPopLinksMarkedAndHubsInterior) {
  const GeneratedTopology g = generate(sprintlink());
  for (const GenLink& l : g.links) {
    EXPECT_EQ(l.inter, g.pop_of[l.a] != g.pop_of[l.b])
        << "link " << l.a << "-" << l.b;
  }
  // Every PoP hub is the first id of its (contiguous) PoP range.
  for (std::uint32_t pop = 0; pop < g.pops(); ++pop) {
    EXPECT_EQ(g.pop_of[g.pop_hub[pop]], pop);
    if (g.pop_hub[pop] > 0) {
      EXPECT_EQ(g.pop_of[g.pop_hub[pop] - 1] + 1, pop);
    }
  }
}

TEST(Generator, ChiBottleneckConfinedToPopZero) {
  for (const TopoParams& p : {sprintlink(), ebone()}) {
    const GeneratedTopology g = generate(p);
    EXPECT_EQ(g.pop_of[g.chi_owner], 0u);
    EXPECT_EQ(g.pop_of[g.chi_peer], 0u);
    EXPECT_EQ(g.pop_of[g.chi_feed], 0u);
    EXPECT_EQ(g.chi_peer, g.pop_hub[0]);
    // Every neighbor of the owner lives in PoP 0; the feeder hangs off
    // the owner and the owner off the hub (the monitored queue).
    bool owner_hub = false;
    bool owner_feed = false;
    for (const GenLink& l : g.links) {
      if (l.a == g.chi_owner || l.b == g.chi_owner) {
        const util::NodeId peer = l.a == g.chi_owner ? l.b : l.a;
        EXPECT_EQ(g.pop_of[peer], 0u);
        owner_hub |= peer == g.chi_peer;
        owner_feed |= peer == g.chi_feed;
      }
    }
    EXPECT_TRUE(owner_hub);
    EXPECT_TRUE(owner_feed);
  }
}

TEST(Generator, ValidateRejectsDegenerateParams) {
  TopoParams p = ebone();
  EXPECT_TRUE(validate(p));
  p.pops = 1;
  EXPECT_FALSE(validate(p));
  p = ebone();
  p.routers = p.pops * 2;  // too few routers per PoP
  EXPECT_FALSE(validate(p));
  p = ebone();
  p.inter_delay_ns = p.intra_delay_ns;  // backbone must be slower than metro
  EXPECT_FALSE(validate(p));
  p = ebone();
  p.links = p.routers - 1;  // budget below the spanning structure
  EXPECT_FALSE(validate(p));
}

TEST(GeneratorCodec, TopoParamsRoundTripThroughScenarioSpec) {
  scenario::ScenarioSpec s;
  s.name = "roundtrip";
  s.topology = scenario::TopologyKind::kGenerated;
  s.topo.routers = 315;
  s.topo.links = 972;
  s.topo.pops = 45;
  s.topo.max_degree = 45;
  s.topo.seed = 1044;
  s.topo.intra_delay_ns = 250'000;
  s.topo.inter_delay_ns = 3'000'000;
  const std::string text = scenario::encode(s);
  scenario::ScenarioSpec out;
  std::string error;
  ASSERT_TRUE(scenario::decode(text, out, error)) << error;
  EXPECT_EQ(out.topology, scenario::TopologyKind::kGenerated);
  EXPECT_EQ(out.topo.routers, s.topo.routers);
  EXPECT_EQ(out.topo.links, s.topo.links);
  EXPECT_EQ(out.topo.pops, s.topo.pops);
  EXPECT_EQ(out.topo.max_degree, s.topo.max_degree);
  EXPECT_EQ(out.topo.seed, s.topo.seed);
  EXPECT_EQ(out.topo.intra_delay_ns, s.topo.intra_delay_ns);
  EXPECT_EQ(out.topo.inter_delay_ns, s.topo.inter_delay_ns);
  EXPECT_EQ(scenario::encode(out), text);
}

TEST(GeneratorCodec, ClassicSpecsOmitTopoAndEngineStatements) {
  scenario::ScenarioSpec s;
  s.name = "classic";
  const std::string text = scenario::encode(s);
  EXPECT_EQ(text.find("\ntopo "), std::string::npos);
  EXPECT_EQ(text.find("\nengine "), std::string::npos);
}

}  // namespace
}  // namespace fatih::topo
