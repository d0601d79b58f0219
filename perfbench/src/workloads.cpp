#include "workloads.hpp"

#include <algorithm>
#include <utility>

#include "routing/spf.hpp"
#include "routing/topologies.hpp"
#include "topo/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using fatih::scenario::AttackKind;
using fatih::scenario::AttackSpec;
using fatih::scenario::DetectorKind;
using fatih::scenario::FlowKind;
using fatih::scenario::FlowSpec;
using fatih::scenario::ScenarioSpec;
using fatih::scenario::TopologyKind;
using fatih::util::NodeId;
using fatih::util::Rng;

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kMilli = 1'000'000;

/// Seed-stream salts, so the spec's own rng seeds are not the workload seed.
constexpr std::uint64_t kSimSalt = 0x51u;
constexpr std::uint64_t kAttackSalt = 0xA7u;

FlowSpec flow(FlowKind kind, NodeId src, NodeId dst, std::uint32_t id, std::int64_t rate_mpps,
              std::int64_t start_ns, std::int64_t stop_ns) {
  FlowSpec f;
  f.kind = kind;
  f.src = src;
  f.dst = dst;
  f.flow_id = id;
  f.rate_mpps = rate_mpps;
  f.start_ns = start_ns;
  f.stop_ns = stop_ns;
  return f;
}

/// Uniform jitter of `base` by up to +-`ppm` parts per million.
std::int64_t jitter(Rng& rng, std::int64_t base, std::int64_t ppm) {
  return base + base * rng.uniform_int(-ppm, ppm) / 1'000'000;
}

// ---------------------------------------------------------------- Abilene

constexpr std::int64_t kAbileneOnsetNs = 20 * kSecond;
constexpr std::size_t kAbileneFlows = 24;
/// Flows whose path crosses the attacker as a transit router. Fixed so
/// every seed attacks the same share of traffic.
constexpr std::size_t kAbileneTransitFlows = 6;
/// Forwarding operations per second each flow offers (rate x hops): every
/// flow costs the same whatever path the seed gives it.
constexpr std::int64_t kAbileneForwardsPerFlow = 2'250;

/// 24 CBR flows between distinct ordered PoP pairs, 6 of them transiting
/// Kansas City, each offering the same forwarding load; plus a 10% drop of
/// every flow at Kansas City from the 20 s round boundary.
ScenarioSpec abilene_base(const char* name, std::uint64_t seed, DetectorKind detector,
                          std::int64_t duration_ns) {
  namespace routing = fatih::routing;
  Rng rng(seed);
  const routing::RoutingTables tables(routing::abilene_topology());
  std::vector<std::pair<NodeId, NodeId>> transit;
  std::vector<std::pair<NodeId, NodeId>> other;
  for (NodeId a = 0; a <= routing::kNewYork; ++a) {
    for (NodeId b = 0; b <= routing::kNewYork; ++b) {
      if (a == b) continue;
      const routing::Path p = tables.path(a, b);
      const bool crosses = std::find(p.begin() + 1, p.end() - 1, routing::kKansasCity) !=
                           p.end() - 1;
      (crosses ? transit : other).emplace_back(a, b);
    }
  }
  auto shuffle = [&rng](auto& v) {
    for (auto i = static_cast<std::int64_t>(v.size()) - 1; i > 0; --i) {
      std::swap(v[static_cast<std::size_t>(i)],
                v[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    }
  };
  shuffle(transit);
  shuffle(other);
  std::vector<std::pair<NodeId, NodeId>> pairs(transit.begin(),
                                               transit.begin() + kAbileneTransitFlows);
  pairs.insert(pairs.end(), other.begin(),
               other.begin() + (kAbileneFlows - kAbileneTransitFlows));

  ScenarioSpec s;
  s.name = name;
  s.topology = TopologyKind::kAbilene;
  s.seed = seed ^ kSimSalt;
  s.duration_ns = duration_ns;
  s.detector.kind = detector;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = 0;
  s.detector.k = 1;
  for (NodeId n = 0; n <= routing::kNewYork; ++n) s.detector.terminals.push_back(n);
  std::uint32_t id = 1;
  for (const auto& [src, dst] : pairs) {
    const auto hops = static_cast<std::int64_t>(tables.path(src, dst).size() - 1);
    const std::int64_t rate_mpps = jitter(rng, kAbileneForwardsPerFlow * 1000 / hops, 20'000);
    const std::int64_t start = rng.uniform_int(0, 50 * kMilli);
    s.flows.push_back(flow(FlowKind::kCbr, src, dst, id++, rate_mpps, start, duration_ns));
  }
  AttackSpec a;
  a.kind = AttackKind::kRateDrop;
  a.at = routing::kKansasCity;
  a.fraction_ppm = 100'000;
  a.active_from_ns = kAbileneOnsetNs;
  a.seed = seed ^ kAttackSalt;
  s.attacks.push_back(a);
  return s;
}

ScenarioSpec abilene_pik2(std::uint64_t seed) {
  return abilene_base("abilene_pik2", seed, DetectorKind::kPik2, 60 * kSecond);
}

ScenarioSpec abilene_pi2(std::uint64_t seed) {
  return abilene_base("abilene_pi2", seed, DetectorKind::kPi2, 30 * kSecond);
}

// -------------------------------------------------------------- Sprintlink

constexpr std::size_t kSprintFlows = 1'000;
constexpr std::int64_t kSprintDurationNs = 40 * kSecond;
constexpr std::int64_t kSprintOnsetNs = 10 * kSecond;

fatih::scenario::TopoSpec sprintlink_topo() {
  const fatih::topo::TopoParams p = fatih::topo::sprintlink();
  fatih::scenario::TopoSpec t;
  t.routers = p.routers;
  t.links = p.links;
  t.pops = p.pops;
  t.max_degree = p.max_degree;
  t.seed = p.seed;
  t.intra_delay_ns = p.intra_delay_ns;
  t.inter_delay_ns = p.inter_delay_ns;
  return t;
}

/// The generated Sprintlink graph (315 routers, 45 PoPs) under ~10^3
/// random CBR and OnOff flows, Pi(k+2) between four PoP hubs, and a 20%
/// drop at the PoP-0 router every feeder-to-hub path is forced through.
ScenarioSpec sprintlink_pik2(std::uint64_t seed) {
  const fatih::topo::TopoParams params = fatih::topo::sprintlink();
  const fatih::topo::GeneratedTopology g = fatih::topo::generate(params);
  Rng rng(seed);

  ScenarioSpec s;
  s.name = "sprintlink_pik2";
  s.topology = TopologyKind::kGenerated;
  s.topo = sprintlink_topo();
  s.seed = seed ^ kSimSalt;
  s.duration_ns = kSprintDurationNs;
  s.detector.kind = DetectorKind::kPik2;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = 0;
  s.detector.k = 1;
  s.detector.terminals = {g.chi_feed, g.pop_hub[2], g.pop_hub[4], g.pop_hub[6]};

  // The monitored terminal flows: the feeder's flow crosses the attacker.
  std::uint32_t id = 1;
  const auto& t = s.detector.terminals;
  for (NodeId a : t) {
    for (NodeId b : t) {
      if (a == b) continue;
      s.flows.push_back(flow(FlowKind::kCbr, a, b, id++, jitter(rng, 100'000, 20'000),
                             rng.uniform_int(0, 50 * kMilli), kSprintDurationNs));
    }
  }
  const auto routers = static_cast<std::int64_t>(g.routers());
  while (s.flows.size() < kSprintFlows) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, routers - 1));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, routers - 1));
    if (src == dst) continue;
    const bool onoff = (id % 2) == 0;
    FlowSpec f = flow(onoff ? FlowKind::kOnOff : FlowKind::kCbr, src, dst, id++,
                      jitter(rng, onoff ? 20'000 : 10'000, 20'000),
                      rng.uniform_int(0, 500 * kMilli), kSprintDurationNs);
    if (onoff) {
      f.mean_on_ns = 200 * kMilli;
      f.mean_off_ns = 200 * kMilli;
    }
    s.flows.push_back(f);
  }
  AttackSpec a;
  a.kind = AttackKind::kRateDrop;
  a.at = g.chi_owner;
  a.fraction_ppm = 200'000;
  a.active_from_ns = kSprintOnsetNs;
  a.seed = seed ^ kAttackSalt;
  s.attacks.push_back(a);
  return s;
}

// ------------------------------------------------------------ chi with RED

constexpr std::int64_t kChiDurationNs = 240 * kSecond;
constexpr std::int64_t kChiOnsetNs = 120 * kSecond;

/// Fig. 6.4 bottleneck (s1, s2 -> r -> rd) with a RED queue at r: one CBR,
/// one OnOff and eight TCP Reno flows, and drops of the CBR flow gated on
/// the RED average from 120 s, so they masquerade as early drops.
ScenarioSpec chi_red_tcp(std::uint64_t seed) {
  constexpr NodeId kS1 = 0, kS2 = 1, kR = 2, kRd = 3;
  Rng rng(seed);
  ScenarioSpec s;
  s.name = "chi_red_tcp";
  s.topology = TopologyKind::kChiBottleneck;
  s.seed = seed ^ kSimSalt;
  s.duration_ns = kChiDurationNs;
  s.detector.kind = DetectorKind::kChi;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = 0;
  s.detector.learning_rounds = 3;
  s.detector.red = true;
  s.flows.push_back(flow(FlowKind::kCbr, kS1, kRd, 1, jitter(rng, 300'000, 20'000),
                         rng.uniform_int(0, 100 * kMilli), kChiDurationNs));
  FlowSpec on = flow(FlowKind::kOnOff, kS2, kRd, 2, jitter(rng, 1'100'000, 20'000),
                     rng.uniform_int(0, 100 * kMilli), kChiDurationNs);
  on.mean_on_ns = 200 * kMilli;
  on.mean_off_ns = 200 * kMilli;
  s.flows.push_back(on);
  for (std::uint32_t i = 0; i < 8; ++i) {
    FlowSpec f;
    f.kind = FlowKind::kTcp;
    f.src = i % 2 == 0 ? kS1 : kS2;
    f.dst = kRd;
    f.flow_id = 10 + i;
    f.start_ns = rng.uniform_int(100 * kMilli, 2 * kSecond);
    s.flows.push_back(f);
  }
  AttackSpec a;
  a.kind = AttackKind::kRedGateDrop;
  a.at = kR;
  a.flow_ids = {1};
  a.fraction_ppm = 500'000;
  a.threshold_bytes = 20'000;
  a.active_from_ns = kChiOnsetNs;
  a.seed = seed ^ kAttackSalt;
  s.attacks.push_back(a);
  return s;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Pinned outcomes: kDefaultSeed of each workload as the simulator
  // computed it when this benchmark was introduced.
  static const std::vector<Workload> all = {
      {"abilene_pik2", abilene_pik2,
       PinnedOutcome{0xe2de0e7fc0cf761fULL, 0xaac2658c08ce21d5ULL, 3184575, 1886088, 9580916}},
      {"abilene_pi2", abilene_pi2,
       PinnedOutcome{0xbebad03d8b15cd09ULL, 0x6ea4dd77f02244c8ULL, 1599100, 950468, 4912306}},
      {"sprintlink_pik2", sprintlink_pik2,
       PinnedOutcome{0x894f6732a13a7bccULL, 0xfbaf03f19b590141ULL, 1851747, 488523, 5657605}},
      {"chi_red_tcp", chi_red_tcp,
       PinnedOutcome{0xe717764859e767b2ULL, 0xde36435f761155c3ULL, 752642, 334178, 2040514}},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
