#include "scenario/registry.hpp"

#include <algorithm>

#include "routing/topologies.hpp"
#include "topo/generator.hpp"

namespace fatih::scenario {

namespace {

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kMilli = 1'000'000;

FlowSpec cbr(util::NodeId src, util::NodeId dst, std::uint32_t flow, std::int64_t rate_pps,
             std::int64_t start_ns, std::int64_t stop_ns) {
  FlowSpec f;
  f.kind = FlowKind::kCbr;
  f.src = src;
  f.dst = dst;
  f.flow_id = flow;
  f.rate_mpps = rate_pps * 1000;
  f.start_ns = start_ns;
  f.stop_ns = stop_ns;
  return f;
}

FlowSpec tcp(util::NodeId src, util::NodeId dst, std::uint32_t flow, std::int64_t start_ns) {
  FlowSpec f;
  f.kind = FlowKind::kTcp;
  f.src = src;
  f.dst = dst;
  f.flow_id = flow;
  f.start_ns = start_ns;
  return f;
}

FlowSpec onoff(util::NodeId src, util::NodeId dst, std::uint32_t flow, std::int64_t rate_pps,
               std::int64_t start_ns, std::int64_t stop_ns) {
  FlowSpec f;
  f.kind = FlowKind::kOnOff;
  f.src = src;
  f.dst = dst;
  f.flow_id = flow;
  f.rate_mpps = rate_pps * 1000;
  f.start_ns = start_ns;
  f.stop_ns = stop_ns;
  f.mean_on_ns = 200 * kMilli;
  f.mean_off_ns = 200 * kMilli;
  return f;
}

/// r0-r1-r2-r3 line base: 4 s of traffic, Pi(k+2) or Pi2 end-to-end rounds.
ScenarioSpec line4(const char* name, DetectorKind detector, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = name;
  s.topology = TopologyKind::kLine4;
  s.seed = seed;
  s.duration_ns = 4 * kSecond;
  s.detector.kind = detector;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = 4;
  s.detector.terminals = {0, 3};
  s.flows.push_back(cbr(0, 3, 1, 200, 50 * kMilli, 4 * kSecond));
  s.flows.push_back(cbr(3, 0, 2, 150, 80 * kMilli, 4 * kSecond));
  return s;
}

AttackSpec drop_at(util::NodeId at, std::uint32_t flow, std::int64_t fraction_ppm,
                   std::int64_t from_ns) {
  AttackSpec a;
  a.kind = AttackKind::kRateDrop;
  a.at = at;
  a.flow_ids = {flow};
  a.fraction_ppm = fraction_ppm;
  a.active_from_ns = from_ns;
  a.seed = 404;
  return a;
}

/// Figs. 6.6-6.15: r drops `fraction_ppm` of victim flow 1 from t=8 s,
/// gated by kind on queue fill (threshold in ppm of full) or on the RED
/// average (threshold in bytes).
AttackSpec victim_drop(AttackKind kind, std::int64_t fraction_ppm, std::int64_t threshold) {
  AttackSpec a;
  a.kind = kind;
  a.at = 2;
  a.flow_ids = {1};
  a.fraction_ppm = fraction_ppm;
  if (kind == AttackKind::kQueueGateDrop) a.threshold_ppm = threshold;
  if (kind == AttackKind::kRedGateDrop) a.threshold_bytes = threshold;
  a.active_from_ns = 8 * kSecond;
  a.seed = 13;
  return a;
}

/// Figs. 6.9 and 6.16: r drops every TCP SYN from t=8 s while a victim
/// host keeps trying to connect (TCP flow 50, s2 -> rd, from t=9 s).
/// Only per-packet precision catches so few, so damaging, losses.
ScenarioSpec with_syn_attack(ScenarioSpec s) {
  AttackSpec a;
  a.at = 2;
  a.syn_only = true;
  a.active_from_ns = 8 * kSecond;
  a.seed = 13;
  s.attacks.push_back(a);
  s.flows.push_back(tcp(1, 3, 50, 9 * kSecond));
  return s;
}

ScenarioSpec with_attack(ScenarioSpec s, const AttackSpec& a) {
  s.attacks.push_back(a);
  return s;
}

/// The Ch. 6 chi figures, named after their bench output (chi_figures).
/// All run at seed 607; attacks sit at r on victim flow 1 from t=8 s.
void add_chi_figures(std::vector<ScenarioSpec>& all) {
  constexpr std::int64_t kAll = 1'000'000;
  const auto fig = [](const char* name, std::int64_t rounds, bool red, bool heavy = true,
                      std::int64_t flow3_pps = 0) {
    return chi_bottleneck_spec(name, 607, rounds, red, heavy, flow3_pps);
  };
  // Fig. 6.5: TCP + bursty UDP drive the drop-tail queue into genuine
  // congestive loss; chi must explain every drop and raise no alarm.
  all.push_back(fig("fig6_5_no_attack", 60, false));
  // Fig. 6.6: drop 20% of the victim flow.
  all.push_back(with_attack(fig("fig6_6_attack_drop20", 20, false),
                            victim_drop(AttackKind::kRateDrop, 200'000, 0)));
  // Figs. 6.7 / 6.8: drop the victim only while the queue is >= 90% (95%)
  // full, hiding inside plausible congestion; chi's per-packet occupancy
  // prediction still sees the headroom.
  all.push_back(with_attack(fig("fig6_7_attack_q90", 24, false),
                            victim_drop(AttackKind::kQueueGateDrop, kAll, 900'000)));
  all.push_back(with_attack(fig("fig6_8_attack_q95", 24, false),
                            victim_drop(AttackKind::kQueueGateDrop, kAll, 950'000)));
  // Fig. 6.9: SYN dropping under light load, where drops are unambiguous.
  all.push_back(with_syn_attack(fig("fig6_9_attack_syn", 20, false, false)));
  // Fig. 6.11: RED's random early drops are legitimate; the replayed
  // per-packet drop probabilities must account for them. Flow 3 keeps the
  // RED average in the active band.
  all.push_back(fig("fig6_11_red_no_attack", 100, true, true, 400));
  // Figs. 6.12 / 6.13: drop the victim whenever the RED average exceeds
  // 45,000 B (= max_th, where RED drops legitimately) or 54,000 B (the
  // gentle region, where RED already drops aggressively).
  all.push_back(with_attack(fig("fig6_12_red_attack1", 26, true, true, 400),
                            victim_drop(AttackKind::kRedGateDrop, kAll, 45'000)));
  all.push_back(with_attack(fig("fig6_13_red_attack2", 26, true, true, 500),
                            victim_drop(AttackKind::kRedGateDrop, kAll, 54'000)));
  // Figs. 6.14 / 6.15: rate-limited variants, only 10% (5%) of the victim
  // above the 45,000 B average — the chapter's finest-grained attacks.
  all.push_back(with_attack(fig("fig6_14_red_attack3", 160, true, true, 400),
                            victim_drop(AttackKind::kRedGateDrop, 100'000, 45'000)));
  all.push_back(with_attack(fig("fig6_15_red_attack4", 160, true, true, 400),
                            victim_drop(AttackKind::kRedGateDrop, 50'000, 45'000)));
  // Fig. 6.16: SYN dropping under RED. With the average below min_th the
  // legitimate drop probability is exactly zero, so each dropped SYN is
  // individually damning.
  all.push_back(with_syn_attack(fig("fig6_16_red_attack5", 20, true, false)));
}

// ------------------------------------------------- generated topologies

TopoSpec topo_spec(const topo::TopoParams& p) {
  TopoSpec t;
  t.routers = p.routers;
  t.links = p.links;
  t.pops = p.pops;
  t.max_degree = p.max_degree;
  t.seed = p.seed;
  t.intra_delay_ns = p.intra_delay_ns;
  t.inter_delay_ns = p.inter_delay_ns;
  return t;
}

topo::TopoParams params_of(const TopoSpec& t) {
  topo::TopoParams p;
  p.routers = t.routers;
  p.links = t.links;
  p.pops = t.pops;
  p.max_degree = t.max_degree;
  p.seed = t.seed;
  p.intra_delay_ns = t.intra_delay_ns;
  p.inter_delay_ns = t.inter_delay_ns;
  return p;
}

/// Generated-topology base: Pi2 or Pi(k+2) between PoP hub routers. The
/// hub ids come from running the (deterministic) generator, so the spec
/// stays plain data.
ScenarioSpec gen_base(const char* name, const TopoSpec& t, DetectorKind detector,
                      const topo::GeneratedTopology& g, std::uint64_t seed,
                      std::int64_t duration_ns) {
  ScenarioSpec s;
  s.name = name;
  s.topology = TopologyKind::kGenerated;
  s.topo = t;
  s.seed = seed;
  s.duration_ns = duration_ns;
  s.detector.kind = detector;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = duration_ns / kSecond;
  // Flow 1 sources at the PoP-0 feeder, whose only route out is the
  // structurally forced feeder -> chi_owner -> hub chain — so the drop
  // scenarios can compromise chi_owner and be certain it forwards (not
  // originates) the victim flow.
  s.detector.terminals = {g.chi_feed, g.pop_hub[2], g.pop_hub[4], g.pop_hub[6]};
  s.flows.push_back(cbr(g.chi_feed, g.pop_hub[4], 1, 200, 50 * kMilli, duration_ns));
  s.flows.push_back(cbr(g.pop_hub[4], g.chi_feed, 2, 150, 80 * kMilli, duration_ns));
  s.flows.push_back(cbr(g.pop_hub[2], g.pop_hub[6], 3, 120, 110 * kMilli, duration_ns));
  return s;
}

void add_generated(std::vector<ScenarioSpec>& all) {
  const TopoSpec ebone = topo_spec(topo::ebone());
  const TopoSpec sprint = topo_spec(topo::sprintlink());
  const topo::GeneratedTopology ge = topo::generate(params_of(ebone));
  const topo::GeneratedTopology gs = topo::generate(params_of(sprint));

  all.push_back(gen_base("gen_ebone_pik2_clean", ebone, DetectorKind::kPik2, ge, 31,
                         3 * kSecond));

  {
    ScenarioSpec s = gen_base("gen_ebone_pi2_drop", ebone, DetectorKind::kPi2, ge, 32,
                              3 * kSecond);
    // chi_owner is flow 1's forced second hop: the drop is on-path and
    // downstream of the sender's accounting regardless of the route the
    // backbone takes beyond the hub.
    s.attacks.push_back(drop_at(ge.chi_owner, 1, 400'000, 1'200 * kMilli));
    all.push_back(s);
  }

  all.push_back(gen_base("gen_sprintlink_pik2_clean", sprint, DetectorKind::kPik2, gs, 33,
                         2 * kSecond));

  {
    ScenarioSpec s = gen_base("gen_sprintlink_pik2_drop", sprint, DetectorKind::kPik2, gs,
                              34, 2 * kSecond);
    s.attacks.push_back(drop_at(gs.chi_owner, 1, 400'000, 900 * kMilli));
    all.push_back(s);
  }

  {
    // Protocol chi on the designated PoP-0 bottleneck of the generated
    // Sprintlink graph: traffic funnels feeder -> owner -> hub, and the
    // owner starts dropping after calibration (chi_droptail_drop20 at
    // Rocketfuel scale).
    ScenarioSpec s;
    s.name = "gen_sprintlink_chi_drop";
    s.topology = TopologyKind::kGenerated;
    s.topo = sprint;
    s.seed = 35;
    s.duration_ns = 5 * kSecond;
    s.detector.kind = DetectorKind::kChi;
    s.detector.tau_ns = kSecond;
    s.detector.rounds = 5;
    s.detector.learning_rounds = 2;
    s.flows.push_back(cbr(gs.chi_feed, gs.chi_peer, 1, 300, 50 * kMilli, 4'500 * kMilli));
    s.flows.push_back(onoff(gs.chi_feed, gs.chi_peer, 2, 900, 50 * kMilli, 4'500 * kMilli));
    s.attacks.push_back(drop_at(gs.chi_owner, 1, 200'000, 3'500 * kMilli));
    all.push_back(s);
  }

  {
    // Synthetic beyond-Rocketfuel scale: ~600 routers across 24 PoPs.
    TopoSpec wide;
    wide.routers = 600;
    wide.links = 1500;
    wide.pops = 24;
    wide.max_degree = 32;
    wide.seed = 2099;
    const topo::GeneratedTopology gw = topo::generate(params_of(wide));
    all.push_back(gen_base("gen_wide_pik2_clean", wide, DetectorKind::kPik2, gw, 36,
                           2 * kSecond));
  }
}

std::vector<ScenarioSpec> build_all() {
  std::vector<ScenarioSpec> all;

  add_generated(all);
  add_chi_figures(all);

  all.push_back(line4("line4_pik2_clean", DetectorKind::kPik2, 11));

  {
    ScenarioSpec s = line4("line4_pik2_drop", DetectorKind::kPik2, 12);
    s.attacks.push_back(drop_at(2, 1, 500'000, 1'500 * kMilli));
    all.push_back(s);
  }

  all.push_back(line4("line4_pi2_clean", DetectorKind::kPi2, 13));

  {
    ScenarioSpec s = line4("line4_pi2_drop", DetectorKind::kPi2, 14);
    s.attacks.push_back(drop_at(1, 1, 500'000, 1'500 * kMilli));
    all.push_back(s);
  }

  {
    ScenarioSpec s = line4("line4_pik2_modify", DetectorKind::kPik2, 15);
    AttackSpec a;
    a.kind = AttackKind::kModify;
    a.at = 2;
    a.flow_ids = {1};
    a.fraction_ppm = 300'000;
    a.active_from_ns = 1'500 * kMilli;
    a.seed = 405;
    s.attacks.push_back(a);
    all.push_back(s);
  }

  {
    ScenarioSpec s = line4("line4_pik2_reorder", DetectorKind::kPik2, 16);
    AttackSpec a;
    a.kind = AttackKind::kReorder;
    a.at = 1;
    a.flow_ids = {1};
    a.fraction_ppm = 200'000;
    a.delay_ns = 60 * kMilli;
    a.active_from_ns = 1'500 * kMilli;
    a.seed = 406;
    s.attacks.push_back(a);
    all.push_back(s);
  }

  {
    // Blackhole window: the r1-r2 link drops for a second mid-run. Static
    // routes (no reconvergence), so the detector sees — and must keep
    // seeing, deterministically — the exchange failures it induces.
    ScenarioSpec s = line4("line4_pik2_churn", DetectorKind::kPik2, 17);
    ChurnSpec down;
    down.kind = ChurnSpec::Kind::kLinkDown;
    down.at_ns = 1'700 * kMilli;
    down.a = 1;
    down.b = 2;
    s.churn.push_back(down);
    ChurnSpec up;
    up.kind = ChurnSpec::Kind::kLinkUp;
    up.at_ns = 2'600 * kMilli;
    up.a = 1;
    up.b = 2;
    s.churn.push_back(up);
    all.push_back(s);
  }

  {
    ScenarioSpec s = line4("line4_pik2_reliable", DetectorKind::kPik2, 18);
    s.detector.reliable = true;
    all.push_back(s);
  }

  {
    // The Abilene forwarding substrate (static shortest-path routes over
    // the 11 PoPs) with a Pi(k+2) overlay on two coast-to-coast pairs.
    ScenarioSpec s;
    s.name = "abilene_pik2_clean";
    s.topology = TopologyKind::kAbilene;
    s.seed = 21;
    s.duration_ns = 3 * kSecond;
    s.detector.kind = DetectorKind::kPik2;
    s.detector.tau_ns = kSecond;
    s.detector.rounds = 3;
    s.detector.terminals = {routing::kSeattle, routing::kNewYork, routing::kLosAngeles,
                            routing::kAtlanta};
    s.flows.push_back(cbr(routing::kSeattle, routing::kNewYork, 1, 400, 10 * kMilli,
                          3 * kSecond));
    s.flows.push_back(cbr(routing::kNewYork, routing::kSeattle, 2, 400, 10 * kMilli,
                          3 * kSecond));
    s.flows.push_back(cbr(routing::kLosAngeles, routing::kAtlanta, 3, 250, 20 * kMilli,
                          3 * kSecond));
    all.push_back(s);
    ScenarioSpec d = s;
    d.name = "abilene_pik2_drop";
    d.seed = 22;
    d.attacks.push_back(drop_at(routing::kKansasCity, 1, 400'000, 1'200 * kMilli));
    all.push_back(d);
  }

  all.push_back(chi_bottleneck_spec("chi_droptail_clean", 607, 8, false));

  {
    // Fig. 6.6: drop 20% of the victim flow after calibration.
    ScenarioSpec s = chi_bottleneck_spec("chi_droptail_drop20", 608, 8, false);
    s.attacks.push_back(drop_at(2, 1, 200'000, 4 * kSecond));
    all.push_back(s);
  }

  all.push_back(chi_bottleneck_spec("chi_red_clean", 609, 8, true));

  {
    // Figs. 6.12-6.15: drops gated on the RED average so they masquerade
    // as early drops.
    ScenarioSpec s = chi_bottleneck_spec("chi_red_gate", 610, 8, true);
    AttackSpec a;
    a.kind = AttackKind::kRedGateDrop;
    a.at = 2;
    a.flow_ids = {1};
    a.fraction_ppm = 500'000;
    a.threshold_bytes = 20'000;
    a.active_from_ns = 4 * kSecond;
    a.seed = 407;
    s.attacks.push_back(a);
    all.push_back(s);
  }

  std::sort(all.begin(), all.end(),
            [](const ScenarioSpec& a, const ScenarioSpec& b) { return a.name < b.name; });
  return all;
}

}  // namespace

const std::vector<ScenarioSpec>& builtin_scenarios() {
  static const std::vector<ScenarioSpec> all = build_all();
  return all;
}

ScenarioSpec chi_bottleneck_spec(std::string name, std::uint64_t seed, std::int64_t rounds,
                                 bool red, bool heavy_congestion, std::int64_t flow3_pps) {
  constexpr util::NodeId kS1 = 0, kS2 = 1, kRd = 3;
  const std::int64_t stop_ns = rounds * kSecond - 500 * kMilli;
  ScenarioSpec s;
  s.name = std::move(name);
  s.topology = TopologyKind::kChiBottleneck;
  s.seed = seed;
  s.duration_ns = rounds * kSecond;
  s.detector.kind = DetectorKind::kChi;
  s.detector.tau_ns = kSecond;
  s.detector.rounds = rounds;
  s.detector.learning_rounds = 3;
  s.detector.red = red;
  s.flows.push_back(cbr(kS1, kRd, 1, 300, 50 * kMilli, stop_ns));
  s.flows.push_back(tcp(kS1, kRd, 10, 200 * kMilli));
  s.flows.push_back(tcp(kS2, kRd, 11, 400 * kMilli));
  if (heavy_congestion) s.flows.push_back(onoff(kS2, kRd, 2, 1100, 50 * kMilli, stop_ns));
  if (flow3_pps > 0) s.flows.push_back(cbr(kS1, kRd, 3, flow3_pps, 50 * kMilli, stop_ns));
  return s;
}

const ScenarioSpec* find_scenario(std::string_view name) {
  for (const ScenarioSpec& s : builtin_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace fatih::scenario
