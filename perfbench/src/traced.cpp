#include "traced.hpp"

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "crypto/keys.hpp"
#include "detection/chi.hpp"
#include "detection/path_cache.hpp"
#include "detection/pi2.hpp"
#include "detection/pik2.hpp"
#include "obs/metrics.hpp"
#include "routing/install.hpp"
#include "routing/spf.hpp"
#include "routing/topologies.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "topo/generator.hpp"
#include "traffic/sources.hpp"
#include "traffic/tcp.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

namespace sc = fatih::scenario;
namespace sim = fatih::sim;
namespace detection = fatih::detection;
using fatih::util::Duration;
using fatih::util::NodeId;
using fatih::util::SimTime;
using Clock = std::chrono::steady_clock;

// Private constants of scenario/runner.cpp that shape a run. The equality
// self-check (digests and suspicions against ScenarioRun) fails if they
// ever drift apart.
constexpr std::uint64_t kKeySeedSalt = 98765;
constexpr std::int64_t kDrainNs = 2'000'000'000;

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

enum Layer : std::size_t { kSim, kTap, kControl, kFilter, kEval, kDigest, kLayerCount };

/// A stack of open spans. Closing a span charges its duration minus its
/// children's to its layer, so the layer totals never double-count.
class Spans {
 public:
  Spans() { stack_.reserve(16); }

  void open(Layer layer) { stack_.push_back(Open{Clock::now(), Clock::duration::zero(), layer}); }

  void close() {
    const auto end = Clock::now();
    const Open o = stack_.back();
    stack_.pop_back();
    const auto dur = end - o.start;
    self_[o.layer] += dur - o.children;
    ++calls_[o.layer];
    if (!stack_.empty()) stack_.back().children += dur;
  }

  [[nodiscard]] double self_s(Layer l) const { return seconds(self_[l]); }
  [[nodiscard]] std::uint64_t calls(Layer l) const { return calls_[l]; }

 private:
  struct Open {
    Clock::time_point start;
    Clock::duration children;
    Layer layer;
  };
  std::vector<Open> stack_;
  std::array<Clock::duration, kLayerCount> self_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
};

/// Times a compromised router's filter chain.
class TimedFilter final : public sim::ForwardFilter {
 public:
  TimedFilter(std::shared_ptr<sim::ForwardFilter> inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  sim::ForwardDecision on_forward(const sim::Packet& p, NodeId prev, const sim::Interface& out,
                                  sim::Router& router) override {
    spans_.open(kFilter);
    sim::ForwardDecision d = inner_->on_forward(p, prev, out, router);
    spans_.close();
    return d;
  }

 private:
  std::shared_ptr<sim::ForwardFilter> inner_;
  Spans& spans_;
};

fatih::topo::TopoParams topo_params(const sc::TopoSpec& t) {
  fatih::topo::TopoParams p;
  p.routers = t.routers;
  p.links = t.links;
  p.pops = t.pops;
  p.max_degree = t.max_degree;
  p.seed = t.seed;
  p.intra_delay_ns = t.intra_delay_ns;
  p.inter_delay_ns = t.inter_delay_ns;
  return p;
}

/// ScenarioRun::Impl's construction, step for step, with spans around the
/// detection engine's callbacks.
class Rebuild {
 public:
  Rebuild(const sc::ScenarioSpec& spec, Spans& spans)
      : spec_(spec),
        spans_(spans),
        gen_(make_generated()),
        net_(spec.seed, sim::ShardPlan{}),
        keys_(spec.seed + kKeySeedSalt) {
    net_.attach_observability(nullptr, &metrics_);
    build_topology();
    install_counters();
    build_traffic();
    build_attacks();
    build_detector();
    for (std::int64_t t = spec_.detector.epoch_ns + spec_.detector.tau_ns;
         spec_.detector.tau_ns > 0 && t <= end_ns(); t += spec_.detector.tau_ns) {
      checkpoint_times_.push_back(t);
    }
  }
  Rebuild(const Rebuild&) = delete;
  Rebuild& operator=(const Rebuild&) = delete;

  [[nodiscard]] std::int64_t end_ns() const { return spec_.duration_ns + kDrainNs; }

  /// ScenarioRun::finish(): a checkpoint digest at every round boundary,
  /// then the final record.
  sc::ScenarioResult finish() {
    sc::ScenarioResult r;
    for (std::int64_t at : checkpoint_times_) {
      advance(at);
      spans_.open(kDigest);
      r.checkpoints.push_back(sc::Checkpoint{at, digest().hash()});
      spans_.close();
    }
    advance(end_ns());
    spans_.open(kDigest);
    r.name = spec_.name;
    r.spec_hash = sc::spec_hash(spec_);
    r.forwarded = forwarded();
    r.delivered = delivered();
    r.dispatched = net_.sim().events_dispatched();
    r.final_digest = digest().hash();
    for (const auto& s : suspicions()) r.suspicions.push_back(s.to_string());
    spans_.close();
    return r;
  }

  void fill_counts(TracedRun& out) {
    out.topo_generate_s = seconds(topo_);
    out.routing_tables_s = seconds(routing_);
    out.commission_s = seconds(commission_);
    out.events = net_.sim().events_dispatched();
    out.control_msgs = control_msgs_;
    out.control_bytes = control_bytes_;
    const detection::DetectorCounters c = counters();
    out.rounds_evaluated = c.rounds_evaluated;
    out.suspicions = suspicions().size();
    if (pik2_ != nullptr) {
      out.exchange_bytes = pik2_->exchange_bytes();
      out.guard_rejects = pik2_->guard_stats().rejected();
    } else if (pi2_ != nullptr) {
      out.exchange_bytes = pi2_->flood().bytes_sent();
      out.guard_rejects = pi2_->guard_stats().rejected();
    } else if (chi_ != nullptr) {
      // chi's exchange is the signed reports delivered to the validator.
      out.exchange_bytes = control_bytes_;
      out.guard_rejects = chi_->guard_stats().rejected();
    }
    for (const char* name : {"sim.drop.congestion", "sim.drop.red_early", "sim.drop.malicious",
                             "sim.drop.ttl_expired", "sim.drop.no_route", "sim.drop.link_fault",
                             "sim.drop.link_down", "sim.drop.node_down"}) {
      out.drops += metrics_.counter_value(name);
    }
    for (const auto& f : tcp_) {
      out.tcp_retransmits += f->data_retransmits() + f->syn_retransmits();
    }
  }

 private:
  std::unique_ptr<fatih::topo::GeneratedTopology> make_generated() {
    if (spec_.shards != 0 || !spec_.churn.empty()) {
      throw std::invalid_argument("traced rebuild: classic engine without churn only");
    }
    if (spec_.topology != sc::TopologyKind::kGenerated) return nullptr;
    const auto t0 = Clock::now();
    auto gen = std::make_unique<fatih::topo::GeneratedTopology>(
        fatih::topo::generate(topo_params(spec_.topo)));
    topo_ += Clock::now() - t0;
    return gen;
  }

  void build_topology() {
    const auto t0 = Clock::now();
    Duration proc_jitter = Duration::micros(10);
    switch (spec_.topology) {
      case sc::TopologyKind::kAbilene: {
        namespace routing = fatih::routing;
        for (NodeId n = 0; n <= routing::kNewYork; ++n) net_.add_router(routing::abilene_name(n));
        for (const auto& l : routing::abilene_links()) {
          sim::LinkConfig link;
          link.delay = Duration::millis(l.delay_ms);
          link.metric = l.delay_ms;
          link.bandwidth_bps = 1e9;
          link.queue_limit_bytes = 256000;
          net_.connect(l.a, l.b, link);
        }
        break;
      }
      case sc::TopologyKind::kChiBottleneck: {
        net_.add_router("s1");
        net_.add_router("s2");
        net_.add_router("r");
        net_.add_router("rd");
        sim::LinkConfig edge;
        edge.bandwidth_bps = 1e8;
        edge.delay = Duration::millis(1);
        sim::LinkConfig core;
        core.bandwidth_bps = 1e7;
        core.delay = Duration::millis(2);
        core.queue_limit_bytes = 50000;
        if (spec_.detector.red) {
          core.queue = sim::QueueKind::kRed;
          core.red.weight = 0.002;
          core.red.min_threshold = 15000;
          core.red.max_threshold = 45000;
          core.red.max_probability = 0.1;
          core.red.gentle = true;
          core.red.byte_limit = 90000;
          core.red.mean_packet_size = 1000;
          core.red.drain_rate = 1e7 / 8;
        }
        net_.connect(0, 2, edge);
        net_.connect(1, 2, edge);
        net_.connect(2, 3, core);
        proc_jitter = Duration::micros(50);
        break;
      }
      case sc::TopologyKind::kGenerated: {
        const fatih::topo::GeneratedTopology& g = *gen_;
        for (std::uint32_t n = 0; n < g.routers(); ++n) net_.add_router("g" + std::to_string(n));
        for (const fatih::topo::GenLink& l : g.links) {
          sim::LinkConfig cfg;
          cfg.bandwidth_bps = g.params.bandwidth_bps;
          cfg.queue_limit_bytes = g.params.queue_limit_bytes;
          cfg.delay = Duration::nanos(l.inter ? g.params.inter_delay_ns : g.params.intra_delay_ns);
          cfg.metric = l.inter ? 10 : 1;
          net_.connect(l.a, l.b, cfg);
        }
        break;
      }
      case sc::TopologyKind::kLine4:
        throw std::invalid_argument("traced rebuild: line4 topology is not a workload");
    }
    const auto t1 = Clock::now();
    topo_ += t1 - t0;
    tables_ = std::make_shared<fatih::routing::RoutingTables>(
        fatih::routing::Topology::from_network(net_));
    fatih::routing::install_static_routes(net_, *tables_);
    paths_ = std::make_unique<detection::PathCache>(tables_);
    for (NodeId n = 0; n < net_.node_count(); ++n) {
      net_.router(n).set_processing_delay(Duration::micros(20), proc_jitter);
    }
    routing_ += Clock::now() - t1;
  }

  void install_counters() {
    forwarded_by_node_.assign(net_.node_count(), 0);
    delivered_by_node_.assign(net_.node_count(), 0);
    for (NodeId n = 0; n < net_.node_count(); ++n) {
      std::uint64_t& fwd = forwarded_by_node_[n];
      net_.router(n).add_forward_tap(
          [&fwd](const sim::Packet&, NodeId, std::size_t, SimTime) { ++fwd; });
      std::uint64_t& del = delivered_by_node_[n];
      net_.node(n).add_local_handler([&del](const sim::Packet&, NodeId, SimTime) { ++del; });
    }
  }

  void build_traffic() {
    namespace traffic = fatih::traffic;
    for (const sc::FlowSpec& f : spec_.flows) {
      const auto start = SimTime::from_nanos(f.start_ns);
      const auto stop = f.stop_ns > 0 ? SimTime::from_nanos(f.stop_ns) : SimTime::infinity();
      switch (f.kind) {
        case sc::FlowKind::kCbr: {
          traffic::CbrSource::Config c;
          c.src = f.src;
          c.dst = f.dst;
          c.flow_id = f.flow_id;
          c.payload_bytes = f.payload_bytes;
          c.rate_pps = static_cast<double>(f.rate_mpps) / 1000.0;
          c.start = start;
          c.stop = stop;
          cbr_.push_back(std::make_unique<traffic::CbrSource>(net_, c));
          break;
        }
        case sc::FlowKind::kOnOff: {
          traffic::OnOffSource::Config c;
          c.src = f.src;
          c.dst = f.dst;
          c.flow_id = f.flow_id;
          c.payload_bytes = f.payload_bytes;
          c.on_rate_pps = static_cast<double>(f.rate_mpps) / 1000.0;
          c.mean_on = Duration::nanos(f.mean_on_ns);
          c.mean_off = Duration::nanos(f.mean_off_ns);
          c.start = start;
          c.stop = stop;
          onoff_.push_back(std::make_unique<traffic::OnOffSource>(net_, c));
          break;
        }
        case sc::FlowKind::kTcp: {
          traffic::TcpConfig c;
          c.mss_bytes = f.payload_bytes;
          tcp_.push_back(std::make_unique<traffic::TcpFlow>(net_, f.src, f.dst, f.flow_id, c));
          tcp_.back()->start(start);
          break;
        }
      }
    }
  }

  void build_attacks() {
    namespace attacks = fatih::attacks;
    std::map<NodeId, std::shared_ptr<attacks::FilterChain>> chains;
    for (const sc::AttackSpec& a : spec_.attacks) {
      attacks::FlowMatch match;
      match.flow_ids = a.flow_ids;
      const double fraction = static_cast<double>(a.fraction_ppm) / 1e6;
      const auto from = SimTime::from_nanos(a.active_from_ns);
      std::shared_ptr<sim::ForwardFilter> filter;
      switch (a.kind) {
        case sc::AttackKind::kRateDrop:
          filter = std::make_shared<attacks::RateDropAttack>(match, fraction, from, a.seed);
          break;
        case sc::AttackKind::kRedGateDrop:
          filter = std::make_shared<attacks::RedAvgThresholdDropAttack>(
              match, static_cast<double>(a.threshold_bytes), fraction, from, a.seed);
          break;
        default:
          throw std::invalid_argument(std::string("traced rebuild: unsupported attack ") +
                                      sc::attack_name(a.kind));
      }
      auto& chain = chains[a.at];
      if (chain == nullptr) chain = std::make_shared<attacks::FilterChain>();
      chain->append(std::move(filter));
    }
    for (auto& [at, chain] : chains) {
      net_.router(at).set_forward_filter(std::make_shared<TimedFilter>(chain, spans_));
    }
  }

  [[nodiscard]] std::vector<NodeId> terminals() const {
    if (!spec_.detector.terminals.empty()) return spec_.detector.terminals;
    std::vector<NodeId> all(net_.node_count());
    std::iota(all.begin(), all.end(), NodeId{0});
    return all;
  }

  /// Round-timer instants of the engine: (open, evaluate) per round for
  /// Pi2 / Pi(k+2), (ship, validate) per round for chi.
  void plan_eval_instants(Duration first, Duration second) {
    const detection::RoundClock clock{SimTime::from_nanos(spec_.detector.epoch_ns),
                                      Duration::nanos(spec_.detector.tau_ns)};
    for (std::int64_t r = 0; spec_.detector.rounds == 0 || r < spec_.detector.rounds; ++r) {
      const SimTime a = clock.interval_of(r).end + first;
      const SimTime b = clock.interval_of(r).end + second;
      if (a.nanos() > end_ns()) break;
      eval_instants_.push_back(a.nanos());
      if (b.nanos() <= end_ns()) eval_instants_.push_back(b.nanos());
    }
  }

  void open_tap(NodeId r) {
    if (armed_[r] != 0) spans_.open(kTap);
  }

  void build_detector() {
    const detection::RoundClock clock{SimTime::from_nanos(spec_.detector.epoch_ns),
                                      Duration::nanos(spec_.detector.tau_ns)};
    armed_.assign(net_.node_count(), 0);
    // Openers go in before the engine registers its callbacks; closers
    // after, on exactly the lists the engine used.
    for (NodeId n = 0; n < net_.node_count(); ++n) {
      net_.node(n).add_control_sink([this](const sim::Packet& p, NodeId, SimTime) {
        spans_.open(kControl);
        ++control_msgs_;
        control_bytes_ += p.size_bytes;
      });
    }
    const auto close = [this](auto&&...) { spans_.close(); };
    switch (spec_.detector.kind) {
      case sc::DetectorKind::kPi2:
      case sc::DetectorKind::kPik2: {
        for (NodeId n = 0; n < net_.node_count(); ++n) {
          net_.router(n).add_forward_tap(
              [this, n](const sim::Packet&, NodeId, std::size_t, SimTime) { open_tap(n); });
          net_.router(n).add_receive_tap(
              [this, n](const sim::Packet&, NodeId, SimTime) { open_tap(n); });
        }
        const auto commission_start = Clock::now();
        if (spec_.detector.kind == sc::DetectorKind::kPi2) {
          detection::Pi2Config cfg;
          cfg.clock = clock;
          cfg.k = spec_.detector.k;
          cfg.rounds = spec_.detector.rounds;
          cfg.reliable.enabled = spec_.detector.reliable;
          pi2_ = std::make_unique<detection::Pi2Engine>(net_, keys_, *paths_, terminals(), cfg);
          pi2_->start();
          plan_eval_instants(cfg.collect_settle, cfg.collect_settle + cfg.evaluate_settle);
        } else {
          detection::Pik2Config cfg;
          cfg.clock = clock;
          cfg.k = spec_.detector.k;
          cfg.rounds = spec_.detector.rounds;
          cfg.reliable.enabled = spec_.detector.reliable;
          pik2_ = std::make_unique<detection::Pik2Engine>(net_, keys_, *paths_, terminals(), cfg);
          pik2_->start();
          plan_eval_instants(cfg.collect_settle, cfg.collect_settle + cfg.exchange_timeout);
        }
        commission_ += Clock::now() - commission_start;
        // An engine puts a summary generator (one forward and one receive
        // tap) on exactly the routers that monitor some segment.
        for (NodeId n = 0; n < net_.node_count(); ++n) {
          const bool monitors = pik2_ != nullptr ? !pik2_->monitored_by(n).empty()
                                                 : !pi2_->monitored_by(n).empty();
          if (!monitors) continue;
          armed_[n] = 1;
          net_.router(n).add_forward_tap(close);
          net_.router(n).add_receive_tap(close);
        }
        break;
      }
      case sc::DetectorKind::kChi: {
        const auto owner = gen_ != nullptr ? gen_->chi_owner
                                           : static_cast<NodeId>(net_.node_count() - 2);
        const auto peer = gen_ != nullptr ? gen_->chi_peer
                                          : static_cast<NodeId>(net_.node_count() - 1);
        sim::Router& owner_node = net_.router(owner);
        std::vector<sim::Interface*> feeds;
        for (std::size_t i = 0; i < owner_node.interface_count(); ++i) {
          const NodeId nbr = owner_node.interface(i).peer();
          if (nbr == peer) continue;
          if (auto* iface = net_.node(nbr).interface_to(owner)) feeds.push_back(iface);
        }
        sim::Interface* queue = owner_node.interface_to(peer);
        const auto open = [this](auto&&...) { spans_.open(kTap); };
        for (auto* iface : feeds) iface->add_transmit_tap(open);
        owner_node.add_forward_tap(open);
        net_.node(peer).add_receive_tap(open);
        queue->add_enqueue_tap(open);
        const auto commission_start = Clock::now();
        detection::ChiConfig cfg;
        cfg.clock = clock;
        cfg.learning_rounds = spec_.detector.learning_rounds;
        cfg.rounds = spec_.detector.rounds;
        cfg.reliable.enabled = spec_.detector.reliable;
        chi_ = std::make_unique<detection::QueueValidator>(net_, keys_, *paths_, owner, peer, cfg);
        chi_->start();
        commission_ += Clock::now() - commission_start;
        plan_eval_instants(cfg.settle / 4, cfg.settle);
        for (auto* iface : feeds) iface->add_transmit_tap(close);
        owner_node.add_forward_tap(close);
        net_.node(peer).add_receive_tap(close);
        queue->add_enqueue_tap(close);
        break;
      }
    }
    for (NodeId n = 0; n < net_.node_count(); ++n) net_.node(n).add_control_sink(close);
  }

  /// Runs to `t_ns`, slicing zero-width windows at the round-timer
  /// instants so their callbacks are timed apart from the traffic.
  void advance(std::int64_t t_ns) {
    while (next_eval_ < eval_instants_.size() && eval_instants_[next_eval_] <= t_ns) {
      const std::int64_t at = eval_instants_[next_eval_++];
      spans_.open(kSim);
      net_.sim().run_until(SimTime::from_nanos(at - 1));
      spans_.close();
      spans_.open(kEval);
      net_.sim().run_until(SimTime::from_nanos(at));
      spans_.close();
    }
    spans_.open(kSim);
    net_.sim().run_until(SimTime::from_nanos(t_ns));
    spans_.close();
  }

  [[nodiscard]] std::uint64_t forwarded() const {
    return std::accumulate(forwarded_by_node_.begin(), forwarded_by_node_.end(), std::uint64_t{0});
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return std::accumulate(delivered_by_node_.begin(), delivered_by_node_.end(), std::uint64_t{0});
  }

  [[nodiscard]] const std::vector<detection::Suspicion>& suspicions() const {
    if (pi2_ != nullptr) return pi2_->suspicions();
    if (pik2_ != nullptr) return pik2_->suspicions();
    return chi_->suspicions();
  }

  [[nodiscard]] detection::DetectorCounters counters() const {
    if (pi2_ != nullptr) return pi2_->counters();
    if (pik2_ != nullptr) return pik2_->counters();
    return chi_->counters();
  }

  [[nodiscard]] std::uint64_t detector_fingerprint() const {
    if (pi2_ != nullptr) return pi2_->state_fingerprint();
    if (pik2_ != nullptr) return pik2_->state_fingerprint();
    return chi_->state_fingerprint();
  }

  /// ScenarioRun's StateDigest for the classic engine.
  [[nodiscard]] sc::StateDigest digest() {
    sc::StateDigest d;
    d.t_ns = net_.sim().now().nanos();
    d.dispatched = net_.sim().events_dispatched();
    d.forwarded = forwarded();
    d.delivered = delivered();
    d.rng_hash = net_.rng().state_hash();
    d.pending_hash = net_.sim().pending_fingerprint();
    d.detector_hash = detector_fingerprint();
    std::uint64_t sh = fatih::util::kFnvOffsetBasis;
    for (const auto& s : suspicions()) {
      const std::string text = s.to_string();
      sh = fatih::util::fnv1a64(text.data(), text.size(), sh);
    }
    d.suspicion_hash = sh;
    d.suspicion_count = suspicions().size();
    return d;
  }

  const sc::ScenarioSpec& spec_;
  Spans& spans_;
  Clock::duration topo_{};
  Clock::duration routing_{};
  Clock::duration commission_{};
  // Declaration order is construction order, as in ScenarioRun::Impl.
  std::unique_ptr<fatih::topo::GeneratedTopology> gen_;
  sim::Network net_;
  fatih::crypto::KeyRegistry keys_;
  fatih::obs::MetricsRegistry metrics_;
  std::shared_ptr<fatih::routing::RoutingTables> tables_{};
  std::unique_ptr<detection::PathCache> paths_{};

  std::vector<std::unique_ptr<fatih::traffic::CbrSource>> cbr_{};
  std::vector<std::unique_ptr<fatih::traffic::OnOffSource>> onoff_{};
  std::vector<std::unique_ptr<fatih::traffic::TcpFlow>> tcp_{};

  std::unique_ptr<detection::Pi2Engine> pi2_{};
  std::unique_ptr<detection::Pik2Engine> pik2_{};
  std::unique_ptr<detection::QueueValidator> chi_{};

  std::vector<std::uint64_t> forwarded_by_node_{};
  std::vector<std::uint64_t> delivered_by_node_{};
  std::vector<char> armed_{};  ///< routers whose engine taps are bracketed
  std::uint64_t control_msgs_ = 0;
  std::uint64_t control_bytes_ = 0;

  std::vector<std::int64_t> checkpoint_times_{};
  std::vector<std::int64_t> eval_instants_{};
  std::size_t next_eval_ = 0;
};

}  // namespace

TracedRun run_traced(const sc::ScenarioSpec& spec) {
  TracedRun out;
  Spans spans;
  const auto t0 = Clock::now();
  Rebuild rebuild(spec, spans);
  const auto t1 = Clock::now();
  out.result = rebuild.finish();
  const auto t2 = Clock::now();

  out.setup_s = seconds(t1 - t0);
  out.run_s = seconds(t2 - t1);
  out.sim_self_s = spans.self_s(kSim);
  out.tap_s = spans.self_s(kTap);
  out.tap_calls = spans.calls(kTap);
  out.control_s = spans.self_s(kControl);
  out.filter_s = spans.self_s(kFilter);
  out.filter_calls = spans.calls(kFilter);
  out.eval_s = spans.self_s(kEval);
  out.digest_s = spans.self_s(kDigest);
  out.residual_s = out.run_s - (out.sim_self_s + out.tap_s + out.control_s + out.filter_s +
                                out.eval_s + out.digest_s);
  rebuild.fill_counts(out);
  return out;
}

}  // namespace perfbench
