#include "sim/network.hpp"

#include <cassert>
#include <stdexcept>

namespace fatih::sim {

Network::Network(std::uint64_t seed) : seed_(seed), rng_(seed) {}

Router& Network::add_router(std::string name) {
  const auto id = static_cast<util::NodeId>(nodes_.size());
  nodes_.push_back(
      std::make_unique<Router>(sim_, id, std::move(name), rng_.next_u64()));
  node_is_router_.push_back(true);
  return static_cast<Router&>(*nodes_.back());
}

Host& Network::add_host(std::string name) {
  const auto id = static_cast<util::NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Host>(sim_, id, std::move(name)));
  node_is_router_.push_back(false);
  return static_cast<Host&>(*nodes_.back());
}

std::unique_ptr<OutputQueue> Network::make_queue(const LinkConfig& cfg) {
  if (cfg.queue == QueueKind::kRed) {
    return std::make_unique<RedQueue>(cfg.red, rng_.next_u64());
  }
  return std::make_unique<DropTailQueue>(cfg.queue_limit_bytes);
}

void Network::connect(util::NodeId a, util::NodeId b, const LinkConfig& cfg) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  const LinkParams link{cfg.bandwidth_bps, cfg.delay};

  Interface& ab = nodes_[a]->add_interface(b, link, make_queue(cfg));
  Interface& ba = nodes_[b]->add_interface(a, link, make_queue(cfg));
  ab.set_peer_node(nodes_[b].get());
  ba.set_peer_node(nodes_[a].get());

  adjacencies_.push_back(Adjacency{a, b, cfg.metric, link});
  adjacencies_.push_back(Adjacency{b, a, cfg.metric, link});
}

void Network::apply_interface_states(util::NodeId id) {
  Node& n = *nodes_.at(id);
  for (std::size_t i = 0; i < n.interface_count(); ++i) {
    Interface& iface = n.interface(i);
    iface.set_up(n.up() && link_admin_up(id, iface.peer()));
  }
}

void Network::set_link_up(util::NodeId a, util::NodeId b, bool up) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  const auto key = link_key(a, b);
  const bool currently_up = link_admin_down_.find(key) == link_admin_down_.end();
  if (currently_up == up) return;
  if (up) {
    link_admin_down_.erase(key);
  } else {
    link_admin_down_[key] = true;
  }
  if (Interface* ab = nodes_[a]->interface_to(b)) ab->set_up(up && nodes_[a]->up());
  if (Interface* ba = nodes_[b]->interface_to(a)) ba->set_up(up && nodes_[b]->up());
  FATIH_TRACE_EMIT(sim_.trace(),
                   route(sim_.now(), up ? obs::TraceCode::kLinkUp : obs::TraceCode::kLinkDown,
                         a, b));
  for (const auto& hook : link_hooks_) hook(a, b, up, sim_.now());
}

bool Network::link_admin_up(util::NodeId a, util::NodeId b) const {
  return link_admin_down_.find(link_key(a, b)) == link_admin_down_.end();
}

bool Network::link_usable(util::NodeId a, util::NodeId b) const {
  return link_admin_up(a, b) && nodes_.at(a)->up() && nodes_.at(b)->up();
}

void Network::crash_router(util::NodeId id) {
  Router& r = router(id);
  if (!r.up()) return;
  r.set_up(false);
  apply_interface_states(id);
  // Forwarding tables are soft state: gone with the crash. Policy routes
  // (the response mechanism's exclusions) go with them — a restarted
  // router must re-learn them from re-flooded alerts.
  r.clear_routes();
  FATIH_TRACE_EMIT(sim_.trace(), route(sim_.now(), obs::TraceCode::kNodeDown, id));
  for (const auto& hook : node_hooks_) hook(id, false, sim_.now());
}

void Network::restart_router(util::NodeId id) {
  Router& r = router(id);
  if (r.up()) return;
  r.set_up(true);
  apply_interface_states(id);
  FATIH_TRACE_EMIT(sim_.trace(), route(sim_.now(), obs::TraceCode::kNodeUp, id));
  for (const auto& hook : node_hooks_) hook(id, true, sim_.now());
}

Router& Network::router(util::NodeId id) {
  if (!is_router(id)) throw std::logic_error("node is not a router");
  return static_cast<Router&>(*nodes_.at(id));
}

Host& Network::host(util::NodeId id) {
  if (is_router(id)) throw std::logic_error("node is not a host");
  return static_cast<Host&>(*nodes_.at(id));
}

bool Network::is_router(util::NodeId id) const { return node_is_router_.at(id); }

void Network::attach_observability(obs::TraceSink* trace, obs::MetricsRegistry* metrics) {
  sim_.set_trace(trace);
  sim_.set_metrics(metrics);
  obs::PacketCounters& pc = sim_.packet_counters();
  pc = obs::PacketCounters{};
  if (metrics == nullptr) return;
  // Index order mirrors sim::DropReason (asserted in tests/obs).
  static constexpr const char* kDropNames[obs::PacketCounters::kDropKinds] = {
      "sim.drop.congestion", "sim.drop.red_early",  "sim.drop.malicious",
      "sim.drop.ttl_expired", "sim.drop.no_route",  "sim.drop.link_fault",
      "sim.drop.link_down",   "sim.drop.node_down",
  };
  for (std::size_t i = 0; i < obs::PacketCounters::kDropKinds; ++i) {
    pc.drops[i] = &metrics->counter(kDropNames[i]);
  }
  pc.enqueued = &metrics->counter("sim.enqueued");
  pc.transmitted = &metrics->counter("sim.transmitted");
  pc.forwarded = &metrics->counter("sim.forwarded");
  pc.queue_fill = &metrics->ewma("sim.queue.fill_ewma", 0.05);
}

Packet Network::make_packet(PacketHeader hdr, std::uint32_t payload_bytes) {
  Packet p;
  p.hdr = hdr;
  p.size_bytes = kHeaderBytes + payload_bytes;
  p.payload_tag = rng_.next_u64();
  p.uid = next_uid_++;
  p.created = sim_.now();
  return p;
}

}  // namespace fatih::sim
