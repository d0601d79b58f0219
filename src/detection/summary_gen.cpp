#include "detection/summary_gen.hpp"

#include <algorithm>

namespace fatih::detection {

SummaryGenerator::SummaryGenerator(sim::Network& net, const crypto::KeyRegistry& keys,
                                   util::NodeId router, RoundClock clock, const PathCache& paths)
    : net_(net),
      keys_(keys),
      router_(router),
      clock_(clock),
      paths_(paths) {
  auto& r = net_.router(router_);
  r.add_forward_tap([this](const sim::Packet& p, util::NodeId prev, std::size_t out_iface,
                           util::SimTime now) { on_forward(p, prev, out_iface, now); });
  r.add_receive_tap([this](const sim::Packet& p, util::NodeId prev, util::SimTime now) {
    on_receive(p, prev, now);
  });
}

void SummaryGenerator::monitor(const routing::PathSegment& segment, std::size_t position,
                               std::uint32_t sample_keep_per_256) {
  Role role;
  role.segment = segment;
  role.position = position;
  role.sample_keep = sample_keep_per_256;
  // All routers of a segment share the key derived from its two ends, so
  // their fingerprints for the same packet agree.
  role.fp_key = keys_.fingerprint_key(segment.front(), segment.back());
  roles_.push_back(std::move(role));
  route_roles_.clear();  // any cached list may now miss the new role
}

const SummaryGenerator::RoleLists& SummaryGenerator::roles_for(const sim::Packet& p) {
  const RouteKey key{paths_.epoch_index_at(p.created), p.hdr.src, p.hdr.dst};
  auto it = route_roles_.find(key);
  if (it != route_roles_.end()) return it->second;
  // The packet's stable path must contain the segment, i.e. this traffic
  // genuinely traverses pi (mis-addressed or fabricated traffic that does
  // not belong to pi is not charged to it). The path is the one in force
  // when the packet was created: under churn, traffic launched onto the
  // old path is judged against the old path, not the post-reroute one.
  const auto& path = paths_.path_at(p.hdr.src, p.hdr.dst, p.created);
  RoleLists lists;
  for (std::size_t idx = 0; idx < roles_.size(); ++idx) {
    const Role& role = roles_[idx];
    const auto& seg = role.segment.nodes();
    if (role.position >= seg.size() || seg[role.position] != router_) continue;
    if (!role.segment.within(path)) continue;
    (role.position + 1 == seg.size() ? lists.sink : lists.forward).push_back(idx);
  }
  return route_roles_.emplace(key, std::move(lists)).first->second;
}

void SummaryGenerator::record(std::size_t idx, const sim::Packet& p) {
  const Role& role = roles_[idx];
  const validation::Fingerprint fp = validation::packet_fingerprint(role.fp_key, p);
  if (role.sample_keep < 256 && (fp & 0xFF) >= role.sample_keep) return;
  Bucket& b = buckets_[{idx, clock_.round_of(p.created)}];
  b.counters.add(p.size_bytes);
  b.content.push_back(fp);
}

void SummaryGenerator::on_forward(const sim::Packet& p, util::NodeId prev, std::size_t out_iface,
                                  util::SimTime /*now*/) {
  if (!enabled_ || p.is_control()) return;  // only data-plane traffic is validated
  const util::NodeId next = net_.router(router_).interface(out_iface).peer();
  // Alignment with the neighbors named by the segment.
  for (const std::size_t idx : roles_for(p).forward) {
    const Role& role = roles_[idx];
    const auto& seg = role.segment.nodes();
    const std::size_t i = role.position;
    if (next == seg[i + 1] && (i == 0 || prev == seg[i - 1])) record(idx, p);
  }
}

void SummaryGenerator::on_receive(const sim::Packet& p, util::NodeId prev, util::SimTime /*now*/) {
  if (!enabled_ || p.is_control()) return;
  for (const std::size_t idx : roles_for(p).sink) {
    const Role& role = roles_[idx];
    const std::size_t i = role.position;
    if (i == 0 || prev == role.segment.nodes()[i - 1]) record(idx, p);
  }
}

SegmentSummary SummaryGenerator::take_summary(const routing::PathSegment& segment,
                                              std::int64_t round) {
  SegmentSummary out;
  out.reporter = router_;
  out.segment = segment;
  out.round = round;
  for (std::size_t idx = 0; idx < roles_.size(); ++idx) {
    if (roles_[idx].segment != segment) continue;
    auto it = buckets_.find({idx, round});
    if (it == buckets_.end()) break;
    out.counters = it->second.counters;
    out.content = std::move(it->second.content);
    buckets_.erase(it);
    break;
  }
  return out;
}

}  // namespace fatih::detection
