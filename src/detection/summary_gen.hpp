// Traffic Summary Generator (dissertation Fig. 5.5).
//
// Sits on a router's forwarding path via packet taps and accumulates
// per-(segment, round) summaries of the traffic the router handled along
// each monitored path-segment. The packet's stable path (from the routing
// oracle) decides which segments a packet belongs to; mutable fields are
// excluded from fingerprints.
//
// Roles: at interior/source positions of a segment the router records at
// forward time (what it sent onward); at the sink position it records at
// receive time (what arrived off the segment).
//
// Which roles a packet can touch depends only on its (src, dst) and the
// route epoch in force when it was created, so the generator resolves that
// once per (epoch, src, dst): a memo maps the key to the indices of the
// forward-time and sink roles that sit at this router and whose segment
// lies within that epoch's path. Per packet the taps do one memo lookup
// and check only the listed roles' neighbours (prev, next hop). monitor()
// clears the memo, since a new role can belong to any cached list.
#pragma once

#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "crypto/keys.hpp"
#include "detection/messages.hpp"
#include "detection/path_cache.hpp"
#include "detection/types.hpp"
#include "sim/network.hpp"
#include "util/flat_map.hpp"
#include "validation/fingerprint.hpp"

namespace fatih::detection {

/// Per-router summary generator.
class SummaryGenerator {
 public:
  SummaryGenerator(sim::Network& net, const crypto::KeyRegistry& keys, util::NodeId router,
                   RoundClock clock, const PathCache& paths);
  SummaryGenerator(const SummaryGenerator&) = delete;
  SummaryGenerator& operator=(const SummaryGenerator&) = delete;

  /// Starts recording for `segment`, in which this router sits at
  /// `position`. `sample_keep_per_256`: record a packet only when its
  /// fingerprint falls into the agreed sampling range (256 = keep all;
  /// Pi(k+2)'s subsampling, §5.2.1).
  void monitor(const routing::PathSegment& segment, std::size_t position,
               std::uint32_t sample_keep_per_256 = 256);

  /// Removes and returns the summary for (segment, round); an empty
  /// summary if nothing was recorded.
  [[nodiscard]] SegmentSummary take_summary(const routing::PathSegment& segment,
                                            std::int64_t round);

  [[nodiscard]] util::NodeId router() const { return router_; }

  /// Disables recording (taps stay registered but become no-ops); used
  /// when a monitoring set is retired after re-commissioning.
  void set_enabled(bool enabled) { enabled_ = enabled; }

 private:
  struct Role {
    routing::PathSegment segment;
    std::size_t position = 0;
    std::uint32_t sample_keep = 256;
    /// The segment's fingerprint key (shared by every router on it).
    crypto::SipKey fp_key;
  };
  struct Bucket {
    validation::CounterSummary counters;
    std::vector<validation::Fingerprint> content;  // forwarding order
  };
  /// Indices into roles_, ascending, of the roles one (epoch, src, dst)
  /// can touch here: `forward` records at forward time, `sink` at receive.
  struct RoleLists {
    std::vector<std::size_t> forward;
    std::vector<std::size_t> sink;
  };
  /// (route epoch index, src, dst).
  using RouteKey = std::tuple<std::size_t, util::NodeId, util::NodeId>;

  void on_forward(const sim::Packet& p, util::NodeId prev, std::size_t out_iface,
                  util::SimTime now);
  void on_receive(const sim::Packet& p, util::NodeId prev, util::SimTime now);
  /// Fingerprints `p` under role `idx`'s key and, unless sampled out,
  /// appends it to the role's bucket for the packet's round.
  void record(std::size_t idx, const sim::Packet& p);
  /// The roles `p` can touch here, judged against the path in force when
  /// it was created; filled on first sight of its (epoch, src, dst).
  [[nodiscard]] const RoleLists& roles_for(const sim::Packet& p);

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  util::NodeId router_;
  RoundClock clock_;
  const PathCache& paths_;
  bool enabled_ = true;
  std::vector<Role> roles_;
  // Keyed by (role index, round); flat store, std::map iteration order.
  util::FlatMap<std::pair<std::size_t, std::int64_t>, Bucket> buckets_;
  // The per-route role memo described in the file comment.
  util::FlatMap<RouteKey, RoleLists> route_roles_;
};

}  // namespace fatih::detection
