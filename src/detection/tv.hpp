// The traffic-validation predicate TV(pi, info_i, info_j) (dissertation
// §4.2.1), parameterized by conservation policy and tolerance thresholds.
//
// Real networks lose a little traffic benignly, so TV accepts bounded loss
// (the static-threshold compromise of §6.1.1 that Protocol chi later
// replaces); fabrication and modification have no benign cause and get
// zero tolerance.
#pragma once

#include <cstdint>
#include <span>

#include "detection/messages.hpp"

namespace fatih::detection {

enum class TvPolicy {
  kFlow,          ///< conservation of flow: packet/byte counters only
  kContent,       ///< conservation of content: fingerprint sets
  kContentOrder,  ///< content + conservation of order (LCS reorder metric)
};

struct TvThresholds {
  std::uint64_t max_lost_packets = 0;  ///< absolute allowance per round
  double max_lost_fraction = 0.0;      ///< relative allowance (of upstream count)
  std::uint64_t max_reordered = 0;
};

struct TvOutcome {
  bool ok = true;
  std::uint64_t lost = 0;        ///< upstream-only packets
  std::uint64_t fabricated = 0;  ///< downstream-only packets
  std::uint64_t reordered = 0;   ///< |common| - |LCS|
};

/// Zero-copy view of one side of a TV evaluation: `content` is the
/// fingerprints in forwarding order, `packets` the counter term. `sorted`
/// may carry a pre-sorted copy of the same multiset — engines that
/// evaluate one summary many times (Pi2's per-router sweep) sort once and
/// reuse it; leave it empty (any size != content.size()) and evaluate_tv
/// sorts an internal scratch copy instead.
struct TvView {
  std::span<const validation::Fingerprint> content;
  std::span<const validation::Fingerprint> sorted = {};
  std::uint64_t packets = 0;
};

/// Evaluates TV between an upstream router's summary and the next
/// downstream router's summary for the same segment and round. The view
/// overload is the core — it reads straight out of the engines' round
/// stores; the SegmentSummary overload wraps and delegates.
[[nodiscard]] TvOutcome evaluate_tv(TvPolicy policy, const TvThresholds& thresholds,
                                    const TvView& upstream, const TvView& downstream);
[[nodiscard]] TvOutcome evaluate_tv(TvPolicy policy, const TvThresholds& thresholds,
                                    const SegmentSummary& upstream,
                                    const SegmentSummary& downstream);

}  // namespace fatih::detection
