#include "detection/tv.hpp"

#include <algorithm>
#include <vector>

#include "validation/summary.hpp"

namespace fatih::detection {

namespace {

std::uint64_t loss_allowance(const TvThresholds& th, std::uint64_t upstream_count) {
  const auto relative =
      static_cast<std::uint64_t>(th.max_lost_fraction * static_cast<double>(upstream_count));
  return std::max(th.max_lost_packets, relative);
}

/// Returns the view's pre-sorted span when the caller supplied one, else
/// sorts a scratch copy (kept alive by the caller's scratch vector).
std::span<const validation::Fingerprint> sorted_of(const TvView& v,
                                                   std::vector<validation::Fingerprint>& scratch) {
  if (v.sorted.size() == v.content.size()) return v.sorted;
  scratch.assign(v.content.begin(), v.content.end());
  std::sort(scratch.begin(), scratch.end());
  return scratch;
}

}  // namespace

TvOutcome evaluate_tv(TvPolicy policy, const TvThresholds& thresholds, const TvView& upstream,
                      const TvView& downstream) {
  TvOutcome out;
  if (policy == TvPolicy::kFlow) {
    const std::uint64_t up = upstream.packets;
    const std::uint64_t down = downstream.packets;
    out.lost = up > down ? up - down : 0;
    out.fabricated = down > up ? down - up : 0;
  } else {
    std::vector<validation::Fingerprint> up_scratch;
    std::vector<validation::Fingerprint> down_scratch;
    const auto up_sorted = sorted_of(upstream, up_scratch);
    const auto down_sorted = sorted_of(downstream, down_scratch);
    out.lost = validation::multiset_difference_size(up_sorted, down_sorted);
    out.fabricated = validation::multiset_difference_size(down_sorted, up_sorted);
    if (policy == TvPolicy::kContentOrder) {
      out.reordered = validation::reorder_count(upstream.content, downstream.content);
    }
  }
  out.ok = out.lost <= loss_allowance(thresholds, upstream.packets) &&
           out.fabricated == 0 &&
           (policy != TvPolicy::kContentOrder || out.reordered <= thresholds.max_reordered);
  return out;
}

TvOutcome evaluate_tv(TvPolicy policy, const TvThresholds& thresholds,
                      const SegmentSummary& upstream, const SegmentSummary& downstream) {
  return evaluate_tv(policy, thresholds,
                     TvView{upstream.content, {}, upstream.counters.packets},
                     TvView{downstream.content, {}, downstream.counters.packets});
}

}  // namespace fatih::detection
