// Protocol Pi(k+2) (dissertation §5.2, Fig. 5.3): complete, accurate
// failure detection with precision k+2, cheap enough for practical
// deployment — the protocol the Fatih prototype implements.
//
// Each router monitors the x-path-segments (3 <= x <= k+2) for which it is
// an END router. Per round, the two ends of each segment exchange signed
// summaries through the segment itself; a failed exchange (timeout) or a
// failed TV evaluation makes each end suspect the whole segment. Interior
// routers do nothing, which is what makes the overhead practical
// (Fig. 5.4), and subsampling of monitored packets is supported because
// interior routers never learn the sampling pattern (§5.2.1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "detection/byzantine.hpp"
#include "detection/reliable.hpp"
#include "detection/summary_gen.hpp"
#include "detection/tv.hpp"
#include "detection/types.hpp"
#include "util/flat_map.hpp"

namespace fatih::detection {

class ConvictionEngine;

/// How summaries travel between the segment ends.
enum class SummaryCompression {
  kFull,       ///< ship every fingerprint (conservation of order capable)
  kReconcile,  ///< ship Appendix-A characteristic-polynomial evaluations:
               ///< O(d) field elements; exact content diff up to the bound
  kBloom,      ///< ship a Bloom digest (§2.4.1): ~1.25 B/packet, the
               ///< difference size is estimated rather than exact
};

struct Pik2Config {
  RoundClock clock;
  std::size_t k = 1;
  util::Duration collect_settle = util::Duration::millis(300);
  /// Timeout mu for the summary exchange (§5.2: "within mu timeout interval").
  util::Duration exchange_timeout = util::Duration::millis(500);
  TvPolicy policy = TvPolicy::kContent;
  TvThresholds thresholds;
  /// Fingerprint sampling: keep fp iff (fp & 0xFF) < sample_keep_per_256.
  std::uint32_t sample_keep_per_256 = 256;
  SummaryCompression compression = SummaryCompression::kFull;
  /// Reconciliation difference bound (kReconcile); a diff beyond it is by
  /// itself a TV failure, so set it above the loss thresholds.
  std::size_t reconcile_bound = 32;
  /// When enabled, the end-to-end summary exchange runs over the reliable
  /// ack/retransmit channel (duplicate-suppressed on (reporter, segment,
  /// round, kind)); exchange_timeout must cover the retry schedule. A
  /// send whose retry budget runs out raises "exchange-undeliverable" at
  /// the sender immediately instead of waiting for the timeout.
  ReliableConfig reliable;
  std::int64_t rounds = 0;  ///< 0 = run until simulation ends
};

class Pik2Engine {
 public:
  Pik2Engine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
             const std::vector<util::NodeId>& terminals, Pik2Config config);

  void start();

  /// Retires the engine: stops the round scheduler and disables its
  /// summary generators. Registered taps remain (harmless no-ops), so the
  /// object must stay alive, parked.
  void stop();

  [[nodiscard]] const std::vector<Suspicion>& suspicions() const { return suspicions_; }
  void set_suspicion_handler(SuspicionHandler h) { handler_ = std::move(h); }

  /// Protocol-fault injection, as in Pi2Engine.
  using ReportMutator = std::function<bool(SegmentSummary&)>;
  void set_report_mutator(util::NodeId r, ReportMutator m) { mutators_[r] = std::move(m); }

  /// Adversarial entry: signs `summary` with `from`'s own key and sends it
  /// to the far end of its segment — a second, conflicting summary for an
  /// already-exchanged (segment, round) is an equivocation the receiver
  /// can prove with the two envelopes.
  void inject_summary(util::NodeId from, const SegmentSummary& summary);

  /// Optional conviction layer (see Pi2Engine::set_conviction_engine).
  void set_conviction_engine(ConvictionEngine* c) { conviction_ = c; }

  /// Control-plane verification counters (rejected exchanges, replays...).
  [[nodiscard]] const ByzantineStats& guard_stats() const { return guard_.stats(); }

  /// Segments with r as an end (its Pr).
  [[nodiscard]] std::vector<routing::PathSegment> monitored_by(util::NodeId r) const;

  /// Total control bytes shipped by the exchange so far (overhead bench).
  [[nodiscard]] std::uint64_t exchange_bytes() const { return exchange_bytes_; }

  /// Churn-awareness: (segment, round) evaluations skipped because the
  /// round straddled a route change on the exchange segment. Never counted
  /// as suspicions.
  [[nodiscard]] std::uint64_t rounds_invalidated() const {
    return counters_.rounds_invalidated;
  }
  /// Uniform engine introspection (same struct across pi2/pik2/chi).
  [[nodiscard]] const DetectorCounters& counters() const { return counters_; }

  /// FNV fingerprint of the engine's evolving round state (watermark,
  /// counters, store sizes, exchange bytes, raised suspicions), for
  /// checkpoint digests.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// The reliable transport, or null when `reliable.enabled` is off.
  [[nodiscard]] const ReliableChannel* channel() const { return channel_.get(); }

 private:
  void run_round(std::int64_t round);
  void exchange(std::int64_t round);
  void evaluate(std::int64_t round);
  void on_summary(util::NodeId at, const SegmentSummaryPayload& payload);
  void suspect(util::NodeId reporter, const routing::PathSegment& segment, std::int64_t round,
               const char* cause, double confidence = 1.0);
  /// True iff the round's verdict on `seg` would be contaminated by a
  /// route change (round interval through `now` overlaps a transition
  /// affecting the segment, or the segment is off the live path).
  [[nodiscard]] bool churn_invalidated(const routing::PathSegment& seg, std::int64_t round) const;

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  const PathCache& paths_;
  Pik2Config config_;
  ControlGuard guard_;
  ConvictionEngine* conviction_ = nullptr;
  std::int64_t closed_round_ = -1;  ///< highest evaluated round (watermark)
  DetectorCounters counters_;
  std::unique_ptr<ReliableChannel> channel_;  ///< null unless reliable.enabled
  std::vector<std::unique_ptr<SummaryGenerator>> generators_;
  std::vector<routing::PathSegment> segments_;
  // Local copy each end keeps of what it sent (for the TV evaluation).
  // Flat sorted-vector stores: std::map iteration order, dense lookups.
  // The own side never ships, so it keeps only what evaluation reads —
  // counters + content fingerprints — not a full SegmentSummary (the key
  // already carries reporter/segment/round, and the compressed forms only
  // exist on the peer side).
  struct OwnRecord {
    validation::CounterSummary counters;
    std::vector<validation::Fingerprint> content;  ///< forwarding order
  };
  util::FlatMap<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>, OwnRecord>
      own_;
  // Peer summaries received, keyed by (receiver, segment, round): the
  // guard's decoded summary, shared with the payload's memo. First verified
  // summary wins; a later conflicting one is an equivocation.
  util::FlatMap<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>,
                std::shared_ptr<const SegmentSummary>>
      peer_;
  // The envelope backing each peer_ entry, kept so a conflicting second
  // summary can be filed as a two-envelope equivocation proof.
  util::FlatMap<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>,
                crypto::SignedEnvelope>
      peer_envelope_;
  util::FlatSet<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>> proof_filed_;
  util::FlatMap<util::NodeId, ReportMutator> mutators_;
  std::uint64_t exchange_bytes_ = 0;
  bool stopped_ = false;
  std::vector<Suspicion> suspicions_;
  util::FlatSet<std::tuple<util::NodeId, routing::PathSegment, std::int64_t>> raised_;
  SuspicionHandler handler_;
};

}  // namespace fatih::detection
