// Protocol chi (dissertation ch. 6): compromised-router detection that
// dynamically infers congestive packet loss, so residual losses can be
// attributed to malice without a static threshold.
//
// For each monitored output queue Q of router r toward rd (Fig. 6.1):
//   * every neighbor rs of r records Tinfo(rs, Qin): fingerprint, size,
//     flow and PREDICTED entry time (transmit start + serialization +
//     propagation + r's nominal processing delay) of every packet it feeds
//     toward Q;
//   * r itself reports the packets it originates into Q (the Toriginated
//     term of §2.3's footnote) — a protocol-faulty r may lie here, which
//     the adversarial tests exercise;
//   * rd records Tinfo(rd, Qout) locally from arrivals: exit time =
//     arrival - propagation - serialization;
//   * at the end of each round the neighbors ship signed reports to rd,
//     which replays Q (§6.2.1): exits subtract, entries that later exit
//     add, entries that never exit are drops — congestive iff the
//     predicted queue could not hold them.
//
// Because processing jitter makes prediction inexact, drops are judged
// statistically: a single-packet confidence test (Fig. 6.2) and a combined
// Z-test over a round's losses (§6.2.1), using the error model X = qact -
// qpred ~ N(mu, sigma) calibrated during a trusted learning period.
//
// The RED variant (§6.5) replays the deterministic RedState over the same
// streams to recover each packet's legitimate drop probability p_i, then
// checks observed drops against sum(p_i) globally and per flow (Fig. 6.10).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/keys.hpp"
#include "detection/byzantine.hpp"
#include "detection/messages.hpp"
#include "detection/path_cache.hpp"
#include "detection/reliable.hpp"
#include "detection/types.hpp"
#include "sim/network.hpp"
#include "sim/red.hpp"
#include "util/flat_map.hpp"
#include "validation/fingerprint.hpp"
#include "util/stats.hpp"

namespace fatih::detection {

class ConvictionEngine;

struct ChiConfig {
  RoundClock clock;
  /// Report shipping delay after round end; must exceed `grace`.
  util::Duration settle = util::Duration::millis(400);
  /// A packet entering the queue must have exited within `grace` or it is
  /// classified as dropped (max queueing delay + slack).
  util::Duration grace = util::Duration::millis(200);
  /// Rounds of trusted calibration for (mu, sigma) of qact - qpred.
  std::int64_t learning_rounds = 4;
  /// Target significance for the single-packet test (§6.1.3).
  double single_threshold = 0.99;
  /// Target significance for the combined Z-test.
  double combined_threshold = 0.999;
  /// Z threshold for the RED per-flow / global drop-count test (per
  /// round), applied to overdispersion-normalized z scores.
  double red_z_threshold = 5.0;
  /// Z threshold for the cumulative per-flow test (evidence accumulated
  /// across rounds; catches rate-limited attacks like Fig. 6.15's 5%).
  double red_cumulative_z_threshold = 5.0;
  /// Suspicious-count test: H0 probability of a congestive drop looking
  /// individually suspicious, the z threshold, and the minimum count.
  double count_test_p0 = 0.05;
  double count_z_threshold = 4.0;
  std::uint64_t count_test_min = 8;
  /// Conservation of timeliness (§2.4.1): a packet's queue sojourn can
  /// never legitimately exceed a full queue's drain time; anything beyond
  /// (limit drain time) * delay_slack + grace is a malicious delay.
  double delay_slack = 1.5;
  std::uint64_t delayed_packets_min = 3;  ///< per-round alarm threshold
  /// When enabled, ChiEngine ships every report part over a shared
  /// ack/retransmit channel (one per network), so neighbor reports
  /// survive lossy control links; `settle` must cover the retry schedule.
  ReliableConfig reliable;
  std::int64_t rounds = 0;  ///< 0 = run until simulation ends
};

/// Validator for one output queue (r -> rd), hosted at rd.
class QueueValidator {
 public:
  QueueValidator(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
                 util::NodeId queue_owner, util::NodeId queue_peer, ChiConfig config);

  void start();

  [[nodiscard]] const std::vector<Suspicion>& suspicions() const { return suspicions_; }
  void set_suspicion_handler(SuspicionHandler h) { handler_ = std::move(h); }

  /// Calibrated error-model parameters (valid after learning completes).
  [[nodiscard]] double mu() const { return mu_; }
  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] bool learned() const { return learned_; }

  /// Per-round diagnostics for the benches.
  struct RoundStats {
    std::int64_t round = 0;
    std::uint64_t entries = 0;
    std::uint64_t exits = 0;
    std::uint64_t drops = 0;
    std::uint64_t congestive = 0;  ///< drops explained by the queue model
    std::uint64_t suspicious = 0;  ///< drops the model cannot explain
    std::uint64_t delayed = 0;     ///< sojourns beyond any legitimate queueing
    double max_single_confidence = 0.0;
    double combined_confidence = 0.0;
    double red_expected_drops = 0.0;
    double red_max_flow_z = 0.0;
    bool alarmed = false;
    bool invalidated = false;  ///< round straddled a route change (churn)
  };
  [[nodiscard]] const std::vector<RoundStats>& rounds() const { return round_stats_; }

  /// Churn-awareness: rounds whose replay was skipped because a route
  /// change straddled them. Never counted as suspicions.
  [[nodiscard]] std::uint64_t rounds_invalidated() const {
    return counters_.rounds_invalidated;
  }
  /// Uniform engine introspection (same struct across pi2/pik2/chi).
  [[nodiscard]] const DetectorCounters& counters() const { return counters_; }

  /// FNV fingerprint of the validator's evolving state: watermark,
  /// counters, calibration (mu/sigma bit patterns), per-round stats and
  /// replay-queue occupancy, for checkpoint digests.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// Makes a reporter's shipped report lie (protocol-fault injection): the
  /// mutator may add/remove records or return false to suppress entirely.
  /// Works for the owner's self-report AND for any neighbor — a lying
  /// neighbor is how the framing tests try to pin drops on an honest r.
  using SelfReportMutator = std::function<bool(ChiReport&)>;
  void set_report_mutator(util::NodeId reporter, SelfReportMutator m) {
    mutators_[reporter] = std::move(m);
  }
  void set_self_report_mutator(SelfReportMutator m) { mutators_[owner_] = std::move(m); }

  /// Adversarial entry: signs `report` with `from`'s own key and ships it
  /// to rd. A second, conflicting part for an already-shipped (reporter,
  /// round, part) is an equivocation rd can prove with the two envelopes.
  void inject_report(util::NodeId from, const ChiReport& report);

  /// Optional conviction layer (see Pi2Engine::set_conviction_engine).
  void set_conviction_engine(ConvictionEngine* c) { conviction_ = c; }

  /// Control-plane verification counters (rejected reports, replays, ...).
  [[nodiscard]] const ByzantineStats& guard_stats() const { return guard_.stats(); }

  /// Ground-truth error samples observed during learning (tests).
  [[nodiscard]] const util::RunningStats& error_stats() const { return error_stats_; }

  /// Observer of each raw calibration sample (benches build histograms).
  void set_error_sample_hook(std::function<void(double)> hook) {
    error_sample_hook_ = std::move(hook);
  }

  /// Delivery entry point: a signed neighbor/self report arrived at rd.
  void on_report(const ChiReportPayload& payload);

  /// Ships report parts over `ch` (reliable transport) instead of raw
  /// control packets; `ch` must outlive the validator. Set by ChiEngine.
  void set_channel(ReliableChannel* ch) { channel_ = ch; }

 private:
  struct Entry {
    ChiRecord rec;
    util::NodeId from = util::kInvalidNode;
  };

  void install_taps();
  void ship_reports(std::int64_t round);
  void validate(std::int64_t round);
  void stage_ready_entries(util::SimTime upto, RoundStats& stats);
  void replay_droptail(util::SimTime upto, RoundStats& stats);
  void replay_red(util::SimTime upto, RoundStats& stats);
  void finish_round(std::int64_t round, RoundStats& stats);
  /// Raises a suspicion. An empty `segment` means "attribute the round's
  /// unexplained drops": when every suspicious drop was fed by a single
  /// reporter rs != r, the segment is {rs, r} (either r dropped rs's
  /// packets or rs lied about sending them); otherwise the queue pair
  /// {r, rd}.
  void suspect(std::int64_t round, const char* cause, double confidence,
               routing::PathSegment segment = {});
  [[nodiscard]] routing::PathSegment attributed_segment() const;

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  const PathCache& paths_;
  util::NodeId owner_;  ///< r
  util::NodeId peer_;   ///< rd
  ChiConfig config_;
  ControlGuard guard_;
  ConvictionEngine* conviction_ = nullptr;
  std::int64_t closed_round_ = -1;  ///< highest validated round (watermark)
  ReliableChannel* channel_ = nullptr;
  crypto::SipKey fp_key_;
  sim::LinkParams link_;           ///< the r -> rd link
  std::size_t queue_limit_ = 0;    ///< bytes
  util::Duration owner_proc_;      ///< r's nominal processing delay
  std::optional<sim::RedParams> red_;  ///< set when Q is a RED queue

  // Staging at the neighbors (per neighbor, per round) before shipping.
  // Accounting stores are flat sorted-vector containers (util/flat_map.hpp):
  // std::map iteration order — determinism is load-bearing — with dense
  // lookups.
  util::FlatMap<std::pair<util::NodeId, std::int64_t>, std::vector<ChiRecord>> neighbor_staged_;
  // Arrived reports, merged; all entries not yet replayed, time-ordered.
  std::vector<Entry> pending_entries_;
  // Exits observed locally at rd: fp -> record (consumed by replay).
  util::FlatMap<validation::Fingerprint, ChiRecord> exits_;
  std::vector<ChiRecord> exit_log_;  // time-ordered, not yet replayed
  // Which neighbors owe a report for each round.
  util::FlatMap<std::int64_t, util::FlatSet<util::NodeId>> reports_due_;
  util::FlatSet<std::pair<util::NodeId, std::int64_t>> reports_seen_;  // all parts arrived
  util::FlatMap<std::pair<util::NodeId, std::int64_t>, util::FlatSet<std::uint32_t>> parts_seen_;
  // Equivocation ledger: first MAC-valid envelope per (reporter, round,
  // part); a second, different one completes a self-incriminating proof.
  util::FlatMap<std::tuple<util::NodeId, std::int64_t, std::uint32_t>, crypto::SignedEnvelope>
      part_envelope_;
  util::FlatSet<std::pair<util::NodeId, std::int64_t>> proof_filed_;
  // Per-reporter tally of this round's unexplained drops (framing defense).
  util::FlatMap<util::NodeId, std::uint64_t> suspicious_by_;

  // Replay state. Events are merged into a time-ordered queue that
  // persists across rounds: a departure later than this round's horizon
  // must not be applied before next round's earlier arrivals. The queue is
  // a flat struct-of-rounds store: a vector kept sorted from events_head_
  // onward (each round's batch is sorted then inplace_merged against the
  // unconsumed tail) and consumed by advancing the head cursor — no
  // node allocations and no tail shifting, with the exact ordering the
  // old std::set comparator produced (ts, arrivals-before-departures,
  // insertion seq), so replay order is unchanged.
  struct ReplayEvent {
    util::SimTime ts{};
    bool departure = false;
    bool matched = false;
    bool control = false;
    std::uint32_t ps = 0;
    std::uint32_t flow = 0;
    validation::Fingerprint fp = 0;
    util::NodeId from = util::kInvalidNode;  ///< reporter that claimed the entry
    std::uint64_t seq = 0;  // insertion tie-break

    bool operator<(const ReplayEvent& o) const {
      if (ts != o.ts) return ts < o.ts;
      if (departure != o.departure) return !departure;  // arrivals first
      return seq < o.seq;
    }
  };
  std::vector<ReplayEvent> events_;  ///< sorted from events_head_ on
  std::size_t events_head_ = 0;      ///< first unconsumed event
  std::uint64_t event_seq_ = 0;
  /// Drops the consumed prefix once it dominates the buffer.
  void compact_events();
  double qpred_ = 0.0;
  double max_entry_ps_ = 0.0;  ///< largest packet seen; bounds the race error
  // Cumulative per-flow drop accounting for the RED variant.
  struct FlowCum {
    double expected = 0.0;
    double variance = 0.0;
    std::uint64_t observed = 0;
  };
  util::FlatMap<std::uint32_t, FlowCum> red_cum_;
  FlowCum red_cum_global_;
  /// RED drops cluster (the count-reset dynamics correlate them), so the
  /// Bernoulli variance understates per-flow spread. The dispersion of
  /// per-round standardized residuals is tracked online and divides the z
  /// scores — a self-calibrating overdispersion correction.
  util::RunningStats red_residual_sq_;
  sim::RedState red_state_;

  // Learning.
  util::FlatMap<validation::Fingerprint, double> qact_probe_;  // fp -> qact at entry
  util::RunningStats error_stats_;
  std::function<void(double)> error_sample_hook_;
  bool learned_ = false;
  double mu_ = 0.0;
  double sigma_ = 1.0;

  std::vector<RoundStats> round_stats_;
  DetectorCounters counters_;
  std::vector<Suspicion> suspicions_;
  SuspicionHandler handler_;
  util::FlatMap<util::NodeId, SelfReportMutator> mutators_;
};

/// A run's alarmed rounds judged against a known attack onset, per the
/// accuracy definition (§4.2.2): an alarm in the onset round or later is a
/// hit; any earlier alarm, and every alarm of an attack-free run (no
/// onset), is a false alarm.
struct AlarmTally {
  std::size_t hits = 0;
  std::size_t false_alarms = 0;
};
[[nodiscard]] AlarmTally tally_alarms(const std::vector<QueueValidator::RoundStats>& rounds,
                                      std::optional<std::int64_t> onset_round);

/// Convenience wrapper: a fleet of QueueValidators covering every
/// router-to-router queue in the network (or a chosen subset).
class ChiEngine {
 public:
  ChiEngine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
            ChiConfig config);

  /// Monitors one queue; returns the validator for inspection.
  QueueValidator& monitor_queue(util::NodeId owner, util::NodeId peer);
  /// Monitors every router-to-router queue.
  void monitor_all();

  void start();

  [[nodiscard]] std::vector<Suspicion> all_suspicions() const;
  /// Sum of rounds_invalidated over all validators.
  [[nodiscard]] std::uint64_t rounds_invalidated() const;
  /// Uniform engine introspection: the validators' counters, summed.
  [[nodiscard]] DetectorCounters counters() const;
  void set_suspicion_handler(SuspicionHandler h);

  /// Optional conviction layer, forwarded to every validator (existing and
  /// future).
  void set_conviction_engine(ConvictionEngine* c);
  /// Control-plane verification counters, summed over the validators.
  [[nodiscard]] ByzantineStats guard_stats() const;

  [[nodiscard]] const std::vector<std::unique_ptr<QueueValidator>>& validators() const {
    return validators_;
  }

 private:
  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  const PathCache& paths_;
  ChiConfig config_;
  ConvictionEngine* conviction_ = nullptr;
  std::unique_ptr<ReliableChannel> channel_;  ///< shared; null unless enabled
  std::vector<std::unique_ptr<QueueValidator>> validators_;
  SuspicionHandler handler_;
};

}  // namespace fatih::detection
