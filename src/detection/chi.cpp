#include "detection/chi.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <queue>

#include "crypto/siphash.hpp"
#include "detection/evidence.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "validation/fingerprint.hpp"

namespace fatih::detection {

namespace {
constexpr const char* kComponent = "chi";
constexpr double kSigmaFloor = 64.0;  // bytes; guards against degenerate calibration
}  // namespace

QueueValidator::QueueValidator(sim::Network& net, const crypto::KeyRegistry& keys,
                               const PathCache& paths, util::NodeId queue_owner,
                               util::NodeId queue_peer, ChiConfig config)
    : net_(net),
      keys_(keys),
      paths_(paths),
      owner_(queue_owner),
      peer_(queue_peer),
      config_(config),
      guard_(net, keys, obs::TraceSource::kChi, "chi"),
      fp_key_(keys.fingerprint_key(queue_owner, queue_peer)) {
  auto& owner_node = net_.router(owner_);
  auto* iface = owner_node.interface_to(peer_);
  assert(iface != nullptr && "queue owner must be adjacent to peer");
  link_ = iface->link();
  queue_limit_ = iface->queue().byte_limit();
  owner_proc_ = owner_node.base_processing_delay();
  if (const auto* red = dynamic_cast<const sim::RedQueue*>(&iface->queue())) {
    red_ = red->params();
  }
  install_taps();
}

void QueueValidator::install_taps() {
  auto& owner_node = net_.router(owner_);

  // (1) Neighbor entry recorders: every neighbor of r except rd watches
  // what it transmits toward r that r will forward to rd.
  for (std::size_t i = 0; i < owner_node.interface_count(); ++i) {
    const util::NodeId nbr = owner_node.interface(i).peer();
    if (nbr == peer_) continue;
    auto* nbr_iface = net_.node(nbr).interface_to(owner_);
    if (nbr_iface == nullptr) continue;
    const sim::LinkParams nbr_link = nbr_iface->link();
    nbr_iface->add_transmit_tap([this, nbr, nbr_link](const sim::Packet& p, util::SimTime now) {
      if (p.hdr.dst == owner_) return;
      // Routing in force *now* decides whether r will forward this toward
      // rd; after a reroute the recorder follows the new next hop.
      if (paths_.next_hop_after_at(p.hdr.src, p.hdr.dst, owner_, now) != peer_) return;
      ChiRecord rec;
      rec.fp = validation::packet_fingerprint(fp_key_, p);
      rec.size_bytes = p.size_bytes;
      rec.flow_id = p.hdr.flow_id;
      rec.control = p.is_control();
      rec.ts = now + nbr_link.tx_time(p.size_bytes) + nbr_link.delay + owner_proc_;
      neighbor_staged_[{nbr, config_.clock.round_of(rec.ts)}].push_back(rec);
    });
  }

  // (2) Self recorder at r: packets r originates into Q (Toriginated).
  owner_node.add_forward_tap(
      [this](const sim::Packet& p, util::NodeId prev, std::size_t out_iface, util::SimTime now) {
        if (prev != owner_) return;
        if (net_.router(owner_).interface(out_iface).peer() != peer_) return;
        ChiRecord rec;
        rec.fp = validation::packet_fingerprint(fp_key_, p);
        rec.size_bytes = p.size_bytes;
        rec.flow_id = p.hdr.flow_id;
        rec.control = p.is_control();
        rec.ts = now;
        neighbor_staged_[{owner_, config_.clock.round_of(rec.ts)}].push_back(rec);
      });

  // (3) Exit recorder at rd: arrivals from r, backdated to queue exit.
  net_.node(peer_).add_receive_tap([this](const sim::Packet& p, util::NodeId prev,
                                          util::SimTime now) {
    if (prev != owner_) return;
    ChiRecord rec;
    rec.fp = validation::packet_fingerprint(fp_key_, p);
    rec.size_bytes = p.size_bytes;
    rec.flow_id = p.hdr.flow_id;
    rec.ts = now - link_.delay - link_.tx_time(p.size_bytes);
    exits_.emplace(rec.fp, rec);
  });

  // (4) Report delivery: signed neighbor/self reports addressed to rd.
  net_.node(peer_).add_control_sink(
      [this](const sim::Packet& p, util::NodeId, util::SimTime) {
        if (p.control == nullptr || p.control->kind() != kKindChiReport) return;
        const auto& payload = static_cast<const ChiReportPayload&>(*p.control);
        if (payload.report.queue_owner == owner_ && payload.report.queue_peer == peer_) {
          on_report(payload);
        }
      });

  // (5) Calibration probe, active during the learning period: the true
  // queue occupancy at each accepted entry (trusted-commissioning phase).
  auto* iface = owner_node.interface_to(peer_);
  iface->add_enqueue_tap([this](const sim::Packet& p, util::SimTime now) {
    if (learned_) return;
    if (config_.clock.round_of(now) >= config_.learning_rounds) return;
    // last_admit_depth_bytes, not queue().byte_length(): the pass-through
    // fast path never parks the packet in the queue object.
    const auto* out = net_.router(owner_).interface_to(peer_);
    const double qact_before =
        static_cast<double>(out->last_admit_depth_bytes()) - p.size_bytes;
    qact_probe_[validation::packet_fingerprint(fp_key_, p)] = qact_before;
  });
}

void QueueValidator::start() {
  const auto ship_at = config_.clock.interval_of(0).end + config_.settle / 4;
  net_.sim().schedule_at(ship_at, [this] { ship_reports(0); });
  const auto validate_at = config_.clock.interval_of(0).end + config_.settle;
  net_.sim().schedule_at(validate_at, [this] { validate(0); });
}

void QueueValidator::ship_reports(std::int64_t round) {
  auto& owner_node = net_.router(owner_);
  util::FlatSet<util::NodeId> reporters;
  for (std::size_t i = 0; i < owner_node.interface_count(); ++i) {
    const util::NodeId nbr = owner_node.interface(i).peer();
    if (nbr != peer_) reporters.insert(nbr);
  }
  reporters.insert(owner_);
  reports_due_[round] = reporters;

  // ~55 records keep each signed part within a 1500-byte MTU; oversized
  // control frames would distort the very queues being validated.
  constexpr std::size_t kRecordsPerPart = 55;
  for (util::NodeId reporter : reporters) {
    std::vector<ChiRecord> records;
    if (auto it = neighbor_staged_.find({reporter, round}); it != neighbor_staged_.end()) {
      records = std::move(it->second);
      neighbor_staged_.erase(it);
    }
    ChiReport whole;
    whole.reporter = reporter;
    whole.queue_owner = owner_;
    whole.queue_peer = peer_;
    whole.round = round;
    whole.records = std::move(records);
    if (auto it = mutators_.find(reporter); it != mutators_.end()) {
      if (!it->second(whole)) continue;  // protocol-faulty: withheld
    }
    const auto parts = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, (whole.records.size() + kRecordsPerPart - 1) /
                                     kRecordsPerPart));
    for (std::uint32_t part = 0; part < parts; ++part) {
      ChiReport piece;
      piece.reporter = whole.reporter;
      piece.queue_owner = owner_;
      piece.queue_peer = peer_;
      piece.round = round;
      piece.part = part;
      piece.parts = parts;
      const std::size_t begin = part * kRecordsPerPart;
      const std::size_t end = std::min(whole.records.size(), begin + kRecordsPerPart);
      piece.records.assign(whole.records.begin() + static_cast<std::ptrdiff_t>(begin),
                           whole.records.begin() + static_cast<std::ptrdiff_t>(end));
      auto payload = std::make_shared<ChiReportPayload>();
      payload->envelope = crypto::sign(keys_, reporter, piece.to_bytes());
      payload->report = std::move(piece);

      // Parts are paced ~2 ms apart so the report train does not bloat the
      // very queue being validated (control bypasses its byte limit); the
      // off-round spacing avoids resonating with common CBR periods.
      const auto send_at = net_.sim().now() + util::Duration::micros(2300) * part;
      const util::NodeId from = reporter;
      if (channel_ != nullptr) {
        const std::uint32_t bytes = payload->report.wire_bytes();
        net_.sim().schedule_at(send_at, [this, from, payload, bytes] {
          channel_->send(from, peer_, payload, bytes, ReliableChannel::Via::kRouted);
        });
        continue;
      }
      sim::PacketHeader hdr;
      hdr.src = reporter;
      hdr.dst = peer_;
      hdr.proto = sim::Protocol::kControl;
      sim::Packet p = net_.make_packet(hdr, payload->report.wire_bytes());
      p.control = payload;
      net_.sim().schedule_at(send_at, [this, from, p] {
        if (net_.is_router(from)) {
          net_.router(from).originate(p);
        } else {
          net_.host(from).send(p);
        }
      });
    }
  }

  if (config_.rounds == 0 || round + 1 < config_.rounds) {
    const auto next = config_.clock.interval_of(round + 1).end + config_.settle / 4;
    net_.sim().schedule_at(next, [this, round] { ship_reports(round + 1); });
  }
}

void QueueValidator::inject_report(util::NodeId from, const ChiReport& report) {
  auto payload = std::make_shared<ChiReportPayload>();
  payload->envelope = crypto::sign(keys_, from, report.to_bytes());
  payload->report = report;
  if (channel_ != nullptr) {
    channel_->send(from, peer_, payload, payload->report.wire_bytes(),
                   ReliableChannel::Via::kRouted);
    return;
  }
  sim::PacketHeader hdr;
  hdr.src = from;
  hdr.dst = peer_;
  hdr.proto = sim::Protocol::kControl;
  sim::Packet p = net_.make_packet(hdr, payload->report.wire_bytes());
  p.control = payload;
  if (net_.is_router(from)) {
    net_.router(from).originate(p);
  } else {
    net_.host(from).send(p);
  }
}

void QueueValidator::on_report(const ChiReportPayload& payload) {
  // Full admission: MAC + strict canonical decode + reporter identity. The
  // envelope payload is authoritative — the convenience struct riding in
  // the packet is never trusted past routing. Reports arrive as routed
  // unicast, so a rejection has no hop to pin (interior forwarders are
  // opaque); it is counted, and the withheld-report consequence surfaces
  // through missing-report at evaluation.
  std::optional<ChiReport> decoded;
  if (const ControlVerdict v = guard_.check_report(payload.envelope, decoded);
      v != ControlVerdict::kOk) {
    guard_.reject(peer_, util::kInvalidNode, payload.report.round, v, "report");
    return;
  }
  const ChiReport& rep = *decoded;
  if (rep.queue_owner != owner_ || rep.queue_peer != peer_) return;  // other validator's
  if (rep.parts == 0 || rep.part >= rep.parts) {
    guard_.reject(peer_, util::kInvalidNode, rep.round, ControlVerdict::kMalformed,
                  "report-bad-part");
    return;
  }
  // Anti-replay watermark: reports for validated rounds are replays. A
  // small margin can still be a late retransmit of the retry schedule, so
  // staleness only counts — the signer may be honest and the replayer is
  // unattributable on a routed path.
  if (const ControlVerdict v =
          guard_.admit_round(rep.round, closed_round_, config_.clock.round_of(net_.sim().now()));
      v != ControlVerdict::kOk) {
    guard_.reject(peer_, util::kInvalidNode, rep.round, v, "report-replay");
    return;
  }
  // Equivocation ledger: a second MAC-valid part with the same (reporter,
  // round, part) identity but different content is a self-incriminating
  // proof — only the signer can produce the pair.
  const auto stmt = std::make_tuple(rep.reporter, rep.round, rep.part);
  const auto [led, fresh] = part_envelope_.emplace(stmt, payload.envelope);
  if (!fresh && led->second.payload != payload.envelope.payload) {
    FATIH_TRACE_EMIT(net_.sim().trace(),
                     byzantine(net_.sim().now(), obs::TraceSource::kChi,
                               obs::TraceCode::kEquivocationProven, peer_, rep.reporter,
                               rep.round, rep.part, "conflicting-report-parts"));
    FATIH_METRIC_REG(net_.sim().metrics(), counter("byzantine.chi.equivocations").inc());
    if (conviction_ != nullptr && proof_filed_.insert({rep.reporter, rep.round}).second) {
      conviction_->accuse(peer_, static_cast<std::uint8_t>(obs::TraceSource::kChi),
                          routing::PathSegment{rep.reporter}, rep.round, "equivocation",
                          {led->second, payload.envelope});
    }
    suspect(rep.round, "equivocation", 1.0, routing::PathSegment{rep.reporter});
    return;
  }
  if (reports_seen_.contains({rep.reporter, rep.round})) return;
  auto& got = parts_seen_[{rep.reporter, rep.round}];
  if (!got.insert(rep.part).second) return;  // duplicate part (identical bytes)
  guard_.accept();
  for (const ChiRecord& rec : rep.records) {
    pending_entries_.push_back(Entry{rec, rep.reporter});
  }
  if (got.size() == rep.parts) {
    reports_seen_.insert({rep.reporter, rep.round});
    parts_seen_.erase({rep.reporter, rep.round});
  }
}

void QueueValidator::validate(std::int64_t round) {
  RoundStats stats;
  stats.round = round;
  suspicious_by_.clear();
  ++counters_.rounds_opened;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   round_event(net_.sim().now(), obs::TraceSource::kChi,
                               obs::TraceCode::kRoundOpen, round));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("chi.rounds_opened").inc());

  // Churn awareness: a route change anywhere in [round start, now) can
  // redirect the flows feeding Q mid-round and eat reports/acks in the
  // transient, so the replay would mix two routing regimes. The round is
  // invalidated — consumed conservatively, never alarmed; validation
  // resumes the first round fully inside the new epoch.
  const util::SimTime now = net_.sim().now();
  const bool churned = paths_.changed_during(config_.clock.interval_of(round).begin, now);
  if (churned) {
    stats.invalidated = true;
    ++counters_.rounds_invalidated;
    FATIH_TRACE_EMIT(net_.sim().trace(),
                     round_event(now, obs::TraceSource::kChi,
                                 obs::TraceCode::kRoundInvalidated, round));
    FATIH_METRIC_REG(net_.sim().metrics(), counter("chi.rounds_invalidated").inc());
  }

  bool all_reports = true;
  if (auto it = reports_due_.find(round); it != reports_due_.end()) {
    for (util::NodeId reporter : it->second) {
      if (!reports_seen_.contains({reporter, round})) {
        all_reports = false;
        // The report was either withheld by `reporter` or eaten en route
        // (a neighbor's report to rd normally transits r itself), so the
        // faulty router is within {reporter, r} — blaming the queue pair
        // would miss a withholding neighbor entirely.
        if (learned_ && !churned) {
          suspect(round, "missing-report", 1.0,
                  reporter == owner_ ? routing::PathSegment{owner_, peer_}
                                     : routing::PathSegment{reporter, owner_});
        }
      }
    }
    reports_due_.erase(it);
  }

  const util::SimTime horizon = config_.clock.interval_of(round).end;
  if (churned) {
    // Drain everything up to the horizon without judging it, including
    // already-staged replay events, and restart the occupancy prediction.
    std::erase_if(pending_entries_, [&](const Entry& e) { return e.rec.ts <= horizon; });
    exits_.erase_if([&](const auto& kv) { return kv.second.ts <= horizon; });
    while (events_head_ < events_.size() && events_[events_head_].ts <= horizon) {
      ++events_head_;
    }
    compact_events();
    qpred_ = 0.0;
  } else if (all_reports) {
    if (red_.has_value()) {
      replay_red(horizon, stats);
    } else {
      replay_droptail(horizon, stats);
    }
  } else {
    // Without complete reports the replay is meaningless this round;
    // consume state conservatively so qpred stays sane.
    stats.alarmed = true;
    std::erase_if(pending_entries_, [&](const Entry& e) { return e.rec.ts <= horizon; });
    exits_.erase_if([&](const auto& kv) { return kv.second.ts <= horizon; });
    qpred_ = 0.0;
  }

  // Close the anti-replay window: report parts for this round (or older)
  // arriving from now on are replays, rejected at admission. Closed rounds
  // can no longer gain equivocation conflicts either, so their ledger and
  // part-bookkeeping entries are dropped.
  closed_round_ = std::max(closed_round_, round);
  part_envelope_.erase_if([round](const auto& kv) { return std::get<1>(kv.first) <= round; });
  proof_filed_.erase_if([round](const auto& k) { return k.second <= round; });
  reports_seen_.erase_if([round](const auto& k) { return k.second <= round; });
  parts_seen_.erase_if([round](const auto& kv) { return kv.first.second <= round; });

  finish_round(round, stats);
  round_stats_.push_back(stats);
  ++counters_.rounds_evaluated;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   round_event(net_.sim().now(), obs::TraceSource::kChi,
                               obs::TraceCode::kRoundClose, round));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("chi.rounds_evaluated").inc());

  if (config_.rounds == 0 || round + 1 < config_.rounds) {
    const auto next = config_.clock.interval_of(round + 1).end + config_.settle;
    net_.sim().schedule_at(next, [this, round] { validate(round + 1); });
  }
}

void QueueValidator::compact_events() {
  // Reclaim the consumed prefix once it dominates the buffer; amortized
  // O(1) per event, and the unconsumed tail keeps its order.
  if (events_head_ >= 64 && events_head_ * 2 >= events_.size()) {
    events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(events_head_));
    events_head_ = 0;
  }
}

void QueueValidator::stage_ready_entries(util::SimTime upto, RoundStats& stats) {
  // Move entries with predicted time inside the horizon into the event
  // set, pairing each with its observed departure when one exists.
  auto ready = std::partition(pending_entries_.begin(), pending_entries_.end(),
                              [&](const Entry& e) { return e.rec.ts > upto; });
  std::vector<Entry> batch(ready, pending_entries_.end());
  pending_entries_.erase(ready, pending_entries_.end());

  // Conservation of timeliness: the longest legitimate sojourn is a full
  // queue draining at line rate (plus slack and the calibration grace).
  const double drain_seconds =
      static_cast<double>(queue_limit_) * 8.0 / link_.bandwidth_bps;
  const auto max_sojourn =
      util::Duration::from_seconds(drain_seconds * config_.delay_slack) +
      util::Duration::millis(10);

  // Append the round's events then restore order with one sort +
  // inplace_merge against the unconsumed tail — same comparator, so the
  // resulting sequence matches what per-event std::set inserts produced.
  const std::size_t merge_from = events_.size();
  for (const Entry& e : batch) {
    ReplayEvent arrival;
    arrival.ts = e.rec.ts;
    arrival.control = e.rec.control;
    arrival.ps = e.rec.size_bytes;
    arrival.flow = e.rec.flow_id;
    arrival.fp = e.rec.fp;
    arrival.from = e.from;
    arrival.seq = event_seq_++;
    auto it = exits_.find(e.rec.fp);
    if (it != exits_.end()) {
      arrival.matched = true;
      ReplayEvent departure = arrival;
      departure.departure = true;
      departure.ts = it->second.ts;
      departure.seq = event_seq_++;
      if (!e.rec.control && departure.ts > arrival.ts + max_sojourn) {
        ++stats.delayed;  // held far beyond any queueing explanation
      }
      events_.push_back(departure);
      exits_.erase(it);
    }
    events_.push_back(arrival);
    ++stats.entries;
  }
  std::sort(events_.begin() + static_cast<std::ptrdiff_t>(merge_from), events_.end());
  std::inplace_merge(events_.begin() + static_cast<std::ptrdiff_t>(events_head_),
                     events_.begin() + static_cast<std::ptrdiff_t>(merge_from), events_.end());
  if (learned_ && stats.delayed >= config_.delayed_packets_min) {
    suspect(stats.round, "delay-test", 1.0);
    stats.alarmed = true;
  }
  // Departures whose arrival no neighbor claimed would linger forever;
  // age them out (with honest reporters this set stays empty).
  exits_.erase_if([&](const auto& kv) { return kv.second.ts + config_.grace <= upto; });
}

void QueueValidator::replay_droptail(util::SimTime upto, RoundStats& stats) {
  stage_ready_entries(upto, stats);

  // Statistics of this round's unexplained drops for the combined test.
  util::RunningStats drop_qpred;
  util::RunningStats drop_ps;

  while (events_head_ < events_.size() && events_[events_head_].ts <= upto) {
    const ReplayEvent ev = events_[events_head_++];
    if (ev.departure) {
      qpred_ -= ev.ps;
      ++stats.exits;
      continue;
    }
    if (ev.matched) {
      max_entry_ps_ = std::max<double>(max_entry_ps_, ev.ps);
      // Learning probe: compare predicted vs measured occupancy at entry.
      if (!learned_) {
        if (auto it = qact_probe_.find(ev.fp); it != qact_probe_.end()) {
          const double err = it->second - qpred_;
          error_stats_.add(err);
          if (error_sample_hook_) error_sample_hook_(err);
          qact_probe_.erase(it);
        }
      }
      qpred_ += ev.ps;
      continue;
    }
    // A drop. Could the queue have been full?
    ++stats.drops;
    max_entry_ps_ = std::max<double>(max_entry_ps_, ev.ps);
    const double headroom = static_cast<double>(queue_limit_) - qpred_ - ev.ps;
    if (learned_) {
      const double csingle = util::normal_cdf((headroom - mu_) / sigma_);
      stats.max_single_confidence = std::max(stats.max_single_confidence, csingle);
      if (csingle < 0.5) {
        ++stats.congestive;
      } else {
        ++stats.suspicious;
        ++suspicious_by_[ev.from];
      }
      // The prediction error is bounded below by one departing packet (a
      // probe and a departure can straddle the same instant), so a single
      // drop is only damning with at least that much headroom beyond the
      // Gaussian band.
      const double guard = max_entry_ps_ + 4.0 * sigma_;
      if (csingle >= config_.single_threshold && headroom - mu_ >= guard) {
        suspect(stats.round, "single-loss-test", csingle);
        stats.alarmed = true;
      }
      drop_qpred.add(qpred_);
      drop_ps.add(ev.ps);
    } else {
      // During learning every drop is congestive by assumption.
      ++stats.congestive;
    }
  }
  compact_events();

  if (std::getenv("CHI_DEBUG") && drop_qpred.count() >= 2) {
    std::fprintf(stderr, "DBG round=%lld n=%zu mean_qpred=%.0f mean_ps=%.0f headroom=%.0f min_qpred=%.0f max_qpred=%.0f\n",
        (long long)stats.round, drop_qpred.count(), drop_qpred.mean(), drop_ps.mean(),
        (double)queue_limit_ - drop_qpred.mean() - drop_ps.mean(), drop_qpred.min(), drop_qpred.max());
  }
  // Combined Z-test over the round's losses (dissertation §6.2.1).
  if (learned_ && drop_qpred.count() >= 2) {
    const double n = static_cast<double>(drop_qpred.count());
    const double z1 = (static_cast<double>(queue_limit_) - drop_qpred.mean() - drop_ps.mean() -
                       mu_) /
                      (sigma_ / std::sqrt(n));
    stats.combined_confidence = util::normal_cdf(z1);
    if (stats.combined_confidence >= config_.combined_threshold) {
      suspect(stats.round, "combined-loss-test", stats.combined_confidence);
      stats.alarmed = true;
    }
  }

  // Suspicious-count test: under the congestion-only hypothesis, a drop
  // lands in the individually-suspicious band (csingle >= 0.5, i.e. the
  // queue probably had room) only through prediction noise, with
  // probability at most count_test_p0. A binomial excess of such drops —
  // the signature of an attack gated just below the queue limit, like
  // Fig. 6.8's 95%-full trigger — is itself a detection.
  if (learned_ && stats.drops > 0) {
    const double n = static_cast<double>(stats.drops);
    const double p0 = config_.count_test_p0;
    const double bound =
        std::max(static_cast<double>(config_.count_test_min),
                 p0 * n + config_.count_z_threshold * std::sqrt(p0 * (1 - p0) * n));
    if (static_cast<double>(stats.suspicious) > bound) {
      const double zc = (static_cast<double>(stats.suspicious) - p0 * n) /
                        std::sqrt(p0 * (1 - p0) * n);
      suspect(stats.round, "suspicious-count-test", util::normal_cdf(zc));
      stats.alarmed = true;
    }
  }
}

void QueueValidator::replay_red(util::SimTime upto, RoundStats& stats) {
  stage_ready_entries(upto, stats);

  // Per-flow and global drop accounting against the replayed RED model.
  struct FlowAcc {
    double expected = 0.0;
    double variance = 0.0;
    std::uint64_t observed = 0;
  };
  util::FlatMap<std::uint32_t, FlowAcc> flows;
  FlowAcc global;

  while (events_head_ < events_.size() && events_[events_head_].ts <= upto) {
    const ReplayEvent ev = events_[events_head_++];
    if (ev.departure) {
      qpred_ -= ev.ps;
      ++stats.exits;
      if (qpred_ <= 0.0) red_state_.on_queue_empty(ev.ts);
      continue;
    }
    if (ev.control) {
      // Control traffic bypasses RED admission; mirror that in the replay.
      if (ev.matched) {
        qpred_ += ev.ps;
      } else {
        ++stats.drops;
        ++stats.suspicious;
        ++suspicious_by_[ev.from];
      }
      continue;
    }
    const double q_now = std::max(qpred_, 0.0);
    const double pa = red_state_.on_arrival(*red_, static_cast<std::size_t>(q_now), ev.ts);
    auto& acc = flows[ev.flow];
    acc.expected += pa;
    acc.variance += pa * (1.0 - pa);
    global.expected += pa;
    global.variance += pa * (1.0 - pa);

    if (ev.matched) {
      red_state_.on_outcome(false);
      if (!learned_) {
        if (auto it = qact_probe_.find(ev.fp); it != qact_probe_.end()) {
          error_stats_.add(it->second - qpred_);
          if (error_sample_hook_) error_sample_hook_(it->second - qpred_);
          qact_probe_.erase(it);
        }
      }
      qpred_ += ev.ps;
      continue;
    }
    // Dropped.
    ++stats.drops;
    ++acc.observed;
    ++global.observed;
    const double headroom = static_cast<double>(queue_limit_) - qpred_ - ev.ps;
    const bool hard_full = headroom < 0.0;
    // Mirror the queue's count bookkeeping: only a RED early drop resets
    // the inter-drop counter (hard-full and malicious drops do not).
    red_state_.on_outcome(pa > 0.0 && !hard_full);
    if (learned_) {
      if (pa <= 0.0 && !hard_full) {
        // RED would never drop this packet: single-packet test (with the
        // same one-packet boundary-race guard as the drop-tail variant).
        const double csingle = util::normal_cdf((headroom - mu_) / sigma_);
        stats.max_single_confidence = std::max(stats.max_single_confidence, csingle);
        const double guard = max_entry_ps_ + 4.0 * sigma_;
        if (csingle >= config_.single_threshold && headroom - mu_ >= guard) {
          ++stats.suspicious;
          ++suspicious_by_[ev.from];
          suspect(stats.round, "red-single-loss-test", csingle);
          stats.alarmed = true;
        } else if (csingle >= 0.5) {
          ++stats.suspicious;
          ++suspicious_by_[ev.from];
        } else {
          ++stats.congestive;
        }
      } else {
        ++stats.congestive;  // explainable by RED or overflow, pending Z-test
      }
    } else {
      ++stats.congestive;
    }
  }
  compact_events();

  stats.red_expected_drops = global.expected;
  if (learned_) {
    auto z_of = [](const FlowAcc& acc) {
      const double var = std::max(acc.variance, 0.25);
      return (static_cast<double>(acc.observed) - acc.expected) / std::sqrt(var);
    };
    // Dispersion estimate: mean squared standardized residual across
    // flows and rounds. RED's correlated drops make this > 1; dividing z
    // scores by its square root restores a unit-variance null.
    double disp = 1.0;
    if (red_residual_sq_.count() >= 16) {
      disp = std::max(1.0, red_residual_sq_.mean());
    }
    const double zg = z_of(global) / std::sqrt(disp);
    if (zg > config_.red_z_threshold) {
      suspect(stats.round, "red-global-test", util::normal_cdf(zg));
      stats.alarmed = true;
    }
    for (const auto& [flow, acc] : flows) {
      const double raw_zf = z_of(acc);
      const double zf = raw_zf / std::sqrt(disp);
      stats.red_max_flow_z = std::max(stats.red_max_flow_z, zf);
      if (zf > config_.red_z_threshold) {
        suspect(stats.round, "red-flow-test", util::normal_cdf(zf));
        stats.alarmed = true;
      }
      // Feed the dispersion estimator with this round's residual unless it
      // is wildly alarming (keep blatant attacks from poisoning the null).
      if (acc.expected >= 2.0 && std::abs(raw_zf) < 3.0 * std::sqrt(disp) + 6.0) {
        red_residual_sq_.add(raw_zf * raw_zf);
      }
      // Cumulative per-flow evidence: a rate-limited attack (drop 5-10% of
      // the victim, Figs. 6.14/6.15) stays below the per-round threshold
      // but its excess drops accumulate linearly while the noise grows
      // only with sqrt(rounds).
      auto& cum = red_cum_[flow];
      cum.expected += acc.expected;
      cum.variance += acc.variance;
      cum.observed += acc.observed;
    }
    // Evaluate the cumulative test with a bias correction: the replayed
    // model's small systematic error affects all flows proportionally, so
    // each flow's expectation is rescaled by the global observed/expected
    // ratio before testing. A targeted attack shows up as a flow whose
    // drops exceed even the rescaled expectation.
    red_cum_global_.expected += global.expected;
    red_cum_global_.variance += global.variance;
    red_cum_global_.observed += global.observed;
    const double scale =
        red_cum_global_.expected > 1.0
            ? static_cast<double>(red_cum_global_.observed) / red_cum_global_.expected
            : 1.0;
    const double n_obs = static_cast<double>(red_cum_global_.observed);
    for (auto& [flow, cum] : red_cum_) {
      // (i) Absolute-excess test against the bias-rescaled expectation.
      const double expected = cum.expected * scale;
      const double variance = std::max(cum.variance * scale, 1.0);
      const double zc = (static_cast<double>(cum.observed) - expected) / std::sqrt(variance);
      // (ii) Conditional share test: GIVEN the total number of drops, each
      // flow's share must match its model share (sum of its packets' drop
      // probabilities over the global sum). This conditions away the
      // count-reset feedback through which a slow targeted attack can
      // launder its drops into the expectation (Fig. 6.10's reasoning).
      double zs = 0.0;
      if (red_cum_global_.expected > 1.0 && n_obs >= 8.0) {
        const double share = cum.expected / red_cum_global_.expected;
        if (share > 0.0 && share < 1.0) {
          zs = (static_cast<double>(cum.observed) - n_obs * share) /
               std::sqrt(n_obs * share * (1.0 - share));
        }
      }
      const double z_flow = std::max(zc, zs) / std::sqrt(disp);
      if (std::getenv("CHI_DEBUG") != nullptr && cum.observed > 0) {
        std::fprintf(stderr, "CUM round=%lld flow=%u obs=%llu exp=%.1f zc=%.2f zs=%.2f\n",
                     static_cast<long long>(stats.round), flow,
                     static_cast<unsigned long long>(cum.observed), cum.expected, zc, zs);
      }
      stats.red_max_flow_z = std::max(stats.red_max_flow_z, z_flow);
      if (z_flow > config_.red_cumulative_z_threshold) {
        suspect(stats.round, "red-cumulative-flow-test", util::normal_cdf(z_flow));
        stats.alarmed = true;
        cum = FlowCum{};  // restart accumulation after an alarm
      }
    }
    if (zg > stats.red_max_flow_z) stats.red_max_flow_z = zg;
  }
}


void QueueValidator::finish_round(std::int64_t round, RoundStats& stats) {
  (void)stats;
  if (!learned_ && round + 1 >= config_.learning_rounds) {
    mu_ = error_stats_.mean();
    sigma_ = std::max(error_stats_.stddev(), kSigmaFloor);
    learned_ = true;
    qact_probe_.clear();
    util::log(util::LogLevel::kInfo, kComponent,
              "queue %s->%s calibrated: mu=%.1fB sigma=%.1fB (%zu samples)",
              util::node_name(owner_).c_str(), util::node_name(peer_).c_str(), mu_, sigma_,
              error_stats_.count());
  }
}

routing::PathSegment QueueValidator::attributed_segment() const {
  // Framing defense: when every unexplained drop this round was claimed by
  // a single reporter rs != r, the evidence is exactly as consistent with
  // "rs fabricated entries" as with "r dropped rs's packets" — the
  // precision-2 segment is {rs, r}. Blaming the queue pair {r, rd} would
  // let one lying neighbor steer suspicion onto two honest routers.
  if (suspicious_by_.size() == 1) {
    const util::NodeId rs = suspicious_by_.begin()->first;
    if (rs != owner_ && rs != util::kInvalidNode) {
      return routing::PathSegment{rs, owner_};
    }
  }
  return routing::PathSegment{owner_, peer_};
}

void QueueValidator::suspect(std::int64_t round, const char* cause, double confidence,
                             routing::PathSegment segment) {
  // One suspicion per (round, cause).
  for (const Suspicion& s : suspicions_) {
    if (s.cause == cause && s.interval == config_.clock.interval_of(round)) return;
  }
  Suspicion s;
  s.reporter = peer_;
  s.segment = segment.empty() ? attributed_segment() : std::move(segment);
  s.interval = config_.clock.interval_of(round);
  s.cause = cause;
  s.confidence = confidence;
  util::log(util::LogLevel::kInfo, kComponent, "%s", s.to_string().c_str());
  ++counters_.suspicions;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   suspicion(net_.sim().now(), obs::TraceSource::kChi, peer_, s.segment.front(),
                             s.segment.back(), s.segment.length(), round, confidence, cause));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("chi.suspicions").inc());
  suspicions_.push_back(s);
  if (handler_) handler_(suspicions_.back());
  if (conviction_ != nullptr) {
    conviction_->accuse(peer_, static_cast<std::uint8_t>(obs::TraceSource::kChi), s.segment,
                        round, cause);
  }
}

// -------------------------------------------------------------- ChiEngine

ChiEngine::ChiEngine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
                     ChiConfig config)
    : net_(net), keys_(keys), paths_(paths), config_(config) {
  if (config_.reliable.enabled) {
    // One channel serves every monitored queue; the dedup key pins each
    // report part to its (reporter, queue, round, part) identity. Delivery
    // still happens through the validators' existing control sinks (the
    // channel does not wrap payloads), and on_report's part bookkeeping
    // absorbs the duplicates that ack loss can produce.
    channel_ = std::make_unique<ReliableChannel>(net_, keys_, kKindChiReport, config_.reliable);
    channel_->set_key_fn([](const sim::ControlPayload& payload) {
      const auto& p = static_cast<const ChiReportPayload&>(payload);
      constexpr crypto::SipKey kKey{0x6368692D7265706FULL, 0x72742D6465647570ULL};
      std::vector<std::byte> bytes;
      crypto::append_bytes(bytes, p.report.reporter);
      crypto::append_bytes(bytes, p.report.queue_owner);
      crypto::append_bytes(bytes, p.report.queue_peer);
      crypto::append_bytes(bytes, p.report.round);
      crypto::append_bytes(bytes, p.report.part);
      crypto::append_bytes(bytes, p.report.parts);
      return crypto::siphash24(kKey, bytes.data(), bytes.size());
    });
  }
}

QueueValidator& ChiEngine::monitor_queue(util::NodeId owner, util::NodeId peer) {
  validators_.push_back(
      std::make_unique<QueueValidator>(net_, keys_, paths_, owner, peer, config_));
  if (channel_ != nullptr) validators_.back()->set_channel(channel_.get());
  if (conviction_ != nullptr) validators_.back()->set_conviction_engine(conviction_);
  return *validators_.back();
}

void ChiEngine::monitor_all() {
  for (const auto& adj : net_.adjacencies()) {
    if (net_.is_router(adj.from) && net_.is_router(adj.to)) {
      monitor_queue(adj.from, adj.to);
    }
  }
}

void ChiEngine::start() {
  for (auto& v : validators_) {
    if (handler_) v->set_suspicion_handler(handler_);
    v->start();
  }
}

std::vector<Suspicion> ChiEngine::all_suspicions() const {
  std::vector<Suspicion> out;
  for (const auto& v : validators_) {
    out.insert(out.end(), v->suspicions().begin(), v->suspicions().end());
  }
  return out;
}

std::uint64_t ChiEngine::rounds_invalidated() const {
  std::uint64_t total = 0;
  for (const auto& v : validators_) total += v->rounds_invalidated();
  return total;
}

DetectorCounters ChiEngine::counters() const {
  DetectorCounters total;
  for (const auto& v : validators_) {
    const DetectorCounters& c = v->counters();
    total.rounds_opened += c.rounds_opened;
    total.rounds_evaluated += c.rounds_evaluated;
    total.rounds_invalidated += c.rounds_invalidated;
    total.suspicions += c.suspicions;
  }
  return total;
}

void ChiEngine::set_suspicion_handler(SuspicionHandler h) { handler_ = std::move(h); }

void ChiEngine::set_conviction_engine(ConvictionEngine* c) {
  conviction_ = c;
  for (auto& v : validators_) v->set_conviction_engine(c);
}

ByzantineStats ChiEngine::guard_stats() const {
  ByzantineStats total;
  for (const auto& v : validators_) {
    const ByzantineStats& s = v->guard_stats();
    total.accepted += s.accepted;
    total.rejected_bad_mac += s.rejected_bad_mac;
    total.rejected_signer_mismatch += s.rejected_signer_mismatch;
    total.rejected_malformed += s.rejected_malformed;
    total.rejected_stale += s.rejected_stale;
    total.rejected_future += s.rejected_future;
  }
  return total;
}

std::uint64_t QueueValidator::state_fingerprint() const {
  // fatih-lint: allow(float-free-digest) learned moments enter the hash by IEEE-754 bit pattern, not FP arithmetic; values are pinned cross-worker by the drift suite
  const auto fold_double = [](std::uint64_t acc, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return util::fnv1a64_word(acc, bits);
  };
  std::uint64_t h = util::kFnvOffsetBasis;
  h = util::fnv1a64_word(h, static_cast<std::uint64_t>(closed_round_));
  h = util::fnv1a64_word(h, counters_.rounds_opened);
  h = util::fnv1a64_word(h, counters_.rounds_evaluated);
  h = util::fnv1a64_word(h, counters_.rounds_invalidated);
  h = util::fnv1a64_word(h, counters_.suspicions);
  h = util::fnv1a64_word(h, learned_ ? 1 : 0);
  h = fold_double(h, mu_);
  h = fold_double(h, sigma_);
  h = fold_double(h, qpred_);
  h = util::fnv1a64_word(h, events_.size() - events_head_);
  h = util::fnv1a64_word(h, pending_entries_.size());
  for (const RoundStats& rs : round_stats_) {
    h = util::fnv1a64_word(h, static_cast<std::uint64_t>(rs.round));
    h = util::fnv1a64_word(h, rs.entries);
    h = util::fnv1a64_word(h, rs.exits);
    h = util::fnv1a64_word(h, rs.drops);
    h = util::fnv1a64_word(h, rs.congestive);
    h = util::fnv1a64_word(h, rs.suspicious);
    h = util::fnv1a64_word(h, rs.delayed);
    h = util::fnv1a64_word(h, (rs.alarmed ? 1u : 0u) | (rs.invalidated ? 2u : 0u));
  }
  for (const Suspicion& s : suspicions_) {
    const std::string text = s.to_string();
    h = util::fnv1a64(text.data(), text.size(), h);
  }
  return h;
}

AlarmTally tally_alarms(const std::vector<QueueValidator::RoundStats>& rounds,
                        std::optional<std::int64_t> onset_round) {
  AlarmTally tally;
  for (const auto& rs : rounds) {
    if (!rs.alarmed) continue;
    if (onset_round.has_value() && rs.round >= *onset_round) {
      ++tally.hits;
    } else {
      ++tally.false_alarms;
    }
  }
  return tally;
}

}  // namespace fatih::detection
