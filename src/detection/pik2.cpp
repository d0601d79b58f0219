#include "detection/pik2.hpp"

#include <algorithm>
#include <set>

#include "detection/evidence.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "validation/bloom.hpp"
#include "validation/reconcile.hpp"

namespace fatih::detection {

namespace {
constexpr const char* kComponent = "pik2";
/// Bloom sizing (kBloom): bits per recorded packet, and hash count.
constexpr std::size_t kBloomBitsPerPacket = 10;
constexpr std::uint32_t kBloomHashes = 4;

/// True iff `s` is in the form this end's own `compression` produces, in
/// the exact shape it produces it. The receiver evaluates nothing else, so
/// a peer can neither pick the evaluator nor size its work.
bool has_own_shape(const SegmentSummary& s, const Pik2Config& config) {
  switch (config.compression) {
    case SummaryCompression::kFull:
      return s.recon_evals.empty() && s.bloom_words.empty() && s.bloom_hashes == 0;
    case SummaryCompression::kReconcile:
      return s.content.empty() && s.bloom_words.empty() && s.bloom_hashes == 0 &&
             s.recon_evals.size() == config.reconcile_bound + 4;
    case SummaryCompression::kBloom:
      return s.content.empty() && s.recon_evals.empty() && !s.bloom_words.empty() &&
             s.bloom_hashes == kBloomHashes;
  }
  return false;
}
}  // namespace

Pik2Engine::Pik2Engine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
                       const std::vector<util::NodeId>& terminals, Pik2Config config)
    : net_(net),
      keys_(keys),
      paths_(paths),
      config_(config),
      guard_(net, keys, obs::TraceSource::kPik2, "pik2") {
  const auto used_paths = paths.tables().all_paths(terminals);
  const routing::SegmentIndex index(used_paths, config_.k);
  segments_ = index.all_pik2_segments();

  generators_.resize(net_.node_count());
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (!net_.is_router(r)) continue;
    std::vector<std::pair<const routing::PathSegment*, std::size_t>> roles;
    for (const auto& seg : segments_) {
      if (seg.front() == r) roles.emplace_back(&seg, 0);
      if (seg.back() == r) roles.emplace_back(&seg, seg.length() - 1);
    }
    if (roles.empty()) continue;
    generators_[r] = std::make_unique<SummaryGenerator>(net_, keys_, r, config_.clock, paths);
    for (auto [seg, pos] : roles) {
      generators_[r]->monitor(*seg, pos, config_.sample_keep_per_256);
    }
    // Receive peer summaries.
    net_.node(r).add_control_sink(
        [this, r](const sim::Packet& p, util::NodeId, util::SimTime) {
          if (p.control != nullptr && p.control->kind() == kKindSegmentSummary) {
            on_summary(r, static_cast<const SegmentSummaryPayload&>(*p.control));
          }
        });
  }

  if (config_.reliable.enabled) {
    channel_ =
        std::make_unique<ReliableChannel>(net_, keys_, kKindSegmentSummary, config_.reliable);
    channel_->set_key_fn([](const sim::ControlPayload& payload) {
      const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
      return summary_dedup_key(p.summary.reporter, p.summary.segment, p.summary.round,
                               p.kind_tag);
    });
    channel_->set_failure_fn([this](util::NodeId from, util::NodeId /*to*/,
                                    const sim::ControlPayload& payload, util::SimTime) {
      if (stopped_) return;
      // The sender could not get its summary through within the retry
      // budget: degrade to a suspicion of the exchange segment now rather
      // than stalling until the peer's timeout fires — unless the delivery
      // failure is explained by a route change underneath the exchange, in
      // which case the round is invalidated, not accused.
      const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
      if (churn_invalidated(p.summary.segment, p.summary.round)) {
        ++counters_.rounds_invalidated;
        FATIH_METRIC_REG(net_.sim().metrics(), counter("pik2.rounds_invalidated").inc());
        return;
      }
      suspect(from, p.summary.segment, p.summary.round, "exchange-undeliverable");
    });
  }
}

void Pik2Engine::start() {
  // Begin with the first round whose collection point is still ahead
  // (an engine commissioned mid-experiment skips the already-past rounds).
  std::int64_t round = 0;
  while (config_.clock.interval_of(round).end + config_.collect_settle <= net_.sim().now()) {
    ++round;
  }
  const auto first = config_.clock.interval_of(round).end + config_.collect_settle;
  const std::int64_t start_round = round;
  net_.sim().schedule_at(first, [this, start_round] { run_round(start_round); });
}

void Pik2Engine::stop() {
  stopped_ = true;
  for (auto& gen : generators_) {
    if (gen != nullptr) gen->set_enabled(false);
  }
}

std::vector<routing::PathSegment> Pik2Engine::monitored_by(util::NodeId r) const {
  std::vector<routing::PathSegment> out;
  for (const auto& seg : segments_) {
    if (seg.is_end(r)) out.push_back(seg);
  }
  return out;
}

void Pik2Engine::run_round(std::int64_t round) {
  if (stopped_) return;
  ++counters_.rounds_opened;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   round_event(net_.sim().now(), obs::TraceSource::kPik2,
                               obs::TraceCode::kRoundOpen, round));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("pik2.rounds_opened").inc());
  exchange(round);
  net_.sim().schedule_in(config_.exchange_timeout, [this, round] { evaluate(round); });
  if (config_.rounds == 0 || round + 1 < config_.rounds) {
    const auto next = config_.clock.interval_of(round + 1).end + config_.collect_settle;
    net_.sim().schedule_at(next, [this, round] { run_round(round + 1); });
  }
}

void Pik2Engine::exchange(std::int64_t round) {
  for (const auto& seg : segments_) {
    for (const util::NodeId r : {seg.front(), seg.back()}) {
      if (generators_[r] == nullptr) continue;
      SegmentSummary summary = generators_[r]->take_summary(seg, round);
      own_[{r, seg, round}] = OwnRecord{summary.counters, summary.content};
      auto mut = mutators_.find(r);
      if (mut != mutators_.end()) {
        if (!mut->second(summary)) continue;  // protocol-faulty: withhold
      }
      if (config_.compression == SummaryCompression::kBloom) {
        // Bloom digest (§2.4.1): size the filter for the reference rate
        // seen this round, with a floor so empty rounds stay comparable.
        const std::size_t bits = std::max<std::size_t>(
            512, summary.content.size() * kBloomBitsPerPacket);
        validation::BloomFilter filter(bits, kBloomHashes);
        for (auto fp : summary.content) filter.insert(fp);
        summary.bloom_words = filter.words();
        summary.bloom_hashes = kBloomHashes;
        summary.content.clear();
      } else if (config_.compression == SummaryCompression::kReconcile) {
        // Appendix A: ship O(d) evaluations instead of O(n) fingerprints.
        const auto points = validation::evaluation_points(config_.reconcile_bound + 4);
        std::set<std::uint64_t> elems;
        for (auto fp : summary.content) elems.insert(validation::to_field(fp));
        const std::vector<std::uint64_t> elem_vec(elems.begin(), elems.end());
        summary.recon_evals = validation::char_poly_evaluations(elem_vec, points);
        summary.counters.packets = elem_vec.size();  // distinct-set cardinality
        summary.content.clear();
      }
      const util::NodeId peer = (r == seg.front()) ? seg.back() : seg.front();
      auto payload = std::make_shared<SegmentSummaryPayload>();
      payload->kind_tag = kKindSegmentSummary;
      payload->envelope = crypto::sign(keys_, r, summary.to_bytes());
      payload->summary = std::move(summary);
      const std::uint32_t bytes = payload->summary.wire_bytes();
      exchange_bytes_ += sim::kHeaderBytes + bytes;
      FATIH_TRACE_EMIT(net_.sim().trace(),
                       exchange(net_.sim().now(), obs::TraceSource::kPik2,
                                obs::TraceCode::kExchangeSend, r, peer, round, bytes));
      // The exchange is routed normally; the stable route between the two
      // ends IS the segment (subpaths of shortest paths), so a faulty
      // interior router sits on the exchange path and can only cause a
      // timeout — which is itself a detection (§5.2).
      if (channel_ != nullptr) {
        channel_->send(r, peer, std::move(payload), bytes, ReliableChannel::Via::kRouted);
        continue;
      }
      sim::PacketHeader hdr;
      hdr.src = r;
      hdr.dst = peer;
      hdr.proto = sim::Protocol::kControl;
      sim::Packet p = net_.make_packet(hdr, bytes);
      p.control = std::move(payload);
      net_.router(r).originate(p);
    }
  }
}

void Pik2Engine::on_summary(util::NodeId at, const SegmentSummaryPayload& payload) {
  std::shared_ptr<const SegmentSummary> decoded;
  ControlVerdict verdict = guard_.check_summary(payload, decoded);
  if (verdict == ControlVerdict::kOk) {
    verdict = guard_.admit_round(decoded->round, closed_round_,
                                 config_.clock.round_of(net_.sim().now()));
  }
  if (verdict != ControlVerdict::kOk) {
    // Unicast exchange: honest interior routers forward blindly, so a bad
    // summary has no attributable hop — drop and count. An interior
    // tamperer starves the exchange instead, which surfaces as the
    // whole-segment timeout suspicion (§5.2 semantics); a stale replay is
    // inert because the round it argues about is already closed.
    guard_.reject(at, util::kInvalidNode, decoded != nullptr ? decoded->round : -1, verdict,
                  nullptr);
    return;
  }
  const auto& seg = decoded->segment;
  if (!seg.is_end(at) || !seg.is_end(decoded->reporter) || decoded->reporter == at) return;
  const std::tuple<util::NodeId, routing::PathSegment, std::int64_t> key{at, seg,
                                                                         decoded->round};
  const auto [env_it, fresh] = peer_envelope_.try_emplace(key, payload.envelope);
  if (!fresh) {
    if (env_it->second.payload != payload.envelope.payload) {
      // Two MAC-valid, conflicting summaries from the same end for the
      // same (segment, round): a self-incriminating equivocation proof.
      FATIH_TRACE_EMIT(net_.sim().trace(),
                       byzantine(net_.sim().now(), obs::TraceSource::kPik2,
                                 obs::TraceCode::kEquivocationProven, at, decoded->reporter,
                                 decoded->round, 0, "conflicting-summaries"));
      FATIH_METRIC_REG(net_.sim().metrics(), counter("byzantine.pik2.equivocations").inc());
      if (conviction_ != nullptr && proof_filed_.insert(key).second) {
        conviction_->accuse(at, static_cast<std::uint8_t>(obs::TraceSource::kPik2),
                            routing::PathSegment{decoded->reporter}, decoded->round,
                            "equivocation", {env_it->second, payload.envelope});
      }
      suspect(at, routing::PathSegment{decoded->reporter}, decoded->round, "equivocation");
    }
    return;  // first verified summary stays authoritative
  }
  guard_.accept();
  peer_[key] = std::move(decoded);
}

bool Pik2Engine::churn_invalidated(const routing::PathSegment& seg, std::int64_t round) const {
  const auto interval = config_.clock.interval_of(round);
  const auto now = net_.sim().now();
  // Whole-fabric test, not per-segment path stability: recorders judge
  // packets against the end-to-end path at creation time, so a reroute of
  // a flow contaminates summaries even on segments whose own endpoints
  // kept their path (the flow's source records packets "into" a segment
  // they now detour around).
  if (paths_.changed_during(interval.begin, now)) return true;
  // After a reroute the exchange segment may simply no longer carry the
  // traffic (or the exchange itself): off-path segments are parked, not
  // judged. Only applies once churn has actually produced an epoch.
  return paths_.epoch_count() > 1 &&
         !seg.within(paths_.path_at(seg.front(), seg.back(), now));
}

void Pik2Engine::evaluate(std::int64_t round) {
  if (stopped_) return;
  std::uint64_t invalidated_here = 0;
  for (const auto& seg : segments_) {
    // Churn awareness: rounds straddling a route change on the exchange
    // segment are invalidated (the transient mixes blackholed and detoured
    // traffic with honest forwarding); detection resumes the first settled
    // round on the new path.
    if (churn_invalidated(seg, round)) {
      ++counters_.rounds_invalidated;
      ++invalidated_here;
      continue;
    }
    for (const util::NodeId r : {seg.front(), seg.back()}) {
      if (generators_[r] == nullptr) continue;
      const auto own_it = own_.find({r, seg, round});
      if (own_it == own_.end()) continue;
      const auto peer_it = peer_.find({r, seg, round});
      if (peer_it == peer_.end()) {
        FATIH_TRACE_EMIT(net_.sim().trace(),
                         exchange(net_.sim().now(), obs::TraceSource::kPik2,
                                  obs::TraceCode::kExchangeTimeout, r,
                                  r == seg.front() ? seg.back() : seg.front(), round));
        suspect(r, seg, round, "exchange-timeout");
        continue;
      }
      const SegmentSummary& peer_summary = *peer_it->second;
      if (!has_own_shape(peer_summary, config_)) {
        // Well signed but not what an honest end ships: a protocol fault.
        suspect(r, seg, round, "tv-failed");
        continue;
      }
      if (config_.compression == SummaryCompression::kBloom) {
        // Rebuild our own filter at the peer's size and estimate the
        // symmetric difference from the XOR population.
        validation::BloomFilter mine(peer_summary.bloom_words.size() * 64, kBloomHashes);
        for (auto fp : own_it->second.content) mine.insert(fp);
        const auto theirs =
            validation::BloomFilter::from_words(peer_summary.bloom_words, kBloomHashes);
        const auto est = validation::BloomFilter::estimate_symmetric_difference(mine, theirs);
        const double diff = est.value_or(1e9);  // saturated filter: alarm
        const auto allowance =
            std::max(static_cast<double>(config_.thresholds.max_lost_packets),
                     config_.thresholds.max_lost_fraction *
                         static_cast<double>(own_it->second.content.size()));
        // The estimate cannot split lost from fabricated (which has zero
        // tolerance); compare the total difference against the loss
        // allowance (plus the estimator's own noise floor).
        if (diff > allowance + 4.0) suspect(r, seg, round, "tv-failed");
        continue;
      }
      if (config_.compression == SummaryCompression::kReconcile) {
        // Reconcile the peer's evaluations against our own content; the
        // recovered difference feeds the same thresholds.
        std::set<std::uint64_t> own_elems;
        for (auto fp : own_it->second.content) {
          own_elems.insert(validation::to_field(fp));
        }
        const std::vector<std::uint64_t> local(own_elems.begin(), own_elems.end());
        const auto points = validation::evaluation_points(config_.reconcile_bound + 4);
        const auto result = validation::reconcile(
            net_.sim().metrics(), local, peer_summary.recon_evals,
            static_cast<std::size_t>(peer_summary.counters.packets), points,
            config_.reconcile_bound);
        TvOutcome outcome;
        if (!result.has_value()) {
          // Difference beyond the bound: unconditionally suspicious.
          outcome.ok = false;
          outcome.lost = config_.reconcile_bound + 1;
        } else {
          // only_local = packets we have that the peer lacks; orientation
          // decides which side is "lost" vs "fabricated".
          const bool we_are_upstream = r == seg.front();
          const auto here_only = result->only_local.size();
          const auto there_only = result->only_remote.size();
          outcome.lost = we_are_upstream ? here_only : there_only;
          outcome.fabricated = we_are_upstream ? there_only : here_only;
          const auto allowance = std::max(
              config_.thresholds.max_lost_packets,
              static_cast<std::uint64_t>(config_.thresholds.max_lost_fraction *
                                         static_cast<double>(local.size())));
          outcome.ok = outcome.lost <= allowance && outcome.fabricated == 0;
        }
        if (!outcome.ok) suspect(r, seg, round, "tv-failed");
        continue;
      }
      // Orient: upstream summary is the segment's front end. Spans into
      // the round stores; evaluate_tv copies nothing but its sort scratch.
      const TvView own_view{own_it->second.content, {}, own_it->second.counters.packets};
      const TvView peer_view{peer_summary.content, {}, peer_summary.counters.packets};
      const bool we_are_upstream = r == seg.front();
      const auto outcome =
          evaluate_tv(config_.policy, config_.thresholds, we_are_upstream ? own_view : peer_view,
                      we_are_upstream ? peer_view : own_view);
      if (!outcome.ok) suspect(r, seg, round, "tv-failed");
    }
  }
  // Close the anti-replay window, then drop the round's state (closed
  // rounds can no longer gain equivocation conflicts — the watermark
  // rejects their copies at arrival).
  closed_round_ = std::max(closed_round_, round);
  own_.erase_if([round](const auto& kv) { return std::get<2>(kv.first) <= round; });
  peer_.erase_if([round](const auto& kv) { return std::get<2>(kv.first) <= round; });
  peer_envelope_.erase_if([round](const auto& kv) { return std::get<2>(kv.first) <= round; });
  proof_filed_.erase_if([round](const auto& k) { return std::get<2>(k) <= round; });
  if (invalidated_here > 0) {
    FATIH_TRACE_EMIT(net_.sim().trace(),
                     round_event(net_.sim().now(), obs::TraceSource::kPik2,
                                 obs::TraceCode::kRoundInvalidated, round, invalidated_here));
    FATIH_METRIC_REG(net_.sim().metrics(),
                     counter("pik2.rounds_invalidated").inc(invalidated_here));
  }
  ++counters_.rounds_evaluated;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   round_event(net_.sim().now(), obs::TraceSource::kPik2,
                               obs::TraceCode::kRoundClose, round));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("pik2.rounds_evaluated").inc());
}

void Pik2Engine::suspect(util::NodeId reporter, const routing::PathSegment& segment,
                         std::int64_t round, const char* cause, double confidence) {
  if (!raised_.insert({reporter, segment, round}).second) return;
  Suspicion s;
  s.reporter = reporter;
  s.segment = segment;
  s.interval = config_.clock.interval_of(round);
  s.cause = cause;
  s.confidence = confidence;
  util::log(util::LogLevel::kInfo, kComponent, "%s", s.to_string().c_str());
  ++counters_.suspicions;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   suspicion(net_.sim().now(), obs::TraceSource::kPik2, reporter,
                             segment.front(), segment.back(), segment.length(), round,
                             confidence, cause));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("pik2.suspicions").inc());
  suspicions_.push_back(s);
  if (handler_) handler_(suspicions_.back());
  if (conviction_ != nullptr) {
    // Evidence-free witness vote; whole-segment suspicions never convict
    // (precision > 1), only a precision-1 quorum or a proof does.
    conviction_->accuse(reporter, static_cast<std::uint8_t>(obs::TraceSource::kPik2), segment,
                        round, cause);
  }
}

void Pik2Engine::inject_summary(util::NodeId from, const SegmentSummary& summary) {
  const auto& seg = summary.segment;
  const util::NodeId peer = (from == seg.front()) ? seg.back() : seg.front();
  auto payload = std::make_shared<SegmentSummaryPayload>();
  payload->kind_tag = kKindSegmentSummary;
  payload->envelope = crypto::sign(keys_, from, summary.to_bytes());
  payload->summary = summary;
  const std::uint32_t bytes = payload->summary.wire_bytes();
  exchange_bytes_ += sim::kHeaderBytes + bytes;
  if (channel_ != nullptr) {
    channel_->send(from, peer, std::move(payload), bytes, ReliableChannel::Via::kRouted);
    return;
  }
  sim::PacketHeader hdr;
  hdr.src = from;
  hdr.dst = peer;
  hdr.proto = sim::Protocol::kControl;
  sim::Packet p = net_.make_packet(hdr, bytes);
  p.control = std::move(payload);
  net_.router(from).originate(p);
}

std::uint64_t Pik2Engine::state_fingerprint() const {
  std::uint64_t h = util::kFnvOffsetBasis;
  h = util::fnv1a64_word(h, static_cast<std::uint64_t>(closed_round_));
  h = util::fnv1a64_word(h, counters_.rounds_opened);
  h = util::fnv1a64_word(h, counters_.rounds_evaluated);
  h = util::fnv1a64_word(h, counters_.rounds_invalidated);
  h = util::fnv1a64_word(h, counters_.suspicions);
  h = util::fnv1a64_word(h, own_.size());
  h = util::fnv1a64_word(h, peer_.size());
  h = util::fnv1a64_word(h, exchange_bytes_);
  for (const Suspicion& s : suspicions_) {
    const std::string text = s.to_string();
    h = util::fnv1a64(text.data(), text.size(), h);
  }
  return h;
}

}  // namespace fatih::detection
