#include "detection/pi2.hpp"

#include <algorithm>

#include "detection/evidence.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace fatih::detection {

namespace {
constexpr const char* kComponent = "pi2";

std::uint64_t payload_key(const sim::ControlPayload& payload) {
  return ControlGuard::flood_key(static_cast<const SegmentSummaryPayload&>(payload));
}
}  // namespace

Pi2Engine::Pi2Engine(sim::Network& net, const crypto::KeyRegistry& keys, const PathCache& paths,
                     const std::vector<util::NodeId>& terminals, Pi2Config config)
    : net_(net),
      keys_(keys),
      paths_(paths),
      config_(config),
      guard_(net, keys, obs::TraceSource::kPi2, "pi2") {
  // Enumerate the in-use paths and the monitored segments.
  const auto used_paths = paths.tables().all_paths(terminals);
  const routing::SegmentIndex index(used_paths, config_.k);
  segments_ = index.all_pi2_segments();
  for (std::size_t i = 0; i < segments_.size(); ++i) segment_ids_[segments_[i]] = i;

  generators_.resize(net_.node_count());
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (!net_.is_router(r)) continue;
    bool monitors_any = false;
    for (const auto& seg : segments_) {
      if (seg.contains(r)) {
        monitors_any = true;
        break;
      }
    }
    if (!monitors_any) continue;
    generators_[r] =
        std::make_unique<SummaryGenerator>(net_, keys_, r, config_.clock, paths);
    for (const auto& seg : segments_) {
      const auto& nodes = seg.nodes();
      for (std::size_t pos = 0; pos < nodes.size(); ++pos) {
        if (nodes[pos] == r) generators_[r]->monitor(seg, pos);
      }
    }
  }

  flood_ = std::make_unique<FloodService>(net_, kKindSummaryFlood);
  flood_->set_key_fn(payload_key);
  if (config_.reliable.enabled) {
    channel_ =
        std::make_unique<ReliableChannel>(net_, keys_, kKindSummaryFlood, config_.reliable);
    channel_->set_key_fn(payload_key);
    flood_->set_channel(channel_.get());
  }
  // Verify-before-reflood: an unverifiable copy is dropped at the first
  // honest hop and attributed to the hop that handed it over.
  flood_->set_validate_fn([this](util::NodeId, const sim::ControlPayload& payload) {
    std::shared_ptr<const SegmentSummary> decoded;
    return vet(payload, decoded) == ControlVerdict::kOk;
  });
  flood_->set_invalid_fn([this](util::NodeId at, util::NodeId prev,
                                const sim::ControlPayload& payload, util::SimTime) {
    on_invalid(at, prev, payload);
  });
  flood_->set_delivery_fn(
      [this](util::NodeId at, const sim::ControlPayload& payload, util::SimTime) {
        on_delivery(at, payload);
      });
}

ControlVerdict Pi2Engine::vet(const sim::ControlPayload& payload,
                              std::shared_ptr<const SegmentSummary>& out,
                              std::int64_t* margin) const {
  const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
  const ControlVerdict verdict = guard_.check_summary(p, out);
  if (verdict != ControlVerdict::kOk) return verdict;
  return guard_.admit_round(out->round, closed_round_,
                            config_.clock.round_of(net_.sim().now()), margin);
}

void Pi2Engine::on_invalid(util::NodeId at, util::NodeId prev,
                           const sim::ControlPayload& payload) {
  std::shared_ptr<const SegmentSummary> decoded;
  std::int64_t margin = 0;
  const ControlVerdict verdict = vet(payload, decoded, &margin);
  guard_.reject(at, prev, decoded != nullptr ? decoded->round : -1, verdict, nullptr);
  if (verdict == ControlVerdict::kStale && margin < ControlGuard::kSuspectMargin) {
    return;  // plausibly a late retransmission from the retry schedule
  }
  // The hop that handed over the bad copy is ground truth in the sim:
  // honest routers verify before re-flooding, so `prev` forged, tampered
  // or replayed it — precision 1, no ambiguity.
  const char* cause =
      verdict == ControlVerdict::kStale ? "stale-replay" : "invalid-control";
  suspect(at, routing::PathSegment{prev}, config_.clock.round_of(net_.sim().now()), cause);
}

void Pi2Engine::on_delivery(util::NodeId at, const sim::ControlPayload& payload) {
  const auto& p = static_cast<const SegmentSummaryPayload&>(payload);
  std::shared_ptr<const SegmentSummary> decoded;
  if (vet(payload, decoded) != ControlVerdict::kOk) return;  // originator-local copies
  guard_.accept();
  const auto it = segment_ids_.find(decoded->segment);
  if (it == segment_ids_.end()) return;
  const std::size_t sid = it->second;
  // Equivocation ledger: the flood keys on full signed content, so two
  // conflicting signed summaries for one (segment, reporter, round) BOTH
  // circulate — the first router to hold the pair files it as a proof.
  const std::tuple<std::size_t, util::NodeId, std::int64_t> stmt{sid, decoded->reporter,
                                                                 decoded->round};
  const auto [fit, fresh] = first_envelope_.try_emplace(stmt, p.envelope);
  if (!fresh && fit->second.payload != p.envelope.payload) {
    FATIH_TRACE_EMIT(net_.sim().trace(),
                     byzantine(net_.sim().now(), obs::TraceSource::kPi2,
                               obs::TraceCode::kEquivocationProven, at, decoded->reporter,
                               decoded->round, sid, "conflicting-summaries"));
    FATIH_METRIC_REG(net_.sim().metrics(), counter("byzantine.pi2.equivocations").inc());
    if (conviction_ != nullptr && proof_filed_.insert(stmt).second) {
      conviction_->accuse(at, static_cast<std::uint8_t>(obs::TraceSource::kPi2),
                          routing::PathSegment{decoded->reporter}, decoded->round,
                          "equivocation", {fit->second, p.envelope});
    }
  }
  // Dedup into the canonical variant store (the codec is strictly
  // canonical, so equal decoded summaries == equal payload bytes; copies of
  // one payload object share one decoded summary); the per-router slot
  // just records which variant this router holds.
  auto& vars = variants_[stmt];
  std::uint32_t vidx = kNoVariant;
  for (std::uint32_t i = 0; i < vars.size(); ++i) {
    if (vars[i].summary == decoded || *vars[i].summary == *decoded) {
      vidx = i;
      break;
    }
  }
  if (vidx == kNoVariant) {
    vidx = static_cast<std::uint32_t>(vars.size());
    vars.push_back(Variant{decoded, {}});
  }
  Slot& slot = received_[{at, sid, decoded->reporter, decoded->round}];
  if (slot.variant != kNoVariant) {
    if (slot.variant != vidx) slot.poisoned = true;  // conflicting signed copies
    return;
  }
  slot.variant = vidx;
}

void Pi2Engine::inject_summary(util::NodeId from, const SegmentSummary& summary) {
  auto payload = std::make_shared<SegmentSummaryPayload>();
  payload->kind_tag = kKindSummaryFlood;
  payload->envelope = crypto::sign(keys_, from, summary.to_bytes());
  payload->summary = summary;
  const std::uint32_t bytes = payload->summary.wire_bytes();
  flood_->originate(from, std::move(payload), bytes);
}

void Pi2Engine::start() {
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

std::vector<routing::PathSegment> Pi2Engine::monitored_by(util::NodeId r) const {
  std::vector<routing::PathSegment> out;
  for (const auto& seg : segments_) {
    if (seg.contains(r)) out.push_back(seg);
  }
  return out;
}

void Pi2Engine::run_round(std::int64_t round) {
  ++counters_.rounds_opened;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   round_event(net_.sim().now(), obs::TraceSource::kPi2,
                               obs::TraceCode::kRoundOpen, round));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("pi2.rounds_opened").inc());
  disseminate(round);
  net_.sim().schedule_in(config_.evaluate_settle, [this, round] { evaluate(round); });
  if (config_.rounds == 0 || round + 1 < config_.rounds) {
    const auto next = config_.clock.interval_of(round + 1).end + config_.collect_settle;
    net_.sim().schedule_at(next, [this, round] { run_round(round + 1); });
  }
}

void Pi2Engine::disseminate(std::int64_t round) {
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (generators_[r] == nullptr) continue;
    auto mut = mutators_.find(r);
    for (const auto& seg : segments_) {
      if (!seg.contains(r)) continue;
      SegmentSummary summary = generators_[r]->take_summary(seg, round);
      if (mut != mutators_.end()) {
        if (!mut->second(summary)) continue;  // suppressed
      }
      auto payload = std::make_shared<SegmentSummaryPayload>();
      payload->kind_tag = kKindSummaryFlood;
      payload->envelope = crypto::sign(keys_, r, summary.to_bytes());
      payload->summary = std::move(summary);
      const auto bytes = payload->summary.wire_bytes();
      flood_->originate(r, std::move(payload), bytes);
    }
  }
}

void Pi2Engine::evaluate(std::int64_t round) {
  // Churn awareness: a round whose interval straddles ANY route change —
  // or a segment off the live path after a reroute — is invalidated
  // rather than evaluated. The whole-fabric test (changed_during, not
  // per-segment path stability) is deliberate: the recorders judge
  // traffic against the end-to-end path in force at each packet's
  // creation, so a reroute of a *flow* contaminates summaries even on
  // segments whose own endpoints kept their path (the flow's source
  // records packets "into" a segment they now detour around). The
  // transient mixes honestly-forwarded and blackholed/detoured traffic,
  // so any verdict would violate a-Accuracy; detection resumes the first
  // round fully inside the new epoch. The window runs to `now` so route
  // changes that ate this round's *control* traffic (summary floods) are
  // covered too.
  const auto interval = config_.clock.interval_of(round);
  const auto now = net_.sim().now();
  const bool churned = paths_.changed_during(interval.begin, now);
  std::vector<bool> invalid(segments_.size(), false);
  std::uint64_t invalidated_here = 0;
  for (std::size_t sid = 0; sid < segments_.size(); ++sid) {
    const auto& nodes = segments_[sid].nodes();
    const bool off_path =
        paths_.epoch_count() > 1 &&
        !segments_[sid].within(paths_.path_at(nodes.front(), nodes.back(), now));
    if (churned || off_path) {
      invalid[sid] = true;
      ++counters_.rounds_invalidated;
      ++invalidated_here;
    }
  }
  if (invalidated_here > 0) {
    FATIH_TRACE_EMIT(net_.sim().trace(),
                     round_event(now, obs::TraceSource::kPi2, obs::TraceCode::kRoundInvalidated,
                                 round, invalidated_here));
    FATIH_METRIC_REG(net_.sim().metrics(),
                     counter("pi2.rounds_invalidated").inc(invalidated_here));
  }

  // Every correct router evaluates every monitored segment: the summary
  // flood already delivered all signed summaries everywhere, which is the
  // reliable broadcast of evidence in Fig. 5.1 and yields strong
  // completeness (all correct routers suspect, not just segment members).
  for (util::NodeId r = 0; r < net_.node_count(); ++r) {
    if (!net_.is_router(r)) continue;
    for (const auto& seg : segments_) {
      const std::size_t sid = segment_ids_.at(seg);
      if (invalid[sid]) continue;
      const auto& nodes = seg.nodes();
      // Graceful degradation: the round completes on whatever summaries
      // made it. A reporter whose summary never arrived (after the
      // transport exhausted its retries) is itself suspected — withholding
      // is evidence under the protocol-faulty definition (§2.2.1) — with
      // precision 1, strictly tighter than the pair bound. Equivocation
      // (two conflicting signed summaries for one key) likewise convicts
      // the signer alone.
      // Resolve each reporter's slot to its shared variant; the TV sweep
      // then reads spans out of the variant store, sorting each distinct
      // summary at most once for ALL routers and pairs.
      auto tv_view = [this](Variant& v) {
        const SegmentSummary& s = *v.summary;
        if (config_.policy != TvPolicy::kFlow && v.sorted.size() != s.content.size()) {
          v.sorted = s.content;
          std::sort(v.sorted.begin(), v.sorted.end());
        }
        return TvView{s.content, v.sorted, s.counters.packets};
      };
      std::vector<Variant*> vars(nodes.size(), nullptr);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto it = received_.find({r, sid, nodes[i], round});
        if (it == received_.end() || it->second.variant == kNoVariant) {
          suspect(r, routing::PathSegment{nodes[i]}, round, "withheld-summary");
        } else if (it->second.poisoned) {
          suspect(r, routing::PathSegment{nodes[i]}, round, "equivocation");
        } else {
          vars[i] = &variants_.at({sid, nodes[i], round})[it->second.variant];
        }
      }
      for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
        Variant* up = vars[i];
        Variant* down = vars[i + 1];
        if (up == nullptr || down == nullptr) continue;  // per-reporter verdict covered it
        const auto outcome =
            evaluate_tv(config_.policy, config_.thresholds, tv_view(*up), tv_view(*down));
        if (!outcome.ok) {
          suspect(r, routing::PathSegment{nodes[i], nodes[i + 1]}, round, "tv-failed");
        }
      }
    }
  }
  // Close the anti-replay window: copies for this round (or older)
  // arriving from now on are replays, dropped at the first honest hop.
  closed_round_ = std::max(closed_round_, round);
  // Garbage-collect this round's state (closed rounds can no longer gain
  // equivocation conflicts either — the watermark rejects their copies).
  received_.erase_if([round](const auto& kv) { return std::get<3>(kv.first) <= round; });
  variants_.erase_if([round](const auto& kv) { return std::get<2>(kv.first) <= round; });
  first_envelope_.erase_if([round](const auto& kv) { return std::get<2>(kv.first) <= round; });
  proof_filed_.erase_if([round](const auto& k) { return std::get<2>(k) <= round; });
  ++counters_.rounds_evaluated;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   round_event(net_.sim().now(), obs::TraceSource::kPi2,
                               obs::TraceCode::kRoundClose, round));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("pi2.rounds_evaluated").inc());
}

void Pi2Engine::suspect(util::NodeId reporter, const routing::PathSegment& pair,
                        std::int64_t round, const char* cause) {
  if (!raised_.insert({reporter, pair, round}).second) return;
  Suspicion s;
  s.reporter = reporter;
  s.segment = pair;
  s.interval = config_.clock.interval_of(round);
  s.cause = cause;
  util::log(util::LogLevel::kInfo, kComponent, "%s", s.to_string().c_str());
  ++counters_.suspicions;
  FATIH_TRACE_EMIT(net_.sim().trace(),
                   suspicion(net_.sim().now(), obs::TraceSource::kPi2, reporter,
                             pair.nodes().front(), pair.nodes().back(), pair.length(), round,
                             s.confidence, cause));
  FATIH_METRIC_REG(net_.sim().metrics(), counter("pi2.suspicions").inc());
  suspicions_.push_back(s);
  if (handler_) handler_(suspicions_.back());
  if (conviction_ != nullptr) {
    // Evidence-free witness vote; only precision-1 votes can ever combine
    // into a conviction, and only with a quorum of distinct reporters.
    conviction_->accuse(reporter, static_cast<std::uint8_t>(obs::TraceSource::kPi2), pair,
                        round, cause);
  }
}

std::uint64_t Pi2Engine::state_fingerprint() const {
  std::uint64_t h = util::kFnvOffsetBasis;
  h = util::fnv1a64_word(h, static_cast<std::uint64_t>(closed_round_));
  h = util::fnv1a64_word(h, counters_.rounds_opened);
  h = util::fnv1a64_word(h, counters_.rounds_evaluated);
  h = util::fnv1a64_word(h, counters_.rounds_invalidated);
  h = util::fnv1a64_word(h, counters_.suspicions);
  h = util::fnv1a64_word(h, received_.size());
  h = util::fnv1a64_word(h, variants_.size());
  h = util::fnv1a64_word(h, first_envelope_.size());
  for (const Suspicion& s : suspicions_) {
    const std::string text = s.to_string();
    h = util::fnv1a64(text.data(), text.size(), h);
  }
  return h;
}

}  // namespace fatih::detection
