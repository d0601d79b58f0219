#include "oracle.hpp"

#include <algorithm>
#include <cstdlib>

#include "detection/spec.hpp"
#include "detection/types.hpp"

namespace perfbench {

namespace {

using fatih::util::NodeId;
using fatih::util::SimTime;

/// Reads "r<id>" at `pos`, advancing past it.
bool read_node(const std::string& s, std::size_t& pos, NodeId& out) {
  if (pos >= s.size() || s[pos] != 'r') return false;
  const std::size_t begin = ++pos;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
  if (pos == begin) return false;
  out = static_cast<NodeId>(std::strtoul(s.c_str() + begin, nullptr, 10));
  return true;
}

/// Reads a "%.6fs" time ("12.000000s") exactly, advancing past the 's'.
bool read_time(const std::string& s, std::size_t& pos, SimTime& out) {
  const std::size_t dot = s.find('.', pos);
  if (dot == std::string::npos || dot + 8 > s.size() || s[dot + 7] != 's') return false;
  const std::int64_t whole = std::strtoll(s.substr(pos, dot - pos).c_str(), nullptr, 10);
  const std::int64_t micros = std::strtoll(s.substr(dot + 1, 6).c_str(), nullptr, 10);
  out = SimTime::from_nanos(whole * 1'000'000'000 + micros * 1'000);
  pos = dot + 8;
  return true;
}

bool expect(const std::string& s, std::size_t& pos, const char* lit) {
  const std::string l(lit);
  if (s.compare(pos, l.size(), l) != 0) return false;
  pos += l.size();
  return true;
}

/// Parses a rendered suspicion (detection::Suspicion::to_string) back into
/// its fields. Returns false on text it does not recognise.
bool parse_suspicion(const std::string& text, fatih::detection::Suspicion& out) {
  std::size_t pos = 0;
  if (!read_node(text, pos, out.reporter) || !expect(text, pos, " suspects <")) return false;
  std::vector<NodeId> nodes;
  for (;;) {
    NodeId n = 0;
    if (!read_node(text, pos, n)) return false;
    nodes.push_back(n);
    if (expect(text, pos, ">")) break;
    if (!expect(text, pos, ",")) return false;
  }
  out.segment = fatih::routing::PathSegment(std::move(nodes));
  if (!expect(text, pos, " during [") || !read_time(text, pos, out.interval.begin) ||
      !expect(text, pos, ",") || !read_time(text, pos, out.interval.end) ||
      !expect(text, pos, ") cause=")) {
    return false;
  }
  const std::size_t conf = text.find(" conf=", pos);
  if (conf == std::string::npos) return false;
  out.cause = text.substr(pos, conf - pos);
  out.confidence = std::strtod(text.c_str() + conf + 6, nullptr);
  return true;
}

/// Suspicion precision of the spec's detector: 2 for Pi2 and chi, k+2 for
/// Pi(k+2) (dissertation Ch. 4).
std::size_t precision_of(const fatih::scenario::ScenarioSpec& spec) {
  return spec.detector.kind == fatih::scenario::DetectorKind::kPik2 ? spec.detector.k + 2 : 2;
}

}  // namespace

OracleReport check(const fatih::scenario::ScenarioSpec& spec,
                   const std::vector<std::string>& suspicions) {
  namespace detection = fatih::detection;
  detection::GroundTruth truth;
  std::vector<NodeId> attackers;
  std::int64_t onset_ns = -1;
  for (const auto& a : spec.attacks) {
    truth.mark_traffic_faulty(a.at, SimTime::from_nanos(a.active_from_ns));
    attackers.push_back(a.at);
    if (onset_ns < 0 || a.active_from_ns < onset_ns) onset_ns = a.active_from_ns;
  }

  OracleReport report;
  const std::size_t precision = precision_of(spec);
  std::vector<detection::Suspicion> parsed;
  for (const std::string& text : suspicions) {
    detection::Suspicion s;
    if (!parse_suspicion(text, s)) {
      report.violations.push_back(text);
      continue;
    }
    const detection::SpecReport one = detection::check_accuracy({s}, truth, precision);
    report.suspicions += one.suspicions;
    if (!one.accuracy_holds()) report.violations.push_back(text);
    parsed.push_back(std::move(s));
  }

  for (NodeId f : attackers) {
    if (!detection::check_completeness_for(parsed, f)) report.complete = false;
  }

  for (const detection::Suspicion& s : parsed) {
    if (truth.is_faulty_ever(s.reporter) || s.segment.length() > precision) continue;
    const bool names_attacker = std::any_of(attackers.begin(), attackers.end(), [&](NodeId f) {
      return s.segment.contains(f) && truth.is_faulty(f, s.interval);
    });
    if (names_attacker) {
      report.detect_delay_s =
          static_cast<double>(s.interval.end.nanos() - onset_ns) / 1e9;
      break;
    }
  }
  return report;
}

}  // namespace perfbench
