// Scenario codec and registry: canonical round-trips, line-numbered
// rejection of malformed and unrunnable specs, a truncation / byte-sweep
// of the text codec, and the builtin corpus invariants.
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <set>

#include "detection/chi.hpp"
#include "scenario/runner.hpp"
#include "traffic/tcp.hpp"

namespace fatih::scenario {
namespace {

TEST(SpecCodec, EveryBuiltinRoundTripsCanonically) {
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    const std::string text = encode(spec);
    ScenarioSpec decoded;
    std::string error;
    ASSERT_TRUE(decode(text, decoded, error)) << spec.name << ": " << error;
    // Canonical form: decode(encode(s)) re-encodes byte-identically.
    EXPECT_EQ(encode(decoded), text) << spec.name;
    EXPECT_EQ(spec_hash(decoded), spec_hash(spec)) << spec.name;
  }
}

TEST(SpecCodec, ToleratesCommentsAndBlankLines) {
  const ScenarioSpec& spec = builtin_scenarios().front();
  std::string text = encode(spec);
  text.insert(text.find('\n') + 1, "# a comment\n\n");
  ScenarioSpec decoded;
  std::string error;
  ASSERT_TRUE(decode(text, decoded, error)) << error;
  EXPECT_EQ(encode(decoded), encode(spec));
}

TEST(SpecCodec, RejectsMissingHeader) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(decode("name x\n", out, error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(SpecCodec, RejectsUnknownStatementWithLineNumber) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(decode("scenario v1\nname x\nbogus 1\n", out, error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(SpecCodec, RejectsBadEnumAndBadInteger) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(decode("scenario v1\nname x\ntopology moebius\n", out, error));
  EXPECT_FALSE(decode("scenario v1\nname x\nseed twelve\n", out, error));
}

TEST(SpecCodec, RejectsMissingName) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(decode("scenario v1\nseed 1\n", out, error));
}

TEST(SpecCodec, OptionalKeysAreEmittedOnlyWhenSet) {
  // Pre-existing specs keep their canonical text: no syn_only key and no
  // processing statement unless the spec asks for them.
  const std::string plain = encode(*find_scenario("chi_droptail_drop20"));
  EXPECT_EQ(plain.find("syn_only"), std::string::npos);
  EXPECT_EQ(plain.find("processing"), std::string::npos);
  EXPECT_NE(encode(*find_scenario("fig6_9_attack_syn")).find(" syn_only=1\n"),
            std::string::npos);

  ScenarioSpec spec = *find_scenario("chi_droptail_clean");
  spec.proc_jitter_ns = 0;
  const std::string text = encode(spec);
  EXPECT_NE(text.find("\nprocessing jitter_ns=0\n"), std::string::npos) << text;
  ScenarioSpec decoded;
  std::string error;
  ASSERT_TRUE(decode(text, decoded, error)) << error;
  EXPECT_EQ(decoded.proc_jitter_ns, std::optional<std::int64_t>{0});
  EXPECT_EQ(encode(decoded), text);
}

TEST(SpecCodec, RejectsSpecsThatCannotRun) {
  const ScenarioSpec& base = *find_scenario("line4_pik2_churn");
  std::string error;
  ASSERT_TRUE(validate(base, error)) << error;
  const auto rejects = [&](ScenarioSpec spec, const char* what) {
    EXPECT_FALSE(validate(spec, error)) << what;
    ScenarioSpec out;
    EXPECT_FALSE(decode(encode(spec), out, error)) << what;
  };
  ScenarioSpec s = base;
  s.detector.tau_ns = 0;
  rejects(s, "zero round length");
  s = base;
  s.flows.front().rate_mpps = 0;
  rejects(s, "zero-rate CBR flow");
  s = base;
  s.flows.front().src = 4;
  rejects(s, "flow source outside the line");
  s = base;
  s.churn.front().b = 7;
  rejects(s, "churn link endpoint outside the line");
  s = base;
  s.detector.terminals = {0, 9};
  rejects(s, "terminal outside the line");
  s = base;
  s.proc_jitter_ns = -1;
  rejects(s, "negative processing jitter");
  s = *find_scenario("fig6_6_attack_drop20");
  s.attacks.front().at = 4;
  rejects(s, "attack site outside the bottleneck fabric");
  s = *find_scenario("fig6_5_no_attack");
  s.flows[3].rate_mpps = -5;
  ASSERT_EQ(s.flows[3].kind, FlowKind::kOnOff);
  rejects(s, "negative on-off rate");
}

TEST(SpecFuzz, TextCodecSurvivesTruncationAndByteSweep) {
  // Every builtin's canonical text, cut at every prefix and with each byte
  // overwritten by a codec-significant value. decode must never crash,
  // and whatever it accepts must re-encode to a canonical fixed point.
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  const auto probe = [&](const std::string& text) {
    ++inputs;
    ScenarioSpec spec;
    std::string error;
    if (!decode(text, spec, error)) return;
    ++accepted;
    const std::string canonical = encode(spec);
    ScenarioSpec again;
    ASSERT_TRUE(decode(canonical, again, error)) << error << "\n" << canonical;
    ASSERT_EQ(encode(again), canonical);
  };
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    SCOPED_TRACE(spec.name);
    const std::string text = encode(spec);
    for (std::size_t len = 0; len <= text.size(); ++len) probe(text.substr(0, len));
    std::string mutated = text;
    for (std::size_t pos = 0; pos < mutated.size(); ++pos) {
      for (const char poison : {'\x00', '\xFF', '7', '-', ' ', '\n', '='}) {
        const char saved = mutated[pos];
        mutated[pos] = poison;
        probe(mutated);
        mutated[pos] = saved;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, inputs);
}

TEST(SpecCodec, HashDistinguishesScenarios) {
  std::set<std::uint64_t> hashes;
  for (const ScenarioSpec& spec : builtin_scenarios()) hashes.insert(spec_hash(spec));
  EXPECT_EQ(hashes.size(), builtin_scenarios().size());
}

TEST(Registry, SortedAndSearchable) {
  const auto& all = builtin_scenarios();
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].name, all[i].name);
  }
  EXPECT_EQ(find_scenario(all.front().name), &all.front());
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

TEST(Registry, CoversEveryProtocolAndTopology) {
  std::set<DetectorKind> detectors;
  std::set<TopologyKind> topologies;
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    detectors.insert(spec.detector.kind);
    topologies.insert(spec.topology);
  }
  EXPECT_EQ(detectors.size(), 3u);
  EXPECT_EQ(topologies.size(), 4u);
}

TEST(Registry, SynFigureDropsOnlyTheVictimsSyns) {
  // Fig. 6.9's attack matches TCP SYNs only: every connection attempt of
  // the victim (flow 50, from t=9 s) dies, and nothing else is dropped.
  ScenarioRun run(*find_scenario("fig6_9_attack_syn"));
  run.run_to(run.end_time_ns());
  const traffic::TcpFlow* victim = run.tcp_flow(50);
  ASSERT_NE(victim, nullptr);
  EXPECT_FALSE(victim->connected());
  EXPECT_EQ(victim->syn_retransmits(), 2u);
  EXPECT_EQ(run.malicious_drops(2), 3u);
  EXPECT_EQ(run.tcp_flow(99), nullptr);
  ASSERT_NE(run.chi_validator(), nullptr);
  EXPECT_EQ(run.chi_validator()->rounds().size(), 20u);
}

TEST(Registry, ProcessingJitterOverridesTheTopologyDefault) {
  // 50 us is the bottleneck fabric's default jitter: naming it changes the
  // spec but not the run. Zero jitter is a different run.
  const ScenarioSpec& base = *find_scenario("chi_droptail_clean");
  ScenarioSpec same = base;
  same.proc_jitter_ns = 50'000;
  ScenarioSpec none = base;
  none.proc_jitter_ns = 0;
  const std::uint64_t digest = run_scenario(base).final_digest;
  EXPECT_EQ(run_scenario(same).final_digest, digest);
  EXPECT_NE(run_scenario(none).final_digest, digest);
}

}  // namespace
}  // namespace fatih::scenario
