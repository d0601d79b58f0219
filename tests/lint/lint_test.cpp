// Self-test for tools/fatih-lint against the fixture corpus in
// tests/lint/fixtures/. Every rule gets at least one known-bad, one
// known-clean, and one suppressed case; the JSON report shape is pinned
// byte-for-byte so downstream consumers (CI annotations, tools/lint.sh)
// can rely on it.
//
// Fixtures are read from disk but linted under *virtual* repo-relative
// paths (src/lintfix/...), because the rules scope by path: R1/R2 have
// util/time / util/rng exemptions, R5 applies to src/ only, and R7 keys
// module layering off the first directory under src/.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "lint.hpp"

namespace fatih::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Lints one fixture file under a virtual path.
Report lint_fixture(const std::string& name, const std::string& virtual_path,
                    const Config& cfg = Config{}) {
  return lint_files({{virtual_path, read_fixture(name)}}, cfg);
}

std::vector<std::size_t> lines_of(const Report& r, Rule rule) {
  std::vector<std::size_t> out;
  for (const Diagnostic& d : r.diagnostics)
    if (d.rule == rule) out.push_back(d.line);
  return out;
}

bool all_rule(const Report& r, Rule rule) {
  for (const Diagnostic& d : r.diagnostics)
    if (d.rule != rule) return false;
  return true;
}

// ------------------------------------------------------------ rule metadata

TEST(RuleMeta, NamesAndIdsRoundTrip) {
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    const Rule r = static_cast<Rule>(i);
    Rule parsed;
    ASSERT_TRUE(parse_rule(rule_name(r), parsed)) << rule_name(r);
    EXPECT_EQ(parsed, r);
    ASSERT_TRUE(parse_rule(rule_id(r), parsed)) << rule_id(r);
    EXPECT_EQ(parsed, r);
  }
  Rule parsed;
  EXPECT_TRUE(parse_rule("R3", parsed));  // ids are case-insensitive
  EXPECT_EQ(parsed, Rule::kNoUnorderedIteration);
  EXPECT_FALSE(parse_rule("not-a-rule", parsed));
}

// ------------------------------------------------------------------- R1

TEST(R1Wallclock, FlagsEveryWallclockRead) {
  const Report r = lint_fixture("r1_wallclock_bad.cpp", "src/lintfix/r1_wallclock_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kNoWallclock));
  EXPECT_EQ(lines_of(r, Rule::kNoWallclock), (std::vector<std::size_t>{7, 8, 9, 10}));
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(R1Wallclock, IgnoresDeclarationsAndQualifiedCalls) {
  const Report r = lint_fixture("r1_wallclock_clean.cpp", "src/lintfix/r1_wallclock_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R1Wallclock, JustifiedSuppressionSilences) {
  const Report r =
      lint_fixture("r1_wallclock_suppressed.cpp", "src/lintfix/r1_wallclock_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(R1Wallclock, BenchAndTimeUtilAreExempt) {
  const std::string content = read_fixture("r1_wallclock_bad.cpp");
  EXPECT_TRUE(lint_files({{"bench/lintfix/r1.cpp", content}}, Config{}).diagnostics.empty());
  EXPECT_TRUE(lint_files({{"src/util/time.cpp", content}}, Config{}).diagnostics.empty());
}

// ------------------------------------------------------------------- R2

TEST(R2AmbientRng, FlagsEveryAmbientSource) {
  const Report r = lint_fixture("r2_rng_bad.cpp", "src/lintfix/r2_rng_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kNoAmbientRng));
  EXPECT_EQ(lines_of(r, Rule::kNoAmbientRng), (std::vector<std::size_t>{6, 7, 8, 9, 10}));
}

TEST(R2AmbientRng, AllowsExplicitlySeededEngines) {
  const Report r = lint_fixture("r2_rng_clean.cpp", "src/lintfix/r2_rng_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R2AmbientRng, JustifiedSuppressionSilences) {
  const Report r = lint_fixture("r2_rng_suppressed.cpp", "src/lintfix/r2_rng_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

// ------------------------------------------------------------------- R3

TEST(R3UnorderedIteration, FlagsRangeForAndBegin) {
  const Report r =
      lint_fixture("r3_unordered_iter_bad.cpp", "src/lintfix/r3_unordered_iter_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kNoUnorderedIteration));
  EXPECT_EQ(lines_of(r, Rule::kNoUnorderedIteration), (std::vector<std::size_t>{12, 15}));
}

TEST(R3UnorderedIteration, AllowsLookupsAndOrderedContainers) {
  const Report r =
      lint_fixture("r3_unordered_iter_clean.cpp", "src/lintfix/r3_unordered_iter_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R3UnorderedIteration, JustifiedSuppressionSilences) {
  const Report r = lint_fixture("r3_unordered_iter_suppressed.cpp",
                                "src/lintfix/r3_unordered_iter_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(R3UnorderedIteration, HeaderDeclarationCoversSourceIteration) {
  // A member declared unordered in foo.hpp is tracked when foo.cpp
  // iterates it (same stem).
  const Report r = lint_files(
      {{"src/lintfix/pair.hpp",
        "#pragma once\n#include <unordered_map>\nstruct P { std::unordered_map<int,int> m_; };\n"},
       {"src/lintfix/pair.cpp",
        "#include \"lintfix/pair.hpp\"\nint f(P& p) {\n  int t = 0;\n  for (auto& kv : p.m_) t "
        "+= kv.second;\n  return t;\n}\n"}},
      Config{});
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].rule, Rule::kNoUnorderedIteration);
  EXPECT_EQ(r.diagnostics[0].file, "src/lintfix/pair.cpp");
}

// ------------------------------------------------------------------- R4

TEST(R4PointerKeyedOrder, FlagsPointerKeysAndComparators) {
  const Report r = lint_fixture("r4_pointer_order_bad.cpp", "src/lintfix/r4_pointer_order_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kNoPointerKeyedOrder));
  EXPECT_EQ(lines_of(r, Rule::kNoPointerKeyedOrder), (std::vector<std::size_t>{12, 13, 15}));
}

TEST(R4PointerKeyedOrder, AllowsStableKeysAndFieldComparators) {
  const Report r =
      lint_fixture("r4_pointer_order_clean.cpp", "src/lintfix/r4_pointer_order_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R4PointerKeyedOrder, JustifiedSuppressionSilences) {
  const Report r = lint_fixture("r4_pointer_order_suppressed.cpp",
                                "src/lintfix/r4_pointer_order_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

// ------------------------------------------------------------------- R5

TEST(R5Iostream, FlagsConsoleStreamsUnderSrc) {
  const Report r = lint_fixture("r5_iostream_bad.cpp", "src/lintfix/r5_iostream_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kNoIostream));
  EXPECT_EQ(lines_of(r, Rule::kNoIostream), (std::vector<std::size_t>{5, 6}));
}

TEST(R5Iostream, OnlyAppliesToSrc) {
  const std::string content = read_fixture("r5_iostream_bad.cpp");
  EXPECT_TRUE(lint_files({{"tests/lintfix/r5.cpp", content}}, Config{}).diagnostics.empty());
  EXPECT_TRUE(lint_files({{"bench/lintfix/r5.cpp", content}}, Config{}).diagnostics.empty());
}

TEST(R5Iostream, AllowsStringStreams) {
  const Report r = lint_fixture("r5_iostream_clean.cpp", "src/lintfix/r5_iostream_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R5Iostream, JustifiedSuppressionSilences) {
  const Report r =
      lint_fixture("r5_iostream_suppressed.cpp", "src/lintfix/r5_iostream_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

// ------------------------------------------------------------------- R6

TEST(R6TraceEventInit, FlagsUninitFieldsAndPartialBraceInit) {
  const Report r = lint_fixture("r6_event_init_bad.cpp", "src/lintfix/r6_event_init_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kTraceEventInit));
  // Lines 7 and 9: fields without initializers; line 13: FixtureTraceEvent{1, "send"}
  // initializes 2 of 3 fields; lines 17 and 22: uninitialized fields of the
  // evidence-layer structs (*Evidence suffix and the exact-name records).
  EXPECT_EQ(lines_of(r, Rule::kTraceEventInit), (std::vector<std::size_t>{7, 9, 13, 17, 22}));
}

TEST(R6TraceEventInit, AllowsFullInitAndIgnoresNonEventStructs) {
  const Report r = lint_fixture("r6_event_init_clean.cpp", "src/lintfix/r6_event_init_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R6TraceEventInit, JustifiedSuppressionSilences) {
  const Report r =
      lint_fixture("r6_event_init_suppressed.cpp", "src/lintfix/r6_event_init_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(R6TraceEventInit, FlagsSpecAndSnapshotSuffixes) {
  const Report r = lint_fixture("r6_spec_init_bad.cpp", "src/lintfix/r6_spec_init_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kTraceEventInit));
  // Lines 7 and 9: uninitialized *Spec fields; line 13: partial aggregate
  // init; line 17: uninitialized *Snapshot field.
  EXPECT_EQ(lines_of(r, Rule::kTraceEventInit), (std::vector<std::size_t>{7, 9, 13, 17}));
}

TEST(R6TraceEventInit, AllowsFullSpecInitAndBareSuffixNames) {
  const Report r = lint_fixture("r6_spec_init_clean.cpp", "src/lintfix/r6_spec_init_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R6TraceEventInit, SpecSuppressionSilences) {
  const Report r =
      lint_fixture("r6_spec_init_suppressed.cpp", "src/lintfix/r6_spec_init_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

// ------------------------------------------------------------------- R7

TEST(R7IncludeGraph, DetectsTwoFileCycle) {
  const Report r = lint_files({{"src/lintfix/r7_cycle_a.hpp", read_fixture("r7_cycle_a.hpp")},
                               {"src/lintfix/r7_cycle_b.hpp", read_fixture("r7_cycle_b.hpp")}},
                              Config{});
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].rule, Rule::kNoIncludeCycles);
  // Anchored on the lexicographically first member's offending include.
  EXPECT_EQ(r.diagnostics[0].file, "src/lintfix/r7_cycle_a.hpp");
  EXPECT_EQ(r.diagnostics[0].line, 3u);
  EXPECT_NE(r.diagnostics[0].message.find("include cycle"), std::string::npos);
}

TEST(R7IncludeGraph, FlagsLayeringInversion) {
  // sim/ sits below detection/ in the module DAG, so a sim/ header must
  // not include detection/.
  const Report r = lint_fixture("r7_layering_bad.hpp", "src/sim/r7_layering_bad.hpp");
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].rule, Rule::kNoIncludeCycles);
  EXPECT_EQ(r.diagnostics[0].line, 4u);
  EXPECT_NE(r.diagnostics[0].message.find("layering violation"), std::string::npos);
}

TEST(R7IncludeGraph, AllowsDagRespectingIncludes) {
  const Report r = lint_fixture("r7_clean.hpp", "src/detection/r7_clean.hpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R7IncludeGraph, JustifiedSuppressionSilences) {
  const Report r = lint_fixture("r7_suppressed.hpp", "src/sim/r7_suppressed.hpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

// ------------------------------------------------------------------- R8

TEST(R8SimdContainment, FlagsRawVectorTypesOutsideCrypto) {
  const Report r = lint_fixture("r8_simd_bad.cpp", "src/lintfix/r8_simd_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kSimdContainment));
  EXPECT_EQ(lines_of(r, Rule::kSimdContainment), (std::vector<std::size_t>{6, 7, 8}));
}

TEST(R8SimdContainment, CryptoModuleIsNotExempt) {
  // Hashing has one scalar path; vector kernels are no more welcome in
  // src/crypto/ than anywhere else.
  const std::string content = read_fixture("r8_simd_bad.cpp");
  EXPECT_EQ(lint_files({{"src/crypto/kernels.cpp", content}}, Config{}).diagnostics.size(), 3u);
}

TEST(R8SimdContainment, AppliesOutsideSrcToo) {
  // A raw vector type in bench/ or tests/ forks the code path just the
  // same.
  const std::string content = read_fixture("r8_simd_bad.cpp");
  EXPECT_EQ(lint_files({{"bench/lintfix/r8.cpp", content}}, Config{}).diagnostics.size(), 3u);
}

TEST(R8SimdContainment, AllowsDispatchedApiAndInertMentions) {
  const Report r = lint_fixture("r8_simd_clean.cpp", "src/lintfix/r8_simd_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R8SimdContainment, JustifiedSuppressionSilences) {
  const Report r = lint_fixture("r8_simd_suppressed.cpp", "src/lintfix/r8_simd_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

// ------------------------------------------------------------------- R9

TEST(R9ThreadContainment, FlagsPrimitivesOutsideShardRuntime) {
  const Report r = lint_fixture("r9_thread_bad.cpp", "src/lintfix/r9_thread_bad.cpp");
  EXPECT_TRUE(all_rule(r, Rule::kThreadContainment));
  EXPECT_EQ(lines_of(r, Rule::kThreadContainment), (std::vector<std::size_t>{6, 7, 8, 9}));
}

TEST(R9ThreadContainment, FormerShardRuntimeIsFlagged) {
  // No path is exempt from R9, src/sim/shard* included.
  const std::string content = read_fixture("r9_thread_bad.cpp");
  EXPECT_EQ(lint_files({{"src/sim/shard.hpp", content}}, Config{}).diagnostics.size(), 4u);
  EXPECT_EQ(lint_files({{"src/sim/shard.cpp", content}}, Config{}).diagnostics.size(), 4u);
}

TEST(R9ThreadContainment, AppliesOutsideSrcToo) {
  // tests/ and bench/ drive the same single-threaded engine; threads
  // there would break its determinism just the same.
  const std::string content = read_fixture("r9_thread_bad.cpp");
  EXPECT_EQ(lint_files({{"tests/lintfix/r9.cpp", content}}, Config{}).diagnostics.size(), 4u);
}

TEST(R9ThreadContainment, AllowsUnqualifiedAndInertMentions) {
  const Report r = lint_fixture("r9_thread_clean.cpp", "src/lintfix/r9_thread_clean.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R9ThreadContainment, JustifiedSuppressionSilences) {
  const Report r =
      lint_fixture("r9_thread_suppressed.cpp", "src/lintfix/r9_thread_suppressed.cpp");
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

// -------------------------------------------------------- suppression rules

TEST(Suppression, BareAllowIsAViolationAndDoesNotSuppress) {
  const Report r = lint_fixture("bare_suppression.cpp", "src/lintfix/bare_suppression.cpp");
  ASSERT_EQ(r.diagnostics.size(), 2u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].rule, Rule::kBareSuppression);
  EXPECT_EQ(r.diagnostics[0].line, 6u);
  EXPECT_EQ(r.diagnostics[1].rule, Rule::kNoIostream);  // still fires
  EXPECT_EQ(r.diagnostics[1].line, 7u);
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(Suppression, UnknownRuleNameIsFlagged) {
  const Report r = lint_files(
      {{"src/lintfix/unknown.cpp",
        "// fatih-lint: allow(no-such-rule) justified but meaningless\nint x = 0;\n"}},
      Config{});
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].rule, Rule::kBareSuppression);
  EXPECT_NE(r.diagnostics[0].message.find("no-such-rule"), std::string::npos);
}

TEST(Suppression, CoversOwnLineOnly) {
  // The suppression window is the comment's line and the next line — a
  // violation two lines down still fires.
  const Report r = lint_files(
      {{"src/lintfix/window.cpp",
        "#include <iostream>\n"
        "// fatih-lint: allow(no-iostream-in-hot-path) only covers the next line\n"
        "int pad = 0;\n"
        "void f() { std::cout << pad; }\n"}},
      Config{});
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].rule, Rule::kNoIostream);
  EXPECT_EQ(r.diagnostics[0].line, 4u);
}

// --------------------------------------------------------------- rule toggles

TEST(Config, DisabledRuleDoesNotFire) {
  Config cfg;
  cfg.set(Rule::kNoWallclock, false);
  const Report r =
      lint_fixture("r1_wallclock_bad.cpp", "src/lintfix/r1_wallclock_bad.cpp", cfg);
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(Config, TogglesAreIndependent) {
  Config cfg;
  cfg.set(Rule::kNoIostream, false);
  const Report r = lint_fixture("bare_suppression.cpp", "src/lintfix/bare_suppression.cpp", cfg);
  // The iostream hit is gone but the bare-suppression meta-rule still fires.
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].rule, Rule::kBareSuppression);
}

// ------------------------------------------------------------- output shape

TEST(Output, JsonShapeIsPinned) {
  const Report r = lint_files(
      {{"src/lintfix/one.cpp", "#include <iostream>\nvoid f() { std::cerr << 1; }\n"}}, Config{});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  const std::string expected =
      "{\n"
      "  \"tool\": \"fatih-lint\",\n"
      "  \"schema_version\": 2,\n"
      "  \"files_scanned\": 1,\n"
      "  \"violation_count\": 1,\n"
      "  \"suppressed_count\": 0,\n"
      "  \"violations\": [\n"
      "    {\"file\": \"src/lintfix/one.cpp\", \"line\": 2, \"rule\": "
      "\"no-iostream-in-hot-path\", \"id\": \"R5\", \"message\": \"'std::cerr' in src/: library "
      "code must stay silent on hot paths; route output through util::log or the obs trace "
      "sink\"}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(to_json(r), expected);
}

TEST(Output, JsonEmptyViolationsShape) {
  const Report r = lint_files({{"src/lintfix/empty.cpp", "int x = 0;\n"}}, Config{});
  const std::string expected =
      "{\n"
      "  \"tool\": \"fatih-lint\",\n"
      "  \"schema_version\": 2,\n"
      "  \"files_scanned\": 1,\n"
      "  \"violation_count\": 0,\n"
      "  \"suppressed_count\": 0,\n"
      "  \"violations\": []\n"
      "}\n";
  EXPECT_EQ(to_json(r), expected);
}

TEST(Output, TextFormat) {
  const Report r = lint_files(
      {{"src/lintfix/one.cpp", "#include <iostream>\nvoid f() { std::cerr << 1; }\n"}}, Config{});
  const std::string text = to_text(r);
  EXPECT_NE(text.find("src/lintfix/one.cpp:2: [no-iostream-in-hot-path]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("fatih-lint: 1 violation(s), 0 suppressed, 1 file(s) scanned"),
            std::string::npos)
      << text;
}

TEST(Output, DiagnosticsAreSorted) {
  // Two files given in reverse order still report sorted by (file, line).
  const Report r = lint_files(
      {{"src/lintfix/zz.cpp", "#include <iostream>\nvoid g() { std::cout << 2; }\n"},
       {"src/lintfix/aa.cpp", "#include <iostream>\nvoid f() { std::cout << 1; }\n"}},
      Config{});
  ASSERT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(r.diagnostics[0].file, "src/lintfix/aa.cpp");
  EXPECT_EQ(r.diagnostics[1].file, "src/lintfix/zz.cpp");
}

// -------------------------------------------------------------- determinism

TEST(Determinism, SameInputSameReport) {
  std::vector<SourceFile> files;
  for (const char* name :
       {"r1_wallclock_bad.cpp", "r2_rng_bad.cpp", "r3_unordered_iter_bad.cpp",
        "r4_pointer_order_bad.cpp", "r5_iostream_bad.cpp", "r6_event_init_bad.cpp",
        "r8_simd_bad.cpp", "r9_thread_bad.cpp", "bare_suppression.cpp"}) {
    files.push_back({std::string("src/lintfix/") + name, read_fixture(name)});
  }
  const std::string a = to_json(lint_files(files, Config{}));
  const std::string b = to_json(lint_files(files, Config{}));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// ------------------------------------------------- R10-R12 (interprocedural)

/// A Config with a single rule on (plus the always-on suppression check).
Config only(Rule rule) {
  Config cfg;
  cfg.enabled.fill(false);
  cfg.set(rule, true);
  cfg.set(Rule::kBareSuppression, true);
  return cfg;
}

TEST(R10DeterminismTaint, FlagsSourcesReachableFromDigestSink) {
  const Report r = lint_fixture("r10_taint_bad.cpp", "src/lintfix/r10_taint_bad.cpp",
                                only(Rule::kDeterminismTaint));
  EXPECT_TRUE(all_rule(r, Rule::kDeterminismTaint));
  EXPECT_EQ(lines_of(r, Rule::kDeterminismTaint), (std::vector<std::size_t>{10, 14, 18}));
  for (const Diagnostic& d : r.diagnostics) {
    ASSERT_EQ(d.chain.size(), 2u) << to_text(r);
    EXPECT_EQ(d.chain.front().line, d.line);  // hop 0 is the flagged source
    EXPECT_EQ(d.chain.back().function, "TaintHasher::state_fingerprint");
    EXPECT_EQ(d.chain.back().line, 26u);  // ... at the call site in the sink
  }
}

TEST(R10DeterminismTaint, SilentWhenNoSinkReachesTheSource) {
  const Report r = lint_fixture("r10_taint_clean.cpp", "src/lintfix/r10_taint_clean.cpp",
                                only(Rule::kDeterminismTaint));
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R10DeterminismTaint, JustifiedSuppressionSilences) {
  const Report r = lint_fixture("r10_taint_suppressed.cpp", "src/lintfix/r10_taint_suppressed.cpp",
                                only(Rule::kDeterminismTaint));
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(R11FloatFreeDigest, FlagsClosureFunctionsAndEventStructs) {
  const Report r = lint_fixture("r11_float_bad.cpp", "src/lintfix/r11_float_bad.cpp",
                                only(Rule::kFloatFreeDigest));
  EXPECT_TRUE(all_rule(r, Rule::kFloatFreeDigest));
  EXPECT_EQ(lines_of(r, Rule::kFloatFreeDigest), (std::vector<std::size_t>{7, 10, 22}));
}

TEST(R11FloatFreeDigest, SilentOutsideTheDigestClosure) {
  const Report r = lint_fixture("r11_float_clean.cpp", "src/lintfix/r11_float_clean.cpp",
                                only(Rule::kFloatFreeDigest));
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R11FloatFreeDigest, JustifiedSuppressionSilences) {
  const Report r = lint_fixture("r11_float_suppressed.cpp", "src/lintfix/r11_float_suppressed.cpp",
                                only(Rule::kFloatFreeDigest));
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(R12HotPathAllocation, FlagsAllocationsReachableFromRoots) {
  const Report r = lint_fixture("r12_alloc_bad.cpp", "src/lintfix/r12_alloc_bad.cpp",
                                only(Rule::kHotPathAllocation));
  EXPECT_TRUE(all_rule(r, Rule::kHotPathAllocation));
  EXPECT_EQ(lines_of(r, Rule::kHotPathAllocation), (std::vector<std::size_t>{7, 8, 10}));
  for (const Diagnostic& d : r.diagnostics)
    EXPECT_EQ(d.chain.back().function, "FixtureNode::forward_packet");
}

TEST(R12HotPathAllocation, SilentWhenHotPathIsPreallocated) {
  const Report r = lint_fixture("r12_alloc_clean.cpp", "src/lintfix/r12_alloc_clean.cpp",
                                only(Rule::kHotPathAllocation));
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

TEST(R12HotPathAllocation, JustifiedSuppressionSilences) {
  const Report r = lint_fixture("r12_alloc_suppressed.cpp", "src/lintfix/r12_alloc_suppressed.cpp",
                                only(Rule::kHotPathAllocation));
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

// The evidence-chain JSON is the machine-readable contract for R10-R12:
// every hop carries function, file and line, pinned byte-for-byte.
TEST(Output, JsonChainShapeIsPinned) {
  const Report r = lint_files({{"src/chain.cpp",
                                "#include <chrono>\n"
                                "struct M {\n"
                                "  long read_clock() {\n"
                                "    return std::chrono::steady_clock::now()"
                                ".time_since_epoch().count();\n"
                                "  }\n"
                                "};\n"
                                "struct H {\n"
                                "  M m;\n"
                                "  long state_fingerprint() { return m.read_clock(); }\n"
                                "};\n"}},
                              only(Rule::kDeterminismTaint));
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  const std::string expected =
      "{\n"
      "  \"tool\": \"fatih-lint\",\n"
      "  \"schema_version\": 2,\n"
      "  \"files_scanned\": 1,\n"
      "  \"violation_count\": 1,\n"
      "  \"suppressed_count\": 0,\n"
      "  \"violations\": [\n"
      "    {\"file\": \"src/chain.cpp\", \"line\": 4, \"rule\": \"determinism-taint\", "
      "\"id\": \"R10\", \"message\": \"wall-clock read 'steady_clock' in 'M::read_clock' "
      "taints digest/codec sink 'H::state_fingerprint' (1-hop call chain); every digest "
      "input must derive from seeded, ordered state\", \"chain\": "
      "[{\"function\": \"M::read_clock\", \"file\": \"src/chain.cpp\", \"line\": 4}, "
      "{\"function\": \"H::state_fingerprint\", \"file\": \"src/chain.cpp\", \"line\": 9}]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(to_json(r), expected);
}

// The two-line suppression window (own line + next line) applies to the
// interprocedural ids exactly as to R1-R9.
TEST(Suppression, InterproceduralWindowCoversNextLineOnly) {
  const Report r = lint_files({{"src/lintfix/win.cpp",
                                "struct WinTraceEvent {\n"
                                "  // fatih-lint: allow(float-free-digest) fixture: window\n"
                                "  double covered = 0.0;\n"
                                "  double uncovered = 0.0;\n"
                                "};\n"}},
                              only(Rule::kFloatFreeDigest));
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].rule, Rule::kFloatFreeDigest);
  EXPECT_EQ(r.diagnostics[0].line, 4u);  // two lines below the comment: fires
  EXPECT_EQ(r.suppressed, 1u);           // the next-line hit is suppressed
}

TEST(Suppression, InterproceduralWindowCoversOwnLine) {
  const Report r =
      lint_files({{"src/lintfix/win2.cpp",
                   "struct WinNode {\n"
                   "  int* p = nullptr;\n"
                   "  void forward() {\n"
                   "    p = new int;  // fatih-lint: allow(hot-path-allocation) fixture: own line\n"
                   "  }\n"
                   "};\n"}},
                  only(Rule::kHotPathAllocation));
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(Suppression, R10WindowDoesNotReachTwoLinesDown) {
  const Report r = lint_files({{"src/lintfix/win3.cpp",
                                "#include <cstdlib>\n"
                                "struct S {\n"
                                "  // fatih-lint: allow(determinism-taint) fixture: window\n"
                                "  int pad = 0;\n"
                                "  long state_fingerprint() { return rand(); }\n"
                                "};\n"}},
                              only(Rule::kDeterminismTaint));
  ASSERT_EQ(r.diagnostics.size(), 1u) << to_text(r);
  EXPECT_EQ(r.diagnostics[0].line, 5u);
}

// ------------------------------------------------------------- symbol graph

symgraph::Graph graph_of(const std::string& name) {
  const symgraph::FileSyms fs =
      symgraph::extract_symbols("src/" + name, strip_to_code(read_fixture(name)));
  return symgraph::build_graph({fs});
}

int node_index(const symgraph::Graph& g, const std::string& qualified, std::uint32_t line = 0) {
  for (std::size_t i = 0; i < g.nodes.size(); ++i)
    if (g.nodes[i].fn.qualified == qualified && (line == 0 || g.nodes[i].fn.line == line))
      return static_cast<int>(i);
  return -1;
}

/// (callee qualified name, callee definition line) for each edge.
std::vector<std::pair<std::string, std::uint32_t>> callees_of(const symgraph::Graph& g, int idx) {
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (const auto& [callee, line] : g.nodes[static_cast<std::size_t>(idx)].callees)
    out.emplace_back(g.nodes[callee].fn.qualified, g.nodes[callee].fn.line);
  return out;
}

using Edges = std::vector<std::pair<std::string, std::uint32_t>>;

TEST(Symgraph, OverloadsResolveByArity) {
  const symgraph::Graph g = graph_of("symgraph_overloads.cpp");
  ASSERT_EQ(g.nodes.size(), 4u);
  const int one_arg = node_index(g, "scale", 3);
  const int two_arg = node_index(g, "scale", 4);
  ASSERT_GE(one_arg, 0);
  ASSERT_GE(two_arg, 0);
  EXPECT_EQ(g.nodes[one_arg].fn.min_args, 1u);
  EXPECT_EQ(g.nodes[two_arg].fn.max_args, 2u);
  const int driver = node_index(g, "driver");
  ASSERT_GE(driver, 0);
  // scale(1) binds the 1-arg overload, scale(1, 2) the 2-arg one;
  // 3-arg scale_many gets no edge.
  EXPECT_EQ(callees_of(g, driver), (Edges{{"scale", 3}, {"scale", 4}}));
}

TEST(Symgraph, MemberCallsBindMethodsAndBareCallsPreferOwnClass) {
  const symgraph::Graph g = graph_of("symgraph_methods.cpp");
  ASSERT_EQ(g.nodes.size(), 4u);
  const int advance = node_index(g, "Clock::advance");
  ASSERT_GE(advance, 0);
  // Bare tick() inside Clock::advance binds the class's own method, not
  // the same-named free function.
  EXPECT_EQ(callees_of(g, advance), (Edges{{"Clock::tick", 6}}));
  const int run_all = node_index(g, "Driver::run_all");
  ASSERT_GE(run_all, 0);
  // Driver has no tick(): the member call binds the only method, the bare
  // call fans out to every candidate (documented over-approximation).
  EXPECT_EQ(callees_of(g, run_all), (Edges{{"Clock::tick", 6}, {"tick", 3}}));
}

TEST(Symgraph, FunctionPointerCallsAreIgnoredNotFatal) {
  const symgraph::Graph g = graph_of("symgraph_fnptr.cpp");
  ASSERT_EQ(g.nodes.size(), 2u);
  const int dispatch = node_index(g, "dispatch");
  ASSERT_GE(dispatch, 0);
  EXPECT_TRUE(g.nodes[dispatch].callees.empty());
}

TEST(Symgraph, TemplateDefinitionsAndTemplateIdCallsLink) {
  const symgraph::Graph g = graph_of("symgraph_templates.cpp");
  ASSERT_EQ(g.nodes.size(), 2u);
  const int combine = node_index(g, "combine");
  ASSERT_GE(combine, 0);
  EXPECT_EQ(g.nodes[combine].fn.min_args, 2u);
  EXPECT_EQ(g.nodes[combine].fn.max_args, 2u);
  const int user = node_index(g, "use_combine");
  ASSERT_GE(user, 0);
  // combine<int>(1, 2) and combine(3, 4) dedupe to one edge.
  EXPECT_EQ(callees_of(g, user), (Edges{{"combine", 4}}));
}

TEST(Symgraph, DotDumpIsDeterministicAndNamesEdges) {
  const symgraph::Graph g = graph_of("symgraph_overloads.cpp");
  const std::string dot = symgraph::to_dot(g);
  EXPECT_EQ(dot, symgraph::to_dot(g));
  EXPECT_NE(dot.find("digraph fatih_symgraph"), std::string::npos);
  EXPECT_NE(dot.find("\"driver@src/symgraph_overloads.cpp:6\" -> "
                     "\"scale@src/symgraph_overloads.cpp:3\""),
            std::string::npos)
      << dot;
}

// ------------------------------------------------------------- symbol cache

TEST(SymCache, CodecRoundTripsByteExactly) {
  const symgraph::FileSyms syms =
      symgraph::extract_symbols("src/symgraph_methods.cpp",
                                strip_to_code(read_fixture("symgraph_methods.cpp")));
  const std::string enc = symgraph::encode_syms(syms);
  symgraph::FileSyms back;
  ASSERT_TRUE(symgraph::decode_syms(enc, back));
  EXPECT_EQ(symgraph::encode_syms(back), enc);
  EXPECT_EQ(back.functions.size(), syms.functions.size());
  EXPECT_EQ(back.calls.size(), syms.calls.size());
}

TEST(SymCache, RejectsMalformedEntries) {
  symgraph::FileSyms out;
  EXPECT_FALSE(symgraph::decode_syms("", out));
  EXPECT_FALSE(symgraph::decode_syms("fatih-symcache 99\npath x\n", out));
  EXPECT_FALSE(symgraph::decode_syms("fatih-symcache 1\npath x\nfn bogus\n", out));
  // A call referencing an out-of-range caller index is rejected.
  EXPECT_FALSE(symgraph::decode_syms("fatih-symcache 1\npath x\ncall 7 1 0 2 f -\n", out));
}

TEST(SymCache, CachedAndUncachedRunsAreByteIdentical) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fatih_lint_symcache_selftest";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<SourceFile> files;
  for (const char* name : {"r10_taint_bad.cpp", "r11_float_bad.cpp", "r12_alloc_bad.cpp"})
    files.push_back({std::string("src/lintfix/") + name, read_fixture(name)});
  AnalyzeOptions cached;
  cached.cache_dir = dir.string();
  const std::string uncached_json = to_json(analyze(files, AnalyzeOptions{}).report);
  const std::string cold_json = to_json(analyze(files, cached).report);  // populates
  const std::string warm_json = to_json(analyze(files, cached).report);  // reuses
  EXPECT_EQ(cold_json, uncached_json);
  EXPECT_EQ(warm_json, uncached_json);
  EXPECT_NE(uncached_json.find("\"chain\""), std::string::npos);
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, files.size());

  // A corrupted entry must fall back to fresh extraction, not bad symbols.
  std::string key_bytes = files[0].path;
  key_bytes.push_back('\0');
  key_bytes += files[0].content;
  char entry_name[32];
  std::snprintf(entry_name, sizeof(entry_name), "%016llx.syms",
                static_cast<unsigned long long>(symgraph::fnv1a64(key_bytes)));
  {
    std::ofstream corrupt(dir / entry_name, std::ios::binary | std::ios::trunc);
    corrupt << "not a symcache entry";
  }
  EXPECT_EQ(to_json(analyze(files, cached).report), uncached_json);
  fs::remove_all(dir);
}

// Comment/string stripping: rule tokens inside comments and string
// literals must not fire.
TEST(Stripping, CommentsAndStringsAreInert) {
  const Report r = lint_files(
      {{"src/lintfix/inert.cpp",
        "// std::cout << system_clock::now(); rand();\n"
        "/* std::cerr << random_device */\n"
        "const char* s = \"std::cout rand() steady_clock\";\n"
        "const char* raw = R\"(std::cerr srand(1))\";\n"
        "int big = 1'000'000;\n"}},
      Config{});
  EXPECT_TRUE(r.diagnostics.empty()) << to_text(r);
}

}  // namespace
}  // namespace fatih::lint
