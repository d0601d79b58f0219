// fatih-lint — determinism and invariant static analysis.
//
// Every reproducibility claim this repo makes (byte-identical suspicion
// sets, byte-identical trace/metrics artifacts, byte-identical BENCH_*
// regeneration) rests on the codebase never smuggling in a nondeterminism
// source. This tool makes those invariants machine-checked: it tokenizes
// the C++ sources (comments and string literals blanked, line structure
// preserved) and applies twelve rules, each individually toggleable:
//
//   R1 no-wallclock          wall-clock time sources outside util/time
//   R2 no-ambient-rng        ambient / default-seeded randomness
//   R3 no-unordered-iteration  iterating hash containers (order is
//                              pointer/seed dependent; lookups are fine)
//   R4 no-pointer-keyed-order  ordered containers / sort comparators
//                              keyed on raw pointer values
//   R5 no-iostream           std::cout/cerr in src/ (use util/log or the
//                              trace sink)
//   R6 trace-event-init      trace/metric event structs with fields that
//                              lack initializers, or partial brace-inits
//                              (uninit bytes break byte-identical output)
//   R7 no-include-cycles     #include cycles and module layering
//                              violations across src/
//   R8 simd-containment      raw SIMD vector types (__m128i/__m256i/...)
//                              anywhere — hashing has one scalar path,
//                              so every layer has exactly one code path
//   R9 thread-containment    raw threading primitives (std::thread,
//                              std::mutex, std::atomic, thread_local, ...)
//                              anywhere — the simulator is one
//                              single-threaded event loop, and parallel
//                              sweeps run as fatih-fleet processes
//
// R10–R12 are *interprocedural*: they run over the cross-TU call graph
// extracted by tools/fatih-lint/symgraph (same token stream, no compiler),
// and their diagnostics carry a machine-readable source→sink call chain:
//
//   R10 determinism-taint    a wall-clock / ambient-RNG / unordered-
//                              iteration source (the R1–R3 patterns, with
//                              *no* path exemptions — laundering through
//                              util/time counts) inside a function from
//                              which a digest/codec sink is reachable:
//                              state_fingerprint, pending_fingerprint,
//                              StateDigest construction, summary/
//                              fingerprint hashing, wire encode/decode,
//                              to_json/to_jsonl
//   R11 float-free-digest    float/double declarations or casts in any
//                              function reachable into a digest/wire-codec
//                              sink, or float/double fields in serialized
//                              event structs — FP rounding is ISA- and
//                              flag-dependent, which would silently break
//                              the goldens
//   R12 hot-path-allocation  heap allocation (new, make_unique/shared,
//                              owning std::string/std::vector
//                              construction) in any function reachable
//                              from the forwarding/dispatch hot-path
//                              roots: Simulator::run*, Node::forward*/
//                              receive*, Interface transmit, queue
//                              admission, the summary taps'
//                              fingerprinting (SummaryGenerator::on_*/
//                              record)
//
// Inline suppression:  // fatih-lint: allow(<rule>) <justification>
// The window is exactly two lines: the comment's own line and the next
// line. A violation two lines below the comment is NOT covered — move the
// comment onto (or directly above) the offending line. A suppression
// without a justification is itself a violation (bare-suppression).
//
// The analysis is lexical by design: no compiler, no new dependencies,
// deterministic output. Heuristics err toward silence (a named rule fires
// only on patterns it can prove lexically, and a call edge exists only
// when the callee identifier is visible at the call site — function
// pointers and std::function taint nothing); the suppression mechanism
// covers the rest.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "symgraph.hpp"

namespace fatih::lint {

enum class Rule : std::uint8_t {
  kNoWallclock = 0,       // R1
  kNoAmbientRng,          // R2
  kNoUnorderedIteration,  // R3
  kNoPointerKeyedOrder,   // R4
  kNoIostream,            // R5
  kTraceEventInit,        // R6
  kNoIncludeCycles,       // R7
  kSimdContainment,       // R8
  kThreadContainment,     // R9
  kDeterminismTaint,      // R10 (interprocedural)
  kFloatFreeDigest,       // R11 (interprocedural)
  kHotPathAllocation,     // R12 (interprocedural)
  kBareSuppression,       // meta-rule: allow() without a justification
};
inline constexpr std::size_t kRuleCount = 13;

/// Stable kebab-case rule name ("no-wallclock").
[[nodiscard]] const char* rule_name(Rule r);
/// Short id ("R1".."R9", "R0" for the suppression meta-rule).
[[nodiscard]] const char* rule_id(Rule r);
/// Accepts a name or id, case-insensitive. Returns false on unknown.
[[nodiscard]] bool parse_rule(std::string_view s, Rule& out);

struct Config {
  std::array<bool, kRuleCount> enabled{};
  Config() { enabled.fill(true); }
  [[nodiscard]] bool on(Rule r) const { return enabled[static_cast<std::size_t>(r)]; }
  void set(Rule r, bool v) { enabled[static_cast<std::size_t>(r)] = v; }
};

/// One input file. `path` is repo-relative with '/' separators; the rule
/// scoping (src/ vs bench/ vs tests/, util/time exemptions, module
/// layering) keys off it.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One hop of an interprocedural evidence chain. chain[0] is the flagged
/// site (its line is the source/allocation line); each later hop is the
/// caller one level up, with `line` the call site in that caller's file;
/// the last hop is the digest sink (R10/R11) or hot-path root (R12).
struct ChainHop {
  std::string function;  ///< qualified name ("Simulator::run")
  std::string file;
  std::size_t line = 0;
};

struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  Rule rule = Rule::kNoWallclock;
  std::string message;
  std::vector<ChainHop> chain;  ///< non-empty only for R10–R12 function findings
};

struct Report {
  std::vector<Diagnostic> diagnostics;  ///< sorted by (file, line, rule)
  std::size_t suppressed = 0;           ///< justified-suppression hits
  std::size_t files_scanned = 0;
};

/// Runs every enabled rule over the file set. Deterministic: output
/// depends only on (files, cfg), never on filesystem or iteration order.
[[nodiscard]] Report lint_files(const std::vector<SourceFile>& files, const Config& cfg);

/// Extended analysis entry point: lint_files plus symbol-graph control.
struct AnalyzeOptions {
  Config cfg{};
  /// Non-empty: reuse/populate the per-file symbol extraction cache in
  /// this directory (created if missing). Keyed by FNV-1a content hash,
  /// so cached and uncached runs are byte-identical (pinned by test).
  std::string cache_dir{};
  /// Always build and return the call graph, even if no interprocedural
  /// rule is enabled (for --graph-dot).
  bool want_graph = false;
};

struct AnalyzeResult {
  Report report;
  symgraph::Graph graph;  ///< populated iff want_graph or R10–R12 ran
};

[[nodiscard]] AnalyzeResult analyze(const std::vector<SourceFile>& files,
                                    const AnalyzeOptions& opts);

/// The linter's lexical preprocessing, exported for the symbol-graph
/// pipeline: comments and string/char literal contents blanked to spaces,
/// line structure and code offsets preserved.
[[nodiscard]] std::string strip_to_code(const std::string& content);

/// Machine-readable report; shape pinned by tests/lint/lint_test.cpp.
[[nodiscard]] std::string to_json(const Report& r);
/// Human-readable "file:line: [rule] message" lines plus a summary.
[[nodiscard]] std::string to_text(const Report& r);

}  // namespace fatih::lint
