// fatih-lint symbol graph — cross-TU call-graph extraction on top of the
// linter's lexical token stream (comments and string literals blanked; no
// compiler dependency, deterministic output).
//
// The per-file pattern rules (R1..R9) police nondeterminism *where it is
// written*; the interprocedural rules (R10..R12) need to know where it
// *flows*. This module supplies the substrate: it extracts function
// definitions and call sites from each file independently, then links them
// into a repo-wide call graph keyed by qualified name, with per-edge
// file:line evidence so every reachability verdict can cite a concrete
// chain.
//
// Extraction heuristics (soundness posture: err toward silence — a missed
// edge makes a rule quieter, never noisier):
//
//   * A function definition is `name(params) <specifiers> {` at class or
//     namespace scope. Method definitions are qualified by the innermost
//     enclosing `struct`/`class` (or an explicit `Cls::` prefix for
//     out-of-line definitions); namespaces do not qualify. Destructors,
//     `operator` overloads and lambdas are not extracted.
//   * A call site is `name(` / `name<...>(` inside a recorded body. The
//     written qualifier is preserved: `Cls::f(` records qualifier "Cls",
//     `obj.f(` / `p->f(` record a member call, a bare `f(` records an
//     unqualified call. `std::` calls and declaration-looking forms
//     (`Type var(...)`) are dropped.
//   * Linking is conservative: an explicitly qualified call binds to
//     exact `Cls::name` matches, or, when no such method exists, to the
//     free functions named `name` (`ns::f(` — namespaces do not qualify
//     recorded names); a member call binds to every *method*
//     named `name`; an unqualified call binds to the caller's own class
//     method when one exists (mirroring C++ unqualified lookup), else to
//     every function named `name` (methods and free functions alike —
//     overloads all get an edge). Every candidate is arity-filtered: an
//     edge survives only if the written argument count fits the callee's
//     [min, max] parameter count (defaults widen min, packs/varargs
//     unbound max). Calls through function pointers or `std::function`
//     have no callee identifier and are ignored, never resolved and never
//     fatal.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fatih::lint::symgraph {

/// Sentinel for "any number of arguments" (parameter pack / C varargs).
inline constexpr std::uint32_t kAnyArity = 0xffffffffu;

/// One function definition found in a file.
struct SymFunction {
  std::string name;       ///< terminal name ("forward")
  std::string qualified;  ///< "Node::forward" for methods, else == name
  std::uint32_t line = 0;          ///< 1-based line of the name token
  std::uint32_t body_begin = 0;    ///< offset of '{' in the blanked code
  std::uint32_t body_end = 0;      ///< offset of the matching '}'
  std::uint32_t min_args = 0;      ///< params without defaults
  std::uint32_t max_args = 0;      ///< all params; kAnyArity if variadic
};

/// One call site inside a recorded function body.
struct SymCall {
  std::uint32_t caller = 0;  ///< index into FileSyms::functions
  std::string name;          ///< callee terminal name as written
  std::string qualifier;     ///< explicit "Cls" for `Cls::f(`, else empty
  bool member = false;       ///< written as `obj.f(` / `p->f(`
  std::uint32_t line = 0;    ///< 1-based line of the call
  std::uint32_t argc = 0;    ///< written argument count at the call site
};

/// Symbols of one file: the unit of extraction.
struct FileSyms {
  std::string path;
  std::vector<SymFunction> functions;  ///< in definition order
  std::vector<SymCall> calls;          ///< in body-scan order
};

/// Extracts definitions and call sites from one file. `blanked` is the
/// linter's preprocessed code (comments/strings blanked, line structure
/// preserved); `path` is the repo-relative path recorded in the result.
[[nodiscard]] FileSyms extract_symbols(const std::string& path, const std::string& blanked);

/// The linked repo-wide call graph. Nodes are sorted by (qualified, file,
/// line); edges are per-node, sorted by callee index, deduplicated to the
/// first (lowest-line) call site — the evidence line for that edge.
struct Graph {
  struct Node {
    SymFunction fn;
    std::string file;
    /// (callee node index, 1-based call-site line in `file`).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> callees;
  };
  std::vector<Node> nodes;
  /// Terminal name -> node indices (ascending). Methods and free
  /// functions both appear; `methods_by_name` holds only qualified ones.
  std::map<std::string, std::vector<std::uint32_t>> by_name;
  std::map<std::string, std::vector<std::uint32_t>> methods_by_name;
  std::map<std::string, std::vector<std::uint32_t>> by_qualified;
};

/// Links per-file symbols into one graph. Deterministic: depends only on
/// the (path, symbols) multiset, never on input order.
[[nodiscard]] Graph build_graph(const std::vector<FileSyms>& files);

/// Graphviz rendering, deterministically sorted (nodes by qualified name,
/// then file:line; edges by caller then callee). Evidence chains and the
/// module layering can be inspected by eye via `fatih-lint --graph-dot`.
[[nodiscard]] std::string to_dot(const Graph& g);

}  // namespace fatih::lint::symgraph
