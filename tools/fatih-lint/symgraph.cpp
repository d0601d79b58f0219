#include "symgraph.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace fatih::lint::symgraph {

namespace {

// Small lexical helpers over the blanked code. Deliberately local copies
// (the linter keeps its own in lint.cpp): both sides are tiny, and the
// extraction contract is the *blanked text*, not the linter's internals.

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

bool space_char(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

std::size_t next_nonspace(const std::string& s, std::size_t p) {
  while (p < s.size() && space_char(s[p])) ++p;
  return p;
}

std::size_t prev_nonspace(const std::string& s, std::size_t p) {
  while (p > 0) {
    --p;
    if (!space_char(s[p])) return p;
  }
  return std::string::npos;
}

std::string read_ident(const std::string& s, std::size_t pos) {
  std::size_t e = pos;
  while (e < s.size() && ident_char(s[e])) ++e;
  return s.substr(pos, e - pos);
}

std::string read_ident_before(const std::string& s, std::size_t end) {
  std::size_t b = end;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return s.substr(b, end - b);
}

std::size_t match_bracket(const std::string& s, std::size_t pos) {
  const char open = s[pos];
  const char close = open == '(' ? ')' : open == '{' ? '}' : ']';
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == open) ++depth;
    else if (s[i] == close) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

/// `pos` points at '<'; returns offset just past the matching '>', or npos
/// (a ';' before balance means it was a comparison, not template args).
std::size_t skip_template_args(const std::string& s, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    else if (s[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    } else if (s[i] == ';') {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

/// Identifiers that can precede '(' without being a function name or a
/// call: control flow, casts, storage words. Erring toward inclusion here
/// only silences the extractor, never corrupts it.
bool is_keyword(const std::string& w) {
  static const std::set<std::string> kKeywords = {
      "if",           "else",         "for",          "while",       "do",
      "switch",       "case",         "default",      "return",      "break",
      "continue",     "goto",         "sizeof",       "alignof",     "alignas",
      "decltype",     "typeid",       "new",          "delete",      "catch",
      "try",          "throw",        "operator",     "template",    "typename",
      "using",        "namespace",    "static_assert", "constexpr",  "consteval",
      "constinit",    "const",        "volatile",     "static",      "inline",
      "extern",       "friend",       "virtual",      "explicit",    "public",
      "private",      "protected",    "struct",       "class",       "enum",
      "union",        "co_return",    "co_await",     "co_yield",    "requires",
      "noexcept",     "this",         "assert",       "static_cast", "dynamic_cast",
      "const_cast",   "reinterpret_cast", "defined",  "and",         "or",
      "not",          "auto",         "void",         "int",         "bool",
      "char",         "short",        "long",         "unsigned",    "signed",
      "float",        "double"};
  return kKeywords.count(w) != 0;
}

/// Statement keywords after which an identifier+'(' is a call, not a
/// declaration (`return helper(x)` vs `Type helper(x)`).
bool is_statement_keyword(const std::string& w) {
  return w == "return" || w == "else" || w == "case" || w == "do" || w == "throw" ||
         w == "co_return" || w == "co_await" || w == "co_yield" || w == "and" || w == "or" ||
         w == "not";
}

/// After the parameter list of a candidate definition, scans specifiers
/// (const/noexcept/override/..., trailing return, ctor init list) and
/// returns the offset of the body '{', or npos if this is a declaration
/// or not a function at all. Err-toward-silence: anything unrecognized is
/// npos.
std::size_t find_body_brace(const std::string& s, std::size_t p) {
  p = next_nonspace(s, p);
  while (p < s.size() && ident_char(s[p])) {
    const std::string w = read_ident(s, p);
    if (w != "const" && w != "noexcept" && w != "override" && w != "final" && w != "mutable" &&
        w != "try" && w != "requires" && w != "volatile" && w != "constexpr")
      return std::string::npos;
    p = next_nonspace(s, p + w.size());
    if (p < s.size() && s[p] == '(') {  // noexcept(...) / requires(...)
      const std::size_t e = match_bracket(s, p);
      if (e == std::string::npos) return std::string::npos;
      p = next_nonspace(s, e + 1);
    }
  }
  if (p >= s.size()) return std::string::npos;
  if (s[p] == '{') return p;
  if (s[p] == '-' && p + 1 < s.size() && s[p + 1] == '>') {
    // Trailing return type: skip type tokens until the body brace.
    p += 2;
    while (p < s.size()) {
      if (s[p] == '{') return p;
      if (s[p] == ';' || s[p] == '=') return std::string::npos;
      if (s[p] == '<') {
        const std::size_t e = skip_template_args(s, p);
        if (e == std::string::npos) return std::string::npos;
        p = e;
        continue;
      }
      if (s[p] == '(') {
        const std::size_t e = match_bracket(s, p);
        if (e == std::string::npos) return std::string::npos;
        p = e + 1;
        continue;
      }
      ++p;
    }
    return std::string::npos;
  }
  if (s[p] == ':' && (p + 1 >= s.size() || s[p + 1] != ':')) {
    // Constructor init list: `: member_(a), Base{b} {`.
    p = next_nonspace(s, p + 1);
    while (true) {
      if (p >= s.size() || !ident_char(s[p])) return std::string::npos;
      p += read_ident(s, p).size();
      while (p + 1 < s.size() && s[p] == ':' && s[p + 1] == ':') {
        p += 2;
        if (p >= s.size() || !ident_char(s[p])) return std::string::npos;
        p += read_ident(s, p).size();
      }
      p = next_nonspace(s, p);
      if (p < s.size() && s[p] == '<') {
        const std::size_t e = skip_template_args(s, p);
        if (e == std::string::npos) return std::string::npos;
        p = next_nonspace(s, e);
      }
      if (p >= s.size() || (s[p] != '(' && s[p] != '{')) return std::string::npos;
      const std::size_t e = match_bracket(s, p);
      if (e == std::string::npos) return std::string::npos;
      p = next_nonspace(s, e + 1);
      if (p < s.size() && s[p] == ',') {
        p = next_nonspace(s, p + 1);
        continue;
      }
      break;
    }
    if (p < s.size() && s[p] == '{') return p;
    return std::string::npos;
  }
  return std::string::npos;
}

/// Counts written arguments between `open` ('(') and its match. Top-level
/// commas delimit; nested (), {}, [] groups are skipped. '<' is NOT
/// treated as a group (at expression level it is usually a comparison; a
/// template-id argument miscounts toward a dropped edge, which is the
/// quiet direction). Whitespace-only parens are zero arguments.
std::uint32_t count_call_args(const std::string& s, std::size_t open, std::size_t close) {
  std::uint32_t commas = 0;
  bool any = false;
  int round = 0, brace = 0, square = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = s[i];
    if (c == '(') ++round;
    else if (c == ')') --round;
    else if (c == '{') ++brace;
    else if (c == '}') --brace;
    else if (c == '[') ++square;
    else if (c == ']') --square;
    else if (c == ',' && round == 0 && brace == 0 && square == 0) ++commas;
    if (!space_char(c)) any = true;
  }
  return any ? commas + 1 : 0;
}

/// Parameter-list arity for a definition: [min, max] written-argument
/// counts. Defaults (`= expr` at top level) widen min downward; `...`
/// (packs / C varargs) unbounds max. Unlike call sites, '<' groups ARE
/// skipped here — `std::map<K, V> m` is a single parameter, and top-level
/// comparisons cannot appear in a parameter list.
void count_params(const std::string& s, std::size_t open, std::size_t close,
                  std::uint32_t& min_args, std::uint32_t& max_args) {
  min_args = max_args = 0;
  {  // `f()` and C-style `f(void)` both declare zero parameters.
    std::size_t b = next_nonspace(s, open + 1);
    std::size_t e = close;
    while (e > b && space_char(s[e - 1])) --e;
    if (b >= e || s.compare(b, e - b, "void") == 0) return;
  }
  std::uint32_t params = 0, defaulted = 0;
  bool cur_defaulted = false, variadic = false;
  int round = 0, brace = 0, square = 0, angle = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = s[i];
    if (c == '(') ++round;
    else if (c == ')') --round;
    else if (c == '{') ++brace;
    else if (c == '}') --brace;
    else if (c == '[') ++square;
    else if (c == '<') ++angle;
    else if (c == '>' && angle > 0 && s[i - 1] != '-') --angle;
    else if (c == ']') --square;
    const bool top = round == 0 && brace == 0 && square == 0 && angle == 0;
    if (top && c == ',') {
      ++params;
      if (cur_defaulted) ++defaulted;
      cur_defaulted = false;
      continue;
    }
    if (top && c == '=' && s[i - 1] != '=' && s[i - 1] != '!' && s[i - 1] != '<' &&
        s[i - 1] != '>' && (i + 1 >= s.size() || s[i + 1] != '='))
      cur_defaulted = true;
    if (top && c == '.' && i + 2 < close && s[i + 1] == '.' && s[i + 2] == '.') variadic = true;
  }
  ++params;
  if (cur_defaulted) ++defaulted;
  // A variadic list accepts a wide range; disable the lower bound rather
  // than risk dropping a legal call edge over the `...` pseudo-parameter.
  min_args = variadic ? 0 : params - defaulted;
  max_args = variadic ? kAnyArity : params;
}

struct LineTable {
  std::vector<std::size_t> starts;
  explicit LineTable(const std::string& s) {
    starts.push_back(0);
    for (std::size_t i = 0; i < s.size(); ++i)
      if (s[i] == '\n') starts.push_back(i + 1);
  }
  [[nodiscard]] std::uint32_t line_of(std::size_t pos) const {
    const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
    return static_cast<std::uint32_t>(it - starts.begin());
  }
};

/// Scans one function body for call sites and appends them to out.calls.
void extract_calls(const std::string& s, const LineTable& lines, std::uint32_t caller,
                   std::size_t begin, std::size_t end, FileSyms& out) {
  std::size_t i = begin;
  while (i < end) {
    const char c = s[i];
    if (!ident_char(c) || (i > 0 && ident_char(s[i - 1]))) {
      ++i;
      continue;
    }
    if (c >= '0' && c <= '9') {  // numeric literal, not an identifier
      while (i < end && (ident_char(s[i]) || s[i] == '\'')) ++i;
      continue;
    }
    const std::string word = read_ident(s, i);
    const std::size_t word_begin = i;
    const std::size_t word_end = i + word.size();
    i = word_end;
    if (is_keyword(word)) continue;
    std::size_t q = next_nonspace(s, word_end);
    if (q < end && s[q] == '<') {
      const std::size_t e = skip_template_args(s, q);
      if (e == std::string::npos || e > end) continue;
      q = next_nonspace(s, e);
    }
    if (q >= end || s[q] != '(') continue;

    bool member = false;
    std::string qualifier;
    const std::size_t pv = prev_nonspace(s, word_begin);
    if (pv != std::string::npos) {
      if (s[pv] == '.') {
        member = true;
      } else if (s[pv] == '>' && pv > 0 && s[pv - 1] == '-') {
        member = true;
      } else if (s[pv] == '~') {
        continue;  // destructor call
      } else if (s[pv] == ':' && pv > 0 && s[pv - 1] == ':') {
        const std::size_t qe = prev_nonspace(s, pv - 1);
        if (qe != std::string::npos && ident_char(s[qe]))
          qualifier = read_ident_before(s, qe + 1);
        if (qualifier == "std") continue;  // std:: calls are not graph nodes
      } else if (ident_char(s[pv])) {
        // `Type name(...)`: a declaration unless the preceding identifier
        // is a statement keyword (`return name(...)`).
        if (!is_statement_keyword(read_ident_before(s, pv + 1))) continue;
      }
    }
    const std::size_t close = match_bracket(s, q);
    if (close == std::string::npos || close > end) continue;
    out.calls.push_back({caller, word, qualifier, member, lines.line_of(word_begin),
                         count_call_args(s, q, close)});
  }
}

}  // namespace

FileSyms extract_symbols(const std::string& path, const std::string& blanked) {
  FileSyms out;
  out.path = path;
  const std::string& s = blanked;
  const LineTable lines(s);

  // Innermost enclosing struct/class; entries apply while depth >= .depth.
  struct ScopeEntry {
    std::string name;
    int depth;
  };
  std::vector<ScopeEntry> scopes;
  int depth = 0;

  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '{') {
      ++depth;
      ++i;
      continue;
    }
    if (c == '}') {
      --depth;
      while (!scopes.empty() && scopes.back().depth > depth) scopes.pop_back();
      ++i;
      continue;
    }
    if (!ident_char(c) || (i > 0 && ident_char(s[i - 1]))) {
      ++i;
      continue;
    }
    if (c >= '0' && c <= '9') {
      while (i < s.size() && (ident_char(s[i]) || s[i] == '\'')) ++i;
      continue;
    }
    const std::string word = read_ident(s, i);
    const std::size_t word_begin = i;
    const std::size_t word_end = i + word.size();
    if (word == "struct" || word == "class") {
      // Not `enum class`: that opens an enumerator list, not a scope.
      bool enum_class = false;
      const std::size_t pv = prev_nonspace(s, word_begin);
      if (pv != std::string::npos && ident_char(s[pv]))
        enum_class = read_ident_before(s, pv + 1) == "enum";
      const std::size_t q = next_nonspace(s, word_end);
      if (!enum_class && q < s.size() && ident_char(s[q])) {
        const std::string name = read_ident(s, q);
        // Forward-scan for the class body '{' (a ';' first means a forward
        // declaration). Base clauses may carry template args and alignas.
        std::size_t r = q + name.size();
        while (r < s.size() && s[r] != '{' && s[r] != ';' && s[r] != '}') {
          if (s[r] == '<') {
            const std::size_t e = skip_template_args(s, r);
            if (e == std::string::npos) break;
            r = e;
            continue;
          }
          if (s[r] == '(') {
            const std::size_t e = match_bracket(s, r);
            if (e == std::string::npos) break;
            r = e + 1;
            continue;
          }
          ++r;
        }
        if (r < s.size() && s[r] == '{') scopes.push_back({name, depth + 1});
      }
      i = word_end;
      continue;
    }
    if (is_keyword(word)) {
      i = word_end;
      continue;
    }

    // Candidate definition name. Member access / destructors are never
    // definitions we record; an explicit `Cls::` prefix qualifies one.
    std::string qualifier;
    const std::size_t pv = prev_nonspace(s, word_begin);
    if (pv != std::string::npos) {
      if (s[pv] == '.' || s[pv] == '~' || (s[pv] == '>' && pv > 0 && s[pv - 1] == '-')) {
        i = word_end;
        continue;
      }
      if (s[pv] == ':' && pv > 0 && s[pv - 1] == ':') {
        const std::size_t qe = prev_nonspace(s, pv - 1);
        if (qe == std::string::npos || !ident_char(s[qe])) {
          i = word_end;
          continue;
        }
        qualifier = read_ident_before(s, qe + 1);
      }
    }
    std::size_t q = next_nonspace(s, word_end);
    if (q < s.size() && s[q] == '<') {
      const std::size_t e = skip_template_args(s, q);
      if (e == std::string::npos) {
        i = word_end;
        continue;
      }
      q = next_nonspace(s, e);
    }
    if (q >= s.size() || s[q] != '(') {
      i = word_end;
      continue;
    }
    const std::size_t params_end = match_bracket(s, q);
    if (params_end == std::string::npos) {
      i = word_end;
      continue;
    }
    const std::size_t body = find_body_brace(s, params_end + 1);
    if (body == std::string::npos) {
      i = word_end;
      continue;
    }
    const std::size_t body_end = match_bracket(s, body);
    if (body_end == std::string::npos) {
      i = word_end;
      continue;
    }
    std::string qualified;
    if (!qualifier.empty()) qualified = qualifier + "::" + word;
    else if (!scopes.empty()) qualified = scopes.back().name + "::" + word;
    else qualified = word;
    std::uint32_t min_args = 0, max_args = 0;
    count_params(s, q, params_end, min_args, max_args);
    out.functions.push_back({word, std::move(qualified), lines.line_of(word_begin),
                             static_cast<std::uint32_t>(body),
                             static_cast<std::uint32_t>(body_end), min_args, max_args});
    i = body_end + 1;  // bodies are scanned by the call pass, below
  }

  for (std::uint32_t fi = 0; fi < out.functions.size(); ++fi) {
    const SymFunction& fn = out.functions[fi];
    extract_calls(s, lines, fi, fn.body_begin + 1, fn.body_end, out);
  }
  return out;
}

Graph build_graph(const std::vector<FileSyms>& files) {
  Graph g;
  // Deterministic node order regardless of input order: sort file refs by
  // path, then nodes by (qualified, file, line).
  std::vector<const FileSyms*> sorted;
  sorted.reserve(files.size());
  for (const FileSyms& f : files) sorted.push_back(&f);
  std::sort(sorted.begin(), sorted.end(),
            [](const FileSyms* a, const FileSyms* b) { return a->path < b->path; });

  struct Ref {
    const FileSyms* file;
    std::uint32_t idx;
  };
  std::vector<Ref> refs;
  for (const FileSyms* f : sorted)
    for (std::uint32_t i = 0; i < f->functions.size(); ++i) refs.push_back({f, i});
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    const SymFunction& fa = a.file->functions[a.idx];
    const SymFunction& fb = b.file->functions[b.idx];
    if (fa.qualified != fb.qualified) return fa.qualified < fb.qualified;
    if (a.file->path != b.file->path) return a.file->path < b.file->path;
    return fa.line < fb.line;
  });

  std::map<std::pair<const FileSyms*, std::uint32_t>, std::uint32_t> node_of;
  g.nodes.reserve(refs.size());
  for (const Ref& r : refs) {
    const std::uint32_t idx = static_cast<std::uint32_t>(g.nodes.size());
    node_of[{r.file, r.idx}] = idx;
    g.nodes.push_back({r.file->functions[r.idx], r.file->path, {}});
    const Graph::Node& n = g.nodes.back();
    g.by_name[n.fn.name].push_back(idx);
    g.by_qualified[n.fn.qualified].push_back(idx);
    if (n.fn.qualified != n.fn.name) g.methods_by_name[n.fn.name].push_back(idx);
  }

  for (const FileSyms* f : sorted) {
    for (const SymCall& c : f->calls) {
      const auto cit = node_of.find({f, c.caller});
      if (cit == node_of.end()) continue;
      const std::uint32_t caller_node = cit->second;
      const std::vector<std::uint32_t>* candidates = nullptr;
      std::vector<std::uint32_t> free_fns;
      if (!c.qualifier.empty()) {
        const auto it = g.by_qualified.find(c.qualifier + "::" + c.name);
        if (it != g.by_qualified.end()) {
          candidates = &it->second;
        } else if (const auto bn = g.by_name.find(c.name); bn != g.by_name.end()) {
          // No `Cls::name` method: the qualifier is a namespace, which
          // does not qualify recorded names, so bind to the free functions
          // of that name.
          for (const std::uint32_t idx : bn->second)
            if (g.nodes[idx].fn.qualified == c.name) free_fns.push_back(idx);
          candidates = &free_fns;
        }
      } else if (c.member) {
        const auto it = g.methods_by_name.find(c.name);
        if (it != g.methods_by_name.end()) candidates = &it->second;
      } else {
        // Unqualified lookup: a bare call inside a method binds to the
        // caller's own class method when one exists, mirroring C++ name
        // lookup; only otherwise does it fan out to every same-named
        // function in the repo.
        const std::string& cq = g.nodes[caller_node].fn.qualified;
        const std::size_t sep = cq.rfind("::");
        if (sep != std::string::npos) {
          const auto it = g.by_qualified.find(cq.substr(0, sep + 2) + c.name);
          if (it != g.by_qualified.end()) candidates = &it->second;
        }
        if (candidates == nullptr) {
          const auto it = g.by_name.find(c.name);
          if (it != g.by_name.end()) candidates = &it->second;
        }
      }
      if (candidates == nullptr) continue;  // unresolved: conservatively silent
      for (const std::uint32_t callee : *candidates) {
        // Arity filter: the written argument count must fit the callee's
        // parameter count ([min, max]; defaults widen, packs unbound).
        const SymFunction& fn = g.nodes[callee].fn;
        if (c.argc < fn.min_args || (fn.max_args != kAnyArity && c.argc > fn.max_args)) continue;
        g.nodes[caller_node].callees.emplace_back(callee, c.line);
      }
    }
  }
  for (Graph::Node& n : g.nodes) {
    std::sort(n.callees.begin(), n.callees.end());
    // Dedup by callee, keeping the first (lowest-line) call site as the
    // evidence line for the edge.
    n.callees.erase(std::unique(n.callees.begin(), n.callees.end(),
                                [](const auto& a, const auto& b) { return a.first == b.first; }),
                    n.callees.end());
  }
  return g;
}

std::string to_dot(const Graph& g) {
  std::ostringstream os;
  os << "digraph fatih_symgraph {\n";
  os << "  rankdir=LR;\n";
  os << "  node [shape=box, fontsize=9];\n";
  auto key = [&](std::uint32_t i) {
    const Graph::Node& n = g.nodes[i];
    std::ostringstream k;
    k << n.fn.qualified << "@" << n.file << ":" << n.fn.line;
    return k.str();
  };
  for (std::uint32_t i = 0; i < g.nodes.size(); ++i) {
    const Graph::Node& n = g.nodes[i];
    os << "  \"" << key(i) << "\" [label=\"" << n.fn.qualified << "\\n" << n.file << ":"
       << n.fn.line << "\"];\n";
  }
  for (std::uint32_t i = 0; i < g.nodes.size(); ++i) {
    for (const auto& [callee, line] : g.nodes[i].callees) {
      os << "  \"" << key(i) << "\" -> \"" << key(callee) << "\" [label=\"" << line << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace fatih::lint::symgraph
