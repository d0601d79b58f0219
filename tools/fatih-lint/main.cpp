// fatih-lint CLI: walks the given trees, lints every C++ source, prints
// text or JSON diagnostics. Exit status: 0 clean, 1 violations, 2 usage /
// I/O error.
//
//   fatih-lint [--root DIR] [--json] [--disable RULE[,RULE...]]
//              [--enable-only RULE[,RULE...]] [--list-rules]
//              [--graph-dot FILE] [paths...]
//
// Paths default to `src bench tests` relative to --root (default: cwd).
// tests/lint/fixtures/ is always excluded: it is the deliberately-broken
// self-test corpus.
//
// --graph-dot FILE writes the extracted cross-TU call graph (the substrate
// of rules R10–R12) as deterministically sorted Graphviz, for inspecting
// evidence chains and layering by hand.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
using fatih::lint::Config;
using fatih::lint::Rule;

namespace {

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" || ext == ".cxx";
}

bool parse_rule_list(const std::string& list, std::vector<Rule>& out) {
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item =
        comma == std::string::npos ? list.substr(start) : list.substr(start, comma - start);
    if (!item.empty()) {
      Rule r;
      if (!fatih::lint::parse_rule(item, r)) {
        std::fprintf(stderr, "fatih-lint: unknown rule '%s' (try --list-rules)\n", item.c_str());
        return false;
      }
      out.push_back(r);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: fatih-lint [--root DIR] [--json] [--disable RULES] "
               "[--enable-only RULES] [--list-rules] [--graph-dot FILE] [paths...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool json = false;
  Config cfg;
  std::vector<std::string> roots;
  std::string graph_dot;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--root") {
      if (++i >= argc) return usage();
      root = argv[i];
    } else if (arg == "--graph-dot") {
      if (++i >= argc) return usage();
      graph_dot = argv[i];
    } else if (arg == "--disable") {
      if (++i >= argc) return usage();
      std::vector<Rule> rules;
      if (!parse_rule_list(argv[i], rules)) return 2;
      for (Rule r : rules) cfg.set(r, false);
    } else if (arg == "--enable-only") {
      if (++i >= argc) return usage();
      std::vector<Rule> rules;
      if (!parse_rule_list(argv[i], rules)) return 2;
      cfg.enabled.fill(false);
      cfg.set(Rule::kBareSuppression, true);
      for (Rule r : rules) cfg.set(r, true);
    } else if (arg == "--list-rules") {
      for (std::size_t r = 0; r < fatih::lint::kRuleCount; ++r) {
        const Rule rule = static_cast<Rule>(r);
        std::printf("%-4s %s\n", fatih::lint::rule_id(rule), fatih::lint::rule_name(rule));
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots = {"src", "bench", "tests"};

  std::vector<fatih::lint::SourceFile> files;
  for (const std::string& sub : roots) {
    const fs::path dir = root / sub;
    std::error_code ec;
    if (!fs::exists(dir, ec)) {
      std::fprintf(stderr, "fatih-lint: no such path: %s\n", dir.string().c_str());
      return 2;
    }
    if (fs::is_regular_file(dir, ec)) {
      std::ifstream in(dir, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      files.push_back({fs::relative(dir, root).generic_string(), ss.str()});
      continue;
    }
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end; it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file() || !has_source_extension(it->path())) continue;
      const std::string rel = fs::relative(it->path(), root).generic_string();
      // The fixture corpus is deliberately full of violations.
      if (rel.find("lint/fixtures/") != std::string::npos) continue;
      std::ifstream in(it->path(), std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "fatih-lint: cannot read %s\n", rel.c_str());
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      files.push_back({rel, ss.str()});
    }
  }

  fatih::lint::AnalyzeOptions opts;
  opts.cfg = cfg;
  opts.want_graph = !graph_dot.empty();
  const fatih::lint::AnalyzeResult result = fatih::lint::analyze(files, opts);
  if (!graph_dot.empty()) {
    std::ofstream dot(graph_dot, std::ios::binary | std::ios::trunc);
    if (!dot) {
      std::fprintf(stderr, "fatih-lint: cannot write %s\n", graph_dot.c_str());
      return 2;
    }
    const std::string rendered = fatih::lint::symgraph::to_dot(result.graph);
    dot.write(rendered.data(), static_cast<std::streamsize>(rendered.size()));
  }
  const fatih::lint::Report& report = result.report;
  const std::string out = json ? fatih::lint::to_json(report) : fatih::lint::to_text(report);
  std::fwrite(out.data(), 1, out.size(), stdout);
  return report.diagnostics.empty() ? 0 : 1;
}
