#!/usr/bin/env bash
# Static-analysis driver: runs the three analyzers with the exact arguments
# CI's static-analysis job uses, so a clean local run means a clean CI run.
#
#   tools/lint.sh [build-dir]       (default: build)
#
#   1. fatih-lint   determinism/invariant rules over src/, bench/, tests/
#                   (tools/fatih-lint; built here if missing). Runs three
#                   times — full text report, R10-R12 evidence-chain JSON,
#                   and the --graph-dot call-graph dump.
#   2. clang-tidy   checks from the checked-in .clang-tidy, driven over
#                   compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS is
#                   always on)
#   3. cppcheck     warning/performance/portability over src/
#
# clang-tidy and cppcheck are optional locally: when not installed they are
# skipped with a warning (CI installs both). fatih-lint always runs.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
status=0

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target fatih-lint >/dev/null

FATIH_LINT="$BUILD_DIR/tools/fatih-lint/fatih-lint"

echo "== fatih-lint =="
"$FATIH_LINT" --root . src bench tests || status=1

# Interprocedural evidence chains (R10-R12) as machine-readable JSON, plus
# the Graphviz call graph.
"$FATIH_LINT" --root . --enable-only R10,R11,R12 \
  --json src bench tests > "$BUILD_DIR/fatih-lint-chains.json" || status=1
"$FATIH_LINT" --root . --enable-only R10,R11,R12 \
  --graph-dot "$BUILD_DIR/fatih-symgraph.dot" src bench tests >/dev/null || status=1
echo "evidence chains: $BUILD_DIR/fatih-lint-chains.json"
echo "call graph:      $BUILD_DIR/fatih-symgraph.dot"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  # Sources only; headers are covered through their including TUs.
  find src -name '*.cpp' | sort | xargs clang-tidy -p "$BUILD_DIR" --quiet \
    --warnings-as-errors='*' || status=1
else
  echo "warning: clang-tidy not installed; skipping (CI runs it)" >&2
fi

if command -v cppcheck >/dev/null 2>&1; then
  echo "== cppcheck =="
  cppcheck --enable=warning,performance,portability --std=c++20 \
    --language=c++ --inline-suppr --error-exitcode=1 --quiet \
    -I src src || status=1
else
  echo "warning: cppcheck not installed; skipping (CI runs it)" >&2
fi

exit "$status"
