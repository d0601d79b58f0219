#!/usr/bin/env bash
# Benchmark driver: builds the Release (-O3 -DNDEBUG) tree and regenerates
# the committed BENCH_*.json artifacts from the repo root:
#   tools/bench.sh              # reliable_control + churn
#   tools/bench.sh churn        # just the named benches
# This script only regenerates those artifacts. Speed claims come from
# perfbench/ (perfbench/README.md) and same-machine A/Bs of two revisions
# with tools/bench_compare.sh, never from these benches.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=("$@")
if [ ${#BENCHES[@]} -eq 0 ]; then
  BENCHES=(reliable_control churn)
fi

cmake --preset release
cmake --build --preset release -j"$(nproc)" --target "${BENCHES[@]}"

# Benches write their BENCH_<name>.json into the CWD; run from the root so
# the artifacts land next to the sources and get committed.
for b in "${BENCHES[@]}"; do
  echo "== running $b =="
  "build-release/bench/$b"
done
