#!/usr/bin/env bash
# Same-machine A/B of two git revisions on one perfbench workload:
#
#   tools/bench_compare.sh <rev-a> <rev-b> <workload> [pairs] [seconds]
#   tools/bench_compare.sh HEAD~1 HEAD abilene_pik2 10 8
#
# Checks each revision out with `git worktree add` under $TMPDIR and builds
# its benchmark through that revision's perfbench/run.py, each with its own
# CARGO_TARGET_DIR. Then runs the two in alternating order (a,b then b,a),
# one seed per pair from seed 11 up. Every run goes through run.py, whose
# rebuild is then a no-op and which enforces the run timeout and checks the
# result line. Prints every pair's run_s, setup_s and peak_rss_mb and, per
# metric, each side's median and quartiles and how many pairs b won. A run
# that fails is marked in its pair, which is left out of the statistics, and
# the script exits non-zero. The worktrees are removed on exit.
#
# Defaults: 10 pairs, 8 s per run. A run's run_s is perfbench's median over
# the repeats that fit in `seconds`. To check a claim on more inputs, raise
# `pairs`.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
REPO="$(cd "$(dirname "$0")/.." && pwd)"
REV_A="$(git -C "$REPO" rev-parse --verify "$1^{commit}")"
REV_B="$(git -C "$REPO" rev-parse --verify "$2^{commit}")"
WORKLOAD="$3"
PAIRS="${4:-10}"
SECONDS_PER_RUN="${5:-8}"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench_compare.XXXXXX")"
cleanup() {
  for side in a b; do
    if [ -d "$WORK/$side" ]; then
      git -C "$REPO" worktree remove --force "$WORK/$side" || true
    fi
  done
  git -C "$REPO" worktree prune
  rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# build <side> <rev>: worktree, then a one-second run that builds the
# benchmark and checks that it starts.
build() {
  local side="$1" rev="$2"
  git -C "$REPO" worktree add --detach --quiet "$WORK/$side" "$rev"
  echo "== building $side ($rev)" >&2
  CARGO_TARGET_DIR="$WORK/build-$side" python3 "$WORK/$side/perfbench/run.py" \
    --workload "$WORKLOAD" --seed 11 --seconds 1 --trace 0 >/dev/null
}
build a "$REV_A"
build b "$REV_B"

echo "a = $REV_A"
echo "b = $REV_B"
echo "workload $WORKLOAD, $PAIRS pairs, ${SECONDS_PER_RUN} s per run, seeds from 11"
python3 - "$WORK" "$WORKLOAD" "$PAIRS" "$SECONDS_PER_RUN" <<'EOF'
import json
import os
import statistics
import subprocess
import sys

work, workload, pairs, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
METRICS = ("run_s", "setup_s", "peak_rss_mb")


def run(side, seed):
    """One run of `side` through its run.py: {metric: value}, or None if it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(work, "build-" + side))
    cmd = ["python3", os.path.join(work, side, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])  # run.py checked its shape
    if result["failed"]:
        print(f"{side} seed {seed}: {result['failed']}/{result['attempted']} operations failed",
              file=sys.stderr)
        return None
    return {m: result["metrics"][m]["value"] for m in METRICS}


def cell(r, m):
    return "FAIL" if r is None else f"{r[m]:#.5g}"


print(f"{'pair':<4} {'seed':<4} {'order':<5}" +
      "".join(f" {s + '_' + m:>13}" for m in METRICS for s in "ab"))
rows, failed = [], 0
for i in range(pairs):
    seed = 11 + i
    order = "ab" if i % 2 == 0 else "ba"
    r = {}
    for side in order:
        r[side] = run(side, seed)
    failed += (r["a"] is None) + (r["b"] is None)
    print(f"{i:<4} {seed:<4} {order:<5}" +
          "".join(f" {cell(r[s], m):>13}" for m in METRICS for s in "ab"), flush=True)
    if r["a"] is not None and r["b"] is not None:
        rows.append(r)


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


for m in METRICS:
    if not rows:
        break
    a = [r["a"][m] for r in rows]
    b = [r["b"][m] for r in rows]
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if y < x)
    print(f"{m}: a median {qa[1]:#.5g} [q {qa[0]:#.5g}, {qa[2]:#.5g}]  "
          f"b median {qb[1]:#.5g} [q {qb[0]:#.5g}, {qb[2]:#.5g}]  "
          f"change {100 * (qb[1] - qa[1]) / qa[1]:+.1f}% ({qb[1] - qa[1]:+.3g} vs a's quartile "
          f"distance {qa[2] - qa[0]:.3g})  b lower in {wins}/{len(rows)} pairs")
print(f"failed runs: {failed}")
sys.exit(1 if failed else 0)
EOF
