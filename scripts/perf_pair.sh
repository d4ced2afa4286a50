#!/usr/bin/env bash
# Paired wall-time comparison of one benchmark workload: BASE_REF against
# this checkout, on one host.
#
#   scripts/perf_pair.sh BASE_REF WORKLOAD PAIRS [SEED]
#
# BASE_REF is checked out in a git worktree under a temp dir; the change
# side is this checkout as it stands (HEAD plus any uncommitted edits).
# Each side first builds its benchmark in one short untimed
# `perfbench/run.py --seconds 1` run. Then PAIRS pairs of
# `perfbench/run.py --seconds 15 --trace 0` runs follow, alternating
# which side goes first, so drift in the host's speed falls on both
# sides alike. For every end-to-end metric of BENCHMARK.json it prints
# the median and interquartile range of each side, the change of the
# medians, and in how many pairs the change side did better. SEED
# defaults to 0. Every run also checks the workload's outputs (the
# pinned sweep fingerprints, the advisor's answers), and a failed check
# stops the script.
#
# Timings compare only within one run of this script: a number from
# another host, or another time, says nothing against these.
set -euo pipefail

base_ref="${1:?usage: perf_pair.sh BASE_REF WORKLOAD PAIRS [SEED]}"
workload="${2:?usage: perf_pair.sh BASE_REF WORKLOAD PAIRS [SEED]}"
pairs="${3:?usage: perf_pair.sh BASE_REF WORKLOAD PAIRS [SEED]}"
seed="${4:-0}"
case "$pairs" in
  '' | *[!0-9]* | 0) echo "error: PAIRS must be a positive integer" >&2
                     exit 2 ;;
esac

repo="$(cd "$(dirname "$0")/.." && pwd)"
workdir="$(mktemp -d)"
base="$workdir/base"
cleanup() {
  git -C "$repo" worktree remove --force "$base" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

git -C "$repo" worktree add --detach --quiet "$base" "$base_ref"

run() {  # run <tree> <seconds> <out>: one perfbench run, JSON line to out
  local tree="$1" seconds="$2" out="$3"
  (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
     --seed "$seed" --seconds "$seconds" --trace 0) \
    2>"$out.log" | tail -n 1 >"$out" || {
    echo "FAIL: perfbench run in $tree failed" >&2
    tail -n 20 "$out.log" >&2
    exit 1
  }
}

echo "building and checking $base_ref (base) and this checkout (change)"
run "$base" 1 "$workdir/warm-base.json"
run "$repo" 1 "$workdir/warm-change.json"

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
  for side in $order; do
    if [ "$side" = base ]; then tree="$base"; else tree="$repo"; fi
    run "$tree" 15 "$workdir/$side-$i.json"
  done
  echo "pair $i/$pairs done ($order)"
done

python3 - "$repo/BENCHMARK.json" "$workdir" "$pairs" "$workload" \
  "$seed" "$base_ref" <<'EOF'
import json
import statistics
import sys

spec_path, workdir, pairs, workload, seed, base_ref = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(spec_path))["end_to_end"]


def load(side, i):
    return json.load(open(f"{workdir}/{side}-{i}.json"))["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


runs = {side: [load(side, i) for i in range(1, pairs + 1)]
        for side in ("base", "change")}
print(f"\n{workload} seed {seed}: {base_ref} (base) vs this checkout "
      f"(change), {pairs} pairs")
print(f"{'metric':<18}{'base median':>14}{'base IQR':>12}"
      f"{'change median':>16}{'change IQR':>12}{'change':>9}{'wins':>7}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    base = [r[name]["value"] for r in runs["base"]]
    change = [r[name]["value"] for r in runs["change"]]
    wins = sum(1 for b, c in zip(base, change)
               if (c < b if lower else c > b))
    bm, cm = statistics.median(base), statistics.median(change)
    bq, cq = quartiles(base), quartiles(change)
    delta = (cm - bm) / bm * 100 if bm else float("nan")
    print(f"{name:<18}{bm:>14.4g}{bq[1] - bq[0]:>12.3g}"
          f"{cm:>16.4g}{cq[1] - cq[0]:>12.3g}{delta:>+8.1f}%"
          f"{wins:>4}/{pairs}")
EOF
