#!/usr/bin/env bash
# A/B regression check of the repository benchmark (perfbench/): the
# current checkout against a base commit, built and run on the same
# machine, since numbers from another host are not comparable.
#
#   scripts/bench_ab.sh [BASE_REF] [PAIRS]
#
# BASE_REF defaults to the merge base of HEAD with `main`, PAIRS to 10.
# The base is exported with `git archive` into a temporary directory,
# and the benchmark is built for the base and for the checkout (working
# tree, uncommitted changes included) with separate CARGO_TARGET_DIRs.
# Then PAIRS pairs of every BENCHMARK.json workload run at its
# `run_seconds`, alternating which side runs first, with workload seed
# 4242. Every run is printed, then the median and quartiles of each
# end-to-end metric per workload and side, and how many pairs the
# checkout won on that metric (ties count for neither side). A gain
# claim needs at least 10 pairs, a win in at least 9 of 10, and medians
# further apart than the base's quartile spread.
#
# Exit status 1 when, on any workload, a checkout median is worse than
# the base median by more than the metric's `bound` × base median, when
# the checkout's share of failed operations is higher than the base's,
# or when a run reports incorrect output or no result (a run that exits
# non-zero has its log tail printed and the comparison goes on). A
# metric whose quartile
# spread on either side exceeds its bound is reported as unresolved.
# Temporary files go under $TMPDIR.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
BASE_REF=${1:-$(git merge-base HEAD main)}
PAIRS=${2:-10}
BASE_COMMIT=$(git rev-parse --verify "$BASE_REF^{commit}")

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/base" "$WORK/runs"
git archive "$BASE_COMMIT" | tar -x -C "$WORK/base"

build() { # <source dir> <side>
  echo "bench_ab: building $2 ($1)" >&2
  CARGO_TARGET_DIR="$WORK/target-$2" cargo build --release --quiet --offline \
    --manifest-path "$1/perfbench/Cargo.toml"
}
build "$WORK/base" base
build "$ROOT" head

read -r SECONDS_PER_RUN WORKLOADS < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))
' BENCHMARK.json)

run() { # <side> <workload> <pair>
  local out="$WORK/runs/$2.$1.$3" status=0
  # Seed 4242 is the one the acceptance runs of a change use.
  "$WORK/target-$1/release/mimo_perfbench" --workload "$2" --seed 4242 \
    --seconds "$SECONDS_PER_RUN" > "$out.log" || status=$?
  if (( status )); then
    echo "bench_ab: $2 $1 pair $3 exited $status; log tail:" >&2
    tail -n 20 "$out.log" >&2
  fi
  # The result is the last stdout line; a run that failed early has none.
  if tail -n 1 "$out.log" | grep -q '^{'; then
    tail -n 1 "$out.log" > "$out.json"
  fi
}

echo "bench_ab: base $BASE_COMMIT vs checkout, $PAIRS pair(s), seed 4242, ${SECONDS_PER_RUN}s per run" >&2
for pair in $(seq 1 "$PAIRS"); do
  for workload in $WORKLOADS; do
    if (( pair % 2 )); then order="base head"; else order="head base"; fi
    for side in $order; do
      echo "bench_ab: pair $pair/$PAIRS $workload $side" >&2
      run "$side" "$workload" "$pair"
    done
  done
done

python3 - "$WORK/runs" "$PAIRS" BENCHMARK.json <<'EOF'
import json, os, sys

runs_dir, pairs, manifest = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
metrics = manifest["end_to_end"]

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

failed_gate = False
for w in manifest["workloads"]:
    name = w["name"]
    paths = {side: [f"{runs_dir}/{name}.{side}.{p}.json" for p in range(1, pairs + 1)]
             for side in ("base", "head")}
    missing = [side for side, ps in paths.items() if not all(os.path.exists(p) for p in ps)]
    loaded = {side: [json.load(open(p)) if os.path.exists(p) else None for p in ps]
              for side, ps in paths.items()}
    runs = {side: [r for r in rs if r is not None] for side, rs in loaded.items()}
    print(f"\n== {name} ==")
    print(f"{'metric':<22}{'side':<6}{'q1':>12}{'median':>12}{'q3':>12}   runs")
    for m in metrics:
        stats = {}
        for side in ("base", "head"):
            vals = [r["metrics"][m["name"]]["value"] for r in runs[side]]
            shown = " ".join("null" if v is None else f"{v:.6g}" for v in vals)
            vals = [v for v in vals if v is not None]
            stats[side] = quartiles(vals) if vals else None
            q = stats[side] or (float("nan"),) * 3
            print(f"{m['name']:<22}{side:<6}{q[0]:>12.6g}{q[1]:>12.6g}{q[2]:>12.6g}   {shown}")
        if not (stats["base"] and stats["head"]):
            continue
        base_med, head_med, bound = stats["base"][1], stats["head"][1], m["bound"]
        slack = bound * abs(base_med)
        worse = head_med > base_med + slack if m["better"] == "lower" else head_med < base_med - slack
        spread = max(q[2] - q[0] for q in stats.values())
        verdict = "REGRESSION" if worse else "ok"
        if spread > slack:
            verdict += " (unresolved: quartile spread exceeds the bound)"
        print(f"{'':<22}{'':<6}checkout vs base median {head_med - base_med:+.6g} {m['unit']}, bound ±{slack:.6g}: {verdict}")
        sign = 1 if m["better"] == "higher" else -1
        won = lost = compared = 0
        for b, h in zip(loaded["base"], loaded["head"]):
            bv = b["metrics"][m["name"]]["value"] if b else None
            hv = h["metrics"][m["name"]]["value"] if h else None
            if bv is None or hv is None:
                continue
            compared += 1
            won += sign * (hv - bv) > 0
            lost += sign * (hv - bv) < 0
        print(f"{'':<22}{'':<6}checkout won {won}/{compared} pairs, lost {lost}, tied {compared - won - lost}")
        failed_gate |= worse
    share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for side, rs in runs.items()}
    incorrect = [side for side, rs in runs.items() if not all(r["correct"] for r in rs)]
    print(f"failed share: base {share['base']:.6g}, checkout {share['head']:.6g}"
          + (f"; incorrect output on {', '.join(incorrect)}" if incorrect else "")
          + (f"; runs without a result on {', '.join(missing)}" if missing else ""))
    failed_gate |= share["head"] > share["base"] or bool(incorrect) or bool(missing)

print("\nbench_ab: " + ("FAIL" if failed_gate else "pass"))
sys.exit(1 if failed_gate else 0)
EOF
