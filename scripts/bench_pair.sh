#!/usr/bin/env bash
# Paired benchmark: the working tree against a base commit, run the way
# every performance claim in this repository is measured
# (gwbench/README.md).
#
# Usage:
#   scripts/bench_pair.sh BASE [PAIRS] [SECONDS]
#
#   BASE     the commit to compare against (a sha, a branch, HEAD)
#   PAIRS    pairs of runs per workload (default 10)
#   SECONDS  length of each measured run (default: BENCHMARK.json's
#            run_seconds)
#
# BASE is checked out as a detached `git worktree` under $TMPDIR, and
# each side's gwbench is built from its own tree with `--offline
# --locked` into its own target directory there; the working tree is
# only read. For each workload in BENCHMARK.json the script then runs
# BENCHMARK.json's command PAIRS times per side, alternating: the base
# runs first on odd pairs, and the pair number is the seed. It stops at
# the first run whose last line is not `correct:true` with `failed:0`.
# Last, for each workload and end-to-end metric, it prints both sides'
# medians with their quartiles, the ratio of the medians (working tree
# over base), and in how many pairs the working tree read lower.
#
# Every run's output is kept under the printed log directory; the
# worktree and both target directories are removed on exit. Needs git,
# cargo and python3. Not run in CI: ten pairs of 20-s runs on two
# workloads take about twenty minutes.
set -euo pipefail
export LC_ALL=C

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/bench_pair.sh BASE [PAIRS] [SECONDS]" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
# Reads BENCHMARK.json as `b` and runs the Python statement given.
bench() {
    python3 -c "import json, sys; b = json.load(open(sys.argv[1])); $1" "$root/BENCHMARK.json"
}
pairs=${2:-10}
seconds=${3:-$(bench 'print(b["run_seconds"])')}
for n in "$pairs" "$seconds"; do
    case "$n" in '' | *[!0-9]* | 0) echo "PAIRS and SECONDS must be positive whole numbers" >&2; exit 2 ;; esac
done
workloads=$(bench 'print(" ".join(w["name"] for w in b["workloads"]))')
manifest=$(bench 'c = b["command"]; print(c[c.index("--manifest-path") + 1])')
mapfile -t command < <(bench 'print("\n".join(b["command"]))')

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
logs="$work/logs"
mkdir -p "$logs"
cleanup() {
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$work/base" "$work/target-base" "$work/target-head"
    echo "run logs: $logs" >&2
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/base" "$base_rev"
declare -A tree=([base]="$work/base" [head]="$root")
for side in base head; do
    echo "building $side gwbench ..." >&2
    (cd "${tree[$side]}" &&
        CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --locked \
            --quiet --manifest-path "$manifest")
done

# One run: BENCHMARK.json's command in the side's tree, its own target
# directory, its output kept; the last line must be a correct run.
run() {
    local side=$1 workload=$2 pair=$3
    local log="$logs/$workload.$side.$pair.log"
    echo "$workload pair $pair: $side" >&2
    (cd "${tree[$side]}" &&
        CARGO_TARGET_DIR="$work/target-$side" "${command[@]}" \
            --workload "$workload" --seed "$pair" --seconds "$seconds") >"$log" 2>&1 || true
    local last
    last=$(tail -n 1 "$log")
    case "$last" in
    '{"correct":true,'*'"failed":0,'*) printf '%s\n' "$last" >"$logs/$workload.$side.$pair.json" ;;
    *)
        echo "FAIL: $workload pair $pair ($side) did not end correct:true with failed:0:" >&2
        tail -n 20 "$log" >&2
        exit 1
        ;;
    esac
}

for workload in $workloads; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
        for side in $order; do
            run "$side" "$workload" "$pair"
        done
    done
done

echo "base $base_rev vs working tree of $(git -C "$root" rev-parse --short HEAD); $pairs pairs of ${seconds}-s runs"
python3 - "$root/BENCHMARK.json" "$logs" "$pairs" <<'EOF'
import json, sys

bench, logs, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])

def quantile(values, q):
    """Linear-interpolated quantile, as gwbench computes its own."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)

def summary(values):
    return f"{quantile(values, 0.5):.6g} ({quantile(values, 0.25):.6g}-{quantile(values, 0.75):.6g})"

for w in bench["workloads"]:
    name = w["name"]
    print(f"\n{name}: median (Q1-Q3), base -> working tree")
    for metric in bench["end_to_end"]:
        side = {s: [json.load(open(f"{logs}/{name}.{s}.{p}.json"))["metrics"][metric["name"]]["value"]
                    for p in range(1, pairs + 1)] for s in ("base", "head")}
        lower = sum(h < b for b, h in zip(side["base"], side["head"]))
        base_median = quantile(side["base"], 0.5)
        ratio = quantile(side["head"], 0.5) / base_median if base_median else float("nan")
        print(f"  {metric['name']:<24} {summary(side['base'])} -> {summary(side['head'])} {metric['unit']}"
              f"  x{ratio:.3f}, lower in {lower} of {pairs} pairs")
EOF
