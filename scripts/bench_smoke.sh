#!/usr/bin/env bash
# Release-mode bench smoke: run the gateway bench once and render the
# results as JSON, optionally gating against a committed baseline.
#
# Usage:
#   ./scripts/bench_smoke.sh [OUT.json] [--scalar] [--check BASELINE.json]
#
#   OUT.json              where to write this run's results
#                         (default: BENCH_<short-sha>.json)
#   --scalar              bench the scalar fallback (--no-default-features):
#                         the lane kernels compile without the AVX2+FMA
#                         dispatch, measuring the portable code path
#   --check BASELINE.json fail (exit 1) when any bench's msamples_per_sec
#                         drops more than ${BENCH_GATE_PCT}% (default 12)
#                         below the baseline's
#
# When GITHUB_STEP_SUMMARY is set (GitHub Actions), --check also appends a
# one-line old-vs-new Msamples/s delta per bench to the job summary.
#
# Refreshing the committed baseline after an intentional perf change is one
# command — run it on a quiet machine and commit the result:
#
#   ./scripts/bench_smoke.sh BENCH_baseline.json
#
# Both flavors run with the flight recorder attached at its default ring
# capacity, so the gate below prices in the recorder's hot-path
# journaling; --scalar changes only the lane kernels.
#
# The vendored criterion stub prints one line per bench:
#   <name>: <ns> ns/iter  (<rate> M/s)
# which this script turns into a JSON object keyed by bench name.
set -euo pipefail
cd "$(dirname "$0")/.."

# Locale-proof number formatting/parsing: decimal points, never commas.
export LC_ALL=C

# Allowed drop below baseline, in percent. The SIMD port roughly doubled
# the baseline, so the same relative margin now gates at a far higher
# absolute floor; 12% keeps ~2 sigma of headroom over the observed ±10%
# shared-runner timing noise.
gate_pct="${BENCH_GATE_PCT:-12}"

out=""
baseline=""
cargo_flags=()
flavor="simd"
while [ $# -gt 0 ]; do
  case "$1" in
    --check)
      baseline="${2:?--check needs a baseline file}"
      shift 2
      ;;
    --scalar)
      cargo_flags+=(--no-default-features)
      flavor="scalar"
      shift
      ;;
    *)
      out="$1"
      shift
      ;;
  esac
done
[ -n "$out" ] || out="BENCH_$(git rev-parse --short HEAD 2>/dev/null || echo local).json"

# Keep stderr attached to the terminal: a compile error or bench panic must
# show up in the CI log, so only stdout is captured and filtered.
bench_stdout="$(cargo bench -p ctc-bench "${cargo_flags[@]+"${cargo_flags[@]}"}" --bench gateway)"
raw="$(grep 'ns/iter' <<<"$bench_stdout" || true)"
test -n "$raw" || { echo "no bench output captured" >&2; exit 1; }

{
  echo '{'
  echo '  "bench": "gateway",'
  printf '  "features": "%s",\n' "$flavor"
  echo '  "results": {'
  first=1
  while IFS= read -r line; do
    name="${line%%:*}"
    ns="$(echo "$line" | sed -n 's/.*: *\([0-9.]*\) ns\/iter.*/\1/p')"
    rate="$(echo "$line" | sed -n 's/.*(\([0-9.]*\) M\/s).*/\1/p')"
    [ "$first" -eq 1 ] && first=0 || echo ','
    printf '    "%s": {"ns_per_iter": %s, "msamples_per_sec": %s}' \
      "$name" "${ns:-0}" "${rate:-0}"
  done <<< "$raw"
  echo ''
  echo '  }'
  echo '}'
} > "$out"

echo "wrote $out"
cat "$out"

[ -n "$baseline" ] || exit 0

# --check: every baseline bench must still run within $gate_pct% of its
# recorded throughput. New benches (in $out but not the baseline) pass
# silently; a bench that disappeared is a failure.
test -f "$baseline" || { echo "baseline $baseline not found" >&2; exit 1; }

# "name rate" pairs from one of our result files.
rates() {
  sed -n 's/^ *"\([^"]*\)": {"ns_per_iter": [0-9.]*, "msamples_per_sec": \([0-9.]*\)}.*$/\1 \2/p' "$1"
}

# One-line old-vs-new delta, mirrored into the GitHub job summary when
# running under Actions.
summarize() {
  echo "$1"
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    echo "$1" >> "$GITHUB_STEP_SUMMARY"
  fi
}

fail=0
while read -r name base_rate; do
  new_rate="$(rates "$out" | awk -v n="$name" '$1 == n { print $2 }')"
  if [ -z "$new_rate" ]; then
    echo "FAIL $name: present in $baseline but missing from this run" >&2
    fail=1
    continue
  fi
  delta="$(awk -v new="$new_rate" -v base="$base_rate" \
    'BEGIN { printf "%+.1f%%", (new - base) / base * 100 }')"
  if awk -v new="$new_rate" -v base="$base_rate" -v pct="$gate_pct" \
      'BEGIN { exit !(new < (1 - pct / 100) * base) }'; then
    summarize "FAIL $name ($flavor): ${base_rate} -> ${new_rate} Msamples/s ($delta, >${gate_pct}% below baseline)"
    fail=1
  else
    summarize "ok   $name ($flavor): ${base_rate} -> ${new_rate} Msamples/s ($delta)"
  fi
done < <(rates "$baseline")

if [ "$fail" -ne 0 ]; then
  echo "bench regression gate failed against $baseline" >&2
  echo "(intentional? refresh with: ./scripts/bench_smoke.sh $baseline && git add $baseline)" >&2
  exit 1
fi
echo "bench regression gate passed against $baseline"
