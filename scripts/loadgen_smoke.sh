#!/usr/bin/env bash
# Loadgen smoke test: soak a live `ctc monitor --listen` gateway with a
# small mixed fleet and assert the SLO verdict end to end:
#
#   - the monitor announces its listen and metrics addresses on stderr
#     (`listening <addr>` and `metrics: serving http://<addr>/metrics`),
#     both bound to ephemeral ports;
#   - `ctc loadgen --soak` drives 8 concurrent TCP streams of mixed
#     authentic / forged / noise bursts for ~10 s, scrapes the monitor's
#     metrics, and exits 0 with `"pass":true` in the JSON capacity
#     report — a breached SLO (exit 12) fails this script;
#   - the report's ground truth and scraped observations line up: every
#     generated burst was ingested and every forgery was caught.
#
# Run from the repo root after `cargo build --release -p ctc-cli`.
# The JSON capacity report lands in $REPORT (default: loadgen_report.json)
# so CI can archive it as an artifact.
set -euo pipefail

CTC=${CTC:-target/release/ctc}
REPORT=${REPORT:-loadgen_report.json}
STREAMS=${STREAMS:-8}
SOAK=${SOAK:-10s}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail() {
    echo "FAIL: $1" >&2
    echo "--- monitor stderr ---" >&2
    cat "$workdir/monitor.stderr" >&2
    echo "--- loadgen stderr ---" >&2
    cat "$workdir/loadgen.stderr" 2>/dev/null >&2 || true
    echo "--- report ---" >&2
    cat "$REPORT" 2>/dev/null >&2 || true
    exit 1
}

# The gateway under load, all ports ephemeral. No --stop-after: the
# soak's final scrape (and its drain-wait) needs the metrics endpoint
# alive after the last session closes, exactly like a long-running
# production monitor — the script kills it once loadgen detaches.
"$CTC" monitor --listen tcp://127.0.0.1:0 --threshold 0.25 \
    --max-streams $((STREAMS * 2)) \
    --metrics-addr 127.0.0.1:0 \
    > "$workdir/events.jsonl" \
    2> "$workdir/monitor.stderr" &
monitor_pid=$!

# The single parseable `listening <addr>` line (port 0 = ephemeral).
gw=
for _ in $(seq 100); do
    gw=$(sed -n 's#^listening \(.*\)$#\1#p' "$workdir/monitor.stderr" | head -n 1)
    [ -n "$gw" ] && break
    sleep 0.1
done
[ -n "$gw" ] || fail "monitor never announced its listen address"

maddr=
for _ in $(seq 100); do
    maddr=$(sed -n 's#^metrics: serving http://\([^/]*\)/metrics$#\1#p' \
        "$workdir/monitor.stderr" | head -n 1)
    [ -n "$maddr" ] && break
    sleep 0.1
done
[ -n "$maddr" ] || fail "monitor never announced a metrics address"

status=0
"$CTC" loadgen --connect "$gw" --streams "$STREAMS" \
    --soak "$SOAK" --metrics-addr "$maddr" \
    --report "$REPORT" \
    > "$workdir/loadgen.stdout" \
    2> "$workdir/loadgen.stderr" || status=$?

kill "$monitor_pid" 2>/dev/null || true
wait "$monitor_pid" 2>/dev/null || true

[ "$status" -eq 0 ] || fail "loadgen exited $status (12 = SLO breach)"
[ -s "$REPORT" ] || fail "no capacity report written"

grep -q '"mode":"soak"' "$REPORT" || fail "report is not a soak report"
grep -q '"pass":true' "$REPORT" || fail "capacity report did not pass"
grep -q '"sustained":true' "$REPORT" \
    || fail "capacity point not marked sustained"
grep -Eq "\"streams\":$STREAMS\b" "$REPORT" \
    || fail "report does not cover $STREAMS streams"
grep -q '"stream_errors":0' "$REPORT" || fail "streams failed mid-soak"

# Every SLO line on stderr must be ok or skip — FAIL lines mean the
# verdict above was computed from different checks than reported.
if grep -q '^loadgen: slo FAIL' "$workdir/loadgen.stderr"; then
    fail "SLO FAIL line despite pass verdict"
fi

summary=$(sed -n 's/.*"capacity":{\([^}]*\)}.*/\1/p' "$REPORT")
echo "loadgen smoke OK: $STREAMS streams soaked ${SOAK} at $gw — $summary"
