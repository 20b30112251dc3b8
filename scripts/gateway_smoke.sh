#!/usr/bin/env bash
# Gateway smoke test: build a synthetic 3-frame capture with the ctc CLI
# (authentic | forged | authentic, separated by idle gaps), stream it
# through `ctc monitor` on stdin, and assert on the JSONL events:
#
#   - exactly 3 frame events, in stream order;
#   - verdicts authentic / attack / authentic, the forgery accepted;
#   - the final stats line reports zero dropped samples;
#   - the process exits 3 (forgery detected).
#
# A second pass re-runs the same stream with telemetry on (metrics smoke):
#
#   - `--metrics-addr 127.0.0.1:0` binds, and `ctc obs dump --addr` scrapes
#     the canonical `ctc_*` metric names live, mid-run;
#   - `--trace-out` writes a journal covering every pipeline stage;
#   - the telemetry run still exits 3.
#
# A third pass serves the same capture to `ctc monitor --listen` over
# three concurrent TCP connections (multi-stream smoke):
#
#   - every event is `stream`-tagged and seq-ordered within its session,
#     bracketed by open/close markers with per-session tallies;
#   - a mid-run scrape sees `{stream="..."}`-labelled metrics alongside
#     the aggregates, plus the session lifecycle counters;
#   - the server drains via `--stop-after` and still exits 3.
#
# A fourth pass exercises the flight recorder (incident-forensics smoke):
#
#   - `--flight-out` on the forged stream dumps exactly one incident
#     snapshot on the accepted forgery, which `ctc obs report` renders;
#   - SIGUSR1 against a live `--listen` server (authentic traffic only)
#     dumps an on-demand snapshot, while `ctc obs top --count` and
#     `ctc obs dump --json` read the same live endpoint;
#   - the forgery snapshot is left at ./flight_incident.json for CI to
#     archive as an artifact.
#
# A fifth pass closes stdout early (broken-pipe smoke):
#
#   - `ctc listen | head -1` and `ctc decode` into a reader that is gone
#     each exit 7 (the sink code) with one stderr line and no panic.
#
# Run from the repo root after `cargo build --release -p ctc-cli`.
set -euo pipefail

CTC=${CTC:-target/release/ctc}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail() {
    echo "FAIL: $1" >&2
    echo "--- events ---" >&2
    cat "$workdir/events.jsonl" >&2
    echo "--- stats ---" >&2
    cat "$workdir/stats.jsonl" >&2
    exit 1
}

# One authentic frame, and its emulation as the ZigBee front-end sees it.
"$CTC" generate --payload 00000 --out "$workdir/zig.cf32" >/dev/null
"$CTC" emulate --input "$workdir/zig.cf32" --out - 2>/dev/null \
    | "$CTC" capture --input - --out "$workdir/forged.cf32" >/dev/null

# Idle gaps are zero-power samples: 4096 complex samples = 32768 bytes.
head -c 32768 /dev/zero > "$workdir/gap.cf32"

cat "$workdir/gap.cf32" "$workdir/zig.cf32" \
    "$workdir/gap.cf32" "$workdir/forged.cf32" \
    "$workdir/gap.cf32" "$workdir/zig.cf32" \
    "$workdir/gap.cf32" > "$workdir/stream.cf32"

status=0
"$CTC" monitor --input - --threshold 0.25 \
    < "$workdir/stream.cf32" \
    > "$workdir/events.jsonl" \
    2> "$workdir/stats.jsonl" || status=$?

[ "$status" -eq 3 ] || fail "expected exit code 3 (forgery), got $status"

frames=$(grep -c '"type":"frame"' "$workdir/events.jsonl" || true)
[ "$frames" -eq 3 ] || fail "expected 3 frame events, got $frames"

mapfile -t verdicts < <(grep '"type":"frame"' "$workdir/events.jsonl" \
    | sed 's/.*"verdict":"\([a-z]*\)".*/\1/')
expected=(authentic attack authentic)
for i in 0 1 2; do
    [ "${verdicts[$i]}" = "${expected[$i]}" ] \
        || fail "frame $i verdict ${verdicts[$i]}, expected ${expected[$i]}"
done

grep -q '"accepted_forgery":true' "$workdir/events.jsonl" \
    || fail "no accepted forgery flagged"

stats=$(grep '"type":"stats"' "$workdir/stats.jsonl" | tail -n 1)
[ -n "$stats" ] || fail "no stats line on stderr"
echo "$stats" | grep -q '"samples_dropped":0' \
    || fail "samples dropped under smoke load: $stats"
echo "$stats" | grep -q '"forgeries":1' \
    || fail "expected exactly 1 forgery in stats: $stats"

echo "gateway smoke OK: 3 frames, verdicts ${verdicts[*]}, 0 dropped, exit 3"

# --- metrics smoke: same stream, telemetry on, scraped while live -------
#
# A fifo keeps the monitor's stdin open after the capture is written, so
# the process (and its metrics endpoint) stays up until we close fd 3 —
# that is what lets the scrape observe a *running* gateway. Ingest hands
# each read of the pipe to the splitter as it arrives, so all three
# frames are classified while stdin is still open, at the default chunk
# size: the capture (~21k samples) never has to fill a chunk.
mkfifo "$workdir/stream.fifo"
mstatus=0
"$CTC" monitor --input - --threshold 0.25 \
    --metrics-addr 127.0.0.1:0 \
    --trace-out "$workdir/trace.jsonl" \
    < "$workdir/stream.fifo" \
    > "$workdir/events2.jsonl" \
    2> "$workdir/stats2.jsonl" &
monitor_pid=$!
exec 3> "$workdir/stream.fifo"
cat "$workdir/stream.cf32" >&3

# The monitor prints the bound address (port 0 = ephemeral) on stderr.
addr=
for _ in $(seq 100); do
    addr=$(sed -n 's#^metrics: serving http://\([^/]*\)/metrics$#\1#p' \
        "$workdir/stats2.jsonl" | head -n 1)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { exec 3>&-; fail "monitor never announced a metrics address"; }

# Scrape until the pipeline has classified the forged frame (retry: the
# workers race the scraper), then assert the canonical names are served.
metrics=
for _ in $(seq 100); do
    metrics=$("$CTC" obs dump --addr "$addr" || true)
    grep -q 'ctc_gateway_frames_total{verdict="attack"} 1' <<< "$metrics" && break
    sleep 0.1
done
exec 3>&-   # EOF on stdin: the monitor drains and exits
wait "$monitor_pid" || mstatus=$?

grep -q 'ctc_gateway_frames_total{verdict="attack"} 1' <<< "$metrics" \
    || fail "scrape never saw the forgery counted: $metrics"
for name in ctc_gateway_samples_total ctc_gateway_bursts_total \
    ctc_gateway_latency_us_bucket ctc_pool_hits_total ctc_queue_dropped_total; do
    grep -q "^$name" <<< "$metrics" \
        || fail "metric $name missing from the live scrape"
done
grep -q 'ctc_queue_dropped_total 0' <<< "$metrics" \
    || fail "queue drops under metrics-smoke load"

[ "$mstatus" -eq 3 ] || fail "telemetry run: expected exit code 3, got $mstatus"

# The trace log must hold the full stage chain for the 3 frames.
for stage in ingest queue decode classify emit; do
    n=$(grep -c "\"stage\":\"$stage\"" "$workdir/trace.jsonl" || true)
    [ "$n" -eq 3 ] || fail "expected 3 '$stage' stage events, got $n"
done

echo "metrics smoke OK: live scrape at $addr, trace log complete, exit 3"

# --- multi-stream smoke: three concurrent TCP sessions, one engine ------
#
# `--listen tcp://127.0.0.1:0` serves each connection as its own session.
# Two clients stream the capture and hang up; a third (fd 4) streams it
# and then holds the connection open, pinning the server live so the
# mid-run scrape can observe per-stream `{stream="..."}` metrics. Closing
# fd 4 EOFs the last session and `--stop-after 3` lets the server drain
# and exit — with code 3, since every session carried the forgery.
sstatus=0
"$CTC" monitor --listen tcp://127.0.0.1:0 --threshold 0.25 \
    --max-streams 4 --stop-after 3 \
    --metrics-addr 127.0.0.1:0 \
    > "$workdir/events3.jsonl" \
    2> "$workdir/stats3.jsonl" &
server_pid=$!

gw_addr=
for _ in $(seq 100); do
    gw_addr=$(sed -n 's#^listening tcp://\(.*\)$#\1#p' \
        "$workdir/stats3.jsonl" | head -n 1)
    [ -n "$gw_addr" ] && break
    sleep 0.1
done
[ -n "$gw_addr" ] || fail "server never announced its listen address"
gw_host=${gw_addr%:*}
gw_port=${gw_addr##*:}

maddr=
for _ in $(seq 100); do
    maddr=$(sed -n 's#^metrics: serving http://\([^/]*\)/metrics$#\1#p' \
        "$workdir/stats3.jsonl" | head -n 1)
    [ -n "$maddr" ] && break
    sleep 0.1
done
[ -n "$maddr" ] || fail "server never announced a metrics address"

exec 4> "/dev/tcp/$gw_host/$gw_port"
cat "$workdir/stream.cf32" >&4   # session stays open: server stays live
( cat "$workdir/stream.cf32" > "/dev/tcp/$gw_host/$gw_port" ) &
( cat "$workdir/stream.cf32" > "/dev/tcp/$gw_host/$gw_port" ) &

# Mid-run scrape: wait until all three sessions are open and the forgery
# count shows up under a per-stream label alongside the aggregate.
smetrics=
for _ in $(seq 100); do
    smetrics=$("$CTC" obs dump --addr "$maddr" || true)
    grep -q 'ctc_sessions_opened_total 3' <<< "$smetrics" \
        && grep -q 'stream="s' <<< "$smetrics" && break
    sleep 0.1
done
grep -q 'ctc_sessions_opened_total 3' <<< "$smetrics" \
    || fail "scrape never saw 3 sessions opened"
grep -q 'ctc_gateway_samples_total{stream="s' <<< "$smetrics" \
    || fail "no per-stream labelled samples counter in the live scrape"
grep -q '^ctc_gateway_samples_total [0-9]' <<< "$smetrics" \
    || fail "aggregate samples counter missing alongside the labelled ones"

exec 4>&-   # EOF on the held session: the server drains and exits
wait "$server_pid" || sstatus=$?
[ "$sstatus" -eq 3 ] || fail "multi-stream run: expected exit code 3, got $sstatus"

frames3=$(grep -c '"type":"frame"' "$workdir/events3.jsonl" || true)
[ "$frames3" -eq 9 ] || fail "expected 9 frame events across 3 sessions, got $frames3"

opens=$(grep -c '"event":"open"' "$workdir/events3.jsonl" || true)
closes=$(grep -c '"event":"close"' "$workdir/events3.jsonl" || true)
[ "$opens" -eq 3 ] || fail "expected 3 session open markers, got $opens"
[ "$closes" -eq 3 ] || fail "expected 3 session close markers, got $closes"

# Per-session discipline: every event is stream-tagged, and within one
# stream label the seq numbers are strictly ordered, open first, close
# last, with the close marker carrying the session's own tallies.
for s in s1 s2 s3; do
    lines=$(grep "\"stream\":\"$s\"" "$workdir/events3.jsonl" || true)
    [ -n "$lines" ] || fail "no events tagged stream=$s"
    seqs=$(sed -n 's/.*"seq":\([0-9]*\).*/\1/p' <<< "$lines")
    [ "$seqs" = "$(sort -n <<< "$seqs")" ] || fail "stream $s events out of seq order"
    head -n 1 <<< "$lines" | grep -q '"event":"open"' \
        || fail "stream $s: first event is not the open marker"
    tail -n 1 <<< "$lines" | grep -q '"event":"close"' \
        || fail "stream $s: last event is not the close marker"
    tail -n 1 <<< "$lines" | grep -q '"frames_decoded":3' \
        || fail "stream $s close marker: expected 3 frames decoded"
    tail -n 1 <<< "$lines" | grep -q '"forgeries":1' \
        || fail "stream $s close marker: expected 1 forgery"
done

grep -q 'gateway: 3 session(s) served, 0 refused, 0 errored' "$workdir/stats3.jsonl" \
    || fail "missing or wrong final session tally on stderr"

echo "multi-stream smoke OK: 3 sessions at $gw_addr, 9 frames, per-stream metrics live, exit 3"

# --- flight-recorder smoke: incident snapshots + live operator views ----
#
# Leg 1: the forged stream with --flight-out armed. The first accepted
# forgery must dump exactly one self-contained snapshot whose journal
# ends at the triggering verdict, and `ctc obs report` must render it.
fstatus=0
"$CTC" monitor --input - --threshold 0.25 \
    --flight-out "$workdir/incident.json" \
    < "$workdir/stream.cf32" \
    > "$workdir/events4.jsonl" \
    2> "$workdir/stats4.jsonl" || fstatus=$?
[ "$fstatus" -eq 3 ] || fail "flight run: expected exit code 3, got $fstatus"

[ -f "$workdir/incident.json" ] || fail "no incident snapshot written on forgery"
grep -q '^flight: incident snapshot (forgery) written to ' "$workdir/stats4.jsonl" \
    || fail "missing flight snapshot marker on stderr"
markers=$(grep -c '^flight: incident snapshot' "$workdir/stats4.jsonl" || true)
[ "$markers" -eq 1 ] || fail "expected exactly 1 snapshot dump, got $markers"
grep -q '"trigger":"forgery"' "$workdir/incident.json" \
    || fail "snapshot trigger is not the forgery"

report_out=$("$CTC" obs report "$workdir/incident.json") \
    || fail "obs report could not render the snapshot"
grep -q 'trigger=forgery' <<< "$report_out" || fail "report: missing trigger line"
grep -q 'accepted_forgery=true' <<< "$report_out" \
    || fail "report: journal does not show the accepted forgery"
grep '] verdict' <<< "$report_out" | tail -n 1 | grep -q 'accepted_forgery=true' \
    || fail "report: last journal verdict is not the accepted forgery"
grep -q '] burst' <<< "$report_out" || fail "report: no burst events preceding the verdict"
grep -q 'stage latency' <<< "$report_out" || fail "report: missing stage latency table"
grep -q 'registry delta' <<< "$report_out" || fail "report: missing registry delta"

# Keep the snapshot for the CI artifact upload.
cp "$workdir/incident.json" flight_incident.json

# Leg 2: SIGUSR1 against a live server. Authentic-only traffic (no
# forgery trigger) over a held-open TCP session; the signal must dump an
# on-demand snapshot while the live endpoint also serves `obs top` and
# `obs dump --json`.
cat "$workdir/gap.cf32" "$workdir/zig.cf32" "$workdir/gap.cf32" \
    > "$workdir/authentic.cf32"
ustatus=0
"$CTC" monitor --listen tcp://127.0.0.1:0 --threshold 0.25 \
    --stop-after 1 \
    --metrics-addr 127.0.0.1:0 \
    --flight-out "$workdir/incident_usr1.json" \
    > "$workdir/events5.jsonl" \
    2> "$workdir/stats5.jsonl" &
usr1_pid=$!

u_addr=
for _ in $(seq 100); do
    u_addr=$(sed -n 's#^listening tcp://\(.*\)$#\1#p' "$workdir/stats5.jsonl" | head -n 1)
    [ -n "$u_addr" ] && break
    sleep 0.1
done
[ -n "$u_addr" ] || fail "flight server never announced its listen address"
umaddr=
for _ in $(seq 100); do
    umaddr=$(sed -n 's#^metrics: serving http://\([^/]*\)/metrics$#\1#p' \
        "$workdir/stats5.jsonl" | head -n 1)
    [ -n "$umaddr" ] && break
    sleep 0.1
done
[ -n "$umaddr" ] || fail "flight server never announced a metrics address"

exec 5> "/dev/tcp/${u_addr%:*}/${u_addr##*:}"
cat "$workdir/authentic.cf32" >&5   # session held open: server stays live

# Wait until the frame is through, then ask for a snapshot by signal.
for _ in $(seq 100); do
    "$CTC" obs dump --addr "$umaddr" 2>/dev/null \
        | grep -q 'ctc_gateway_frames_total{verdict="authentic"} 1' && break
    sleep 0.1
done
kill -USR1 "$usr1_pid"
for _ in $(seq 100); do
    [ -f "$workdir/incident_usr1.json" ] && break
    sleep 0.1
done
[ -f "$workdir/incident_usr1.json" ] || fail "SIGUSR1 never produced a snapshot"
grep -q '"trigger":"sigusr1"' "$workdir/incident_usr1.json" \
    || fail "on-demand snapshot trigger is not sigusr1"
"$CTC" obs report "$workdir/incident_usr1.json" | grep -q 'trigger=sigusr1' \
    || fail "obs report could not render the sigusr1 snapshot"

# The live operator views read the same endpoint.
top_out=$("$CTC" obs top --addr "$umaddr" --count 2 --interval 200ms) \
    || fail "obs top failed against the live endpoint"
grep -q 'samples' <<< "$top_out" || fail "obs top: no throughput line"
grep -q '/s' <<< "$top_out" || fail "obs top: second frame has no rate column"
"$CTC" obs dump --addr "$umaddr" --json \
    | grep -q '"name":"ctc_gateway_samples_total"' \
    || fail "obs dump --json: missing samples counter"

exec 5>&-   # EOF: the held session drains, --stop-after 1 exits
wait "$usr1_pid" || ustatus=$?
[ "$ustatus" -eq 0 ] || fail "authentic-only flight run: expected exit 0, got $ustatus"

echo "flight smoke OK: forgery snapshot rendered, SIGUSR1 live dump, obs top/dump --json live"

# --- broken-pipe smoke: a reader that leaves early ----------------------
#
# `ctc listen` prints a line per burst. Over 2,048 bursts that is more
# than a pipe holds plus `head`'s first read, so once `head -1` has its
# line and exits, a later write fails with EPIPE whatever the timing.
# `ctc decode` prints four lines, which fit in a pipe: behind `head -1`
# they could all land before `head` exits, so its reader is gone before
# it writes instead (`true` exits while decode still waits for input).
"$CTC" generate --payload x --out "$workdir/short.cf32" >/dev/null
head -c 4096 /dev/zero > "$workdir/gap512.cf32"
cat "$workdir/gap512.cf32" "$workdir/short.cf32" > "$workdir/many.cf32"
for _ in $(seq 11); do
    cat "$workdir/many.cf32" "$workdir/many.cf32" > "$workdir/many2.cf32"
    mv "$workdir/many2.cf32" "$workdir/many.cf32"
done

broken_pipe() {
    local name=$1 status=$2 err=$3
    [ "$status" -eq 7 ] || fail "$name into a closed pipe: expected exit 7, got $status: $(cat "$err")"
    if grep -qiE 'panicked|backtrace' "$err"; then
        fail "$name into a closed pipe panicked: $(cat "$err")"
    fi
    [ "$(wc -l < "$err")" -eq 1 ] || fail "$name into a closed pipe: expected one stderr line: $(cat "$err")"
}

set +e
"$CTC" listen --input "$workdir/many.cf32" 2> "$workdir/listen.err" | head -1 > /dev/null
listen_status=${PIPESTATUS[0]}
{ sleep 0.5; cat "$workdir/zig.cf32"; } \
    | "$CTC" decode --input - 2> "$workdir/decode.err" | true
decode_status=${PIPESTATUS[1]}
set -e
rm -f "$workdir/many.cf32"
broken_pipe "ctc listen" "$listen_status" "$workdir/listen.err"
broken_pipe "ctc decode" "$decode_status" "$workdir/decode.err"

echo "broken-pipe smoke OK: listen and decode exit 7 with one stderr line, no panic"
