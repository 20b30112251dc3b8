#!/usr/bin/env bash
# ROC smoke test: a seeded mini ROC sweep through `ctc detector eval`,
# gated so the feature ensemble must not regress below the single-feature
# DE² baseline:
#
#   - `ctc detector train` fits a logistic model over the synthetic
#     SNR sweep and writes a versioned model file, which must parse back
#     (`ctc monitor --detector model:<path>` is exercised by
#     `monitor_classifies_with_every_detector_mode` in
#     crates/cli/tests/detect_cli.rs);
#   - `ctc detector eval --gate` reruns the sweep with a held-out split,
#     trains both ensembles, and exits 13 when the best ensemble AUC
#     drops below the DE² baseline AUC — that exit fails this script;
#   - the JSON report (AUC / EER / TPR@FPR=1% for baseline, logistic and
#     stumps, plus per-feature AUCs) lands in $REPORT (default: the
#     committed roc_report.json). CI writes it to a temporary file,
#     compares it byte for byte with the committed report and archives
#     it as an artifact.
#
# Run from the repo root after `cargo build --release -p ctc-cli`.
# Everything is seeded: two runs of this script produce identical
# reports.
set -euo pipefail

CTC=${CTC:-target/release/ctc}
REPORT=${REPORT:-roc_report.json}
PER_CLASS=${PER_CLASS:-16}
SEED=${SEED:-51077}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail() {
    echo "FAIL: $1" >&2
    echo "--- report ---" >&2
    cat "$REPORT" 2>/dev/null >&2 || true
    exit 1
}

"$CTC" detector train --out "$workdir/det.model" \
    --per-class "$PER_CLASS" --seed "$SEED" \
    || fail "detector train exited $?"
head -n 1 "$workdir/det.model" | grep -q '^ctc-detector-model v1' \
    || fail "model file missing version header"

status=0
"$CTC" detector eval --gate --report "$REPORT" \
    --per-class "$PER_CLASS" --seed "$SEED" \
    > "$workdir/eval.stdout" || status=$?

[ "$status" -eq 0 ] || fail "detector eval exited $status (13 = ensemble AUC below DE² baseline)"
[ -s "$REPORT" ] || fail "no ROC report written"

grep -q '"type":"detector_eval"' "$REPORT" || fail "report is not a detector_eval report"
grep -q '"gate_pass":true' "$REPORT" || fail "ensemble gate did not pass"
grep -q '"baseline":' "$REPORT" || fail "report missing DE² baseline ROC"
grep -q '"logistic":' "$REPORT" || fail "report missing logistic ROC"
grep -q '"stumps":' "$REPORT" || fail "report missing stump-ensemble ROC"
grep -q '"feature_auc":' "$REPORT" || fail "report missing per-feature AUCs"

ensemble=$(sed -n 's/.*"ensemble_auc":\([0-9.eE+-]*\).*/\1/p' "$REPORT")
echo "roc smoke OK: seed $SEED, $PER_CLASS per class per SNR — ensemble AUC $ensemble"
