#!/usr/bin/env bash
# Tier-1 domain matrix: the full test suite must be green at
# CKPT_DOMAINS = 1 (every region inline), 2 and 4 (the persistent pool)
# so a scheduler regression cannot land silently.  Extra arguments are
# passed through to `dune runtest` (e.g. `test/run_matrix.sh --display
# quiet`).
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for domains in 1 2 4; do
  echo "== dune runtest (CKPT_DOMAINS=$domains) =="
  if ! CKPT_DOMAINS=$domains dune runtest --force "$@"; then
    echo "FAIL: test suite is red under CKPT_DOMAINS=$domains" >&2
    status=1
  fi
done

# -- kill-and-resume smoke test ----------------------------------------------
# Run the small sweep-smoke grid against a checkpoint store, SIGKILL it
# partway through, resume it to completion, and require the resumed
# tables to be byte-identical to an uninterrupted run's.  A third run
# must skip every unit (nothing left to compute).
echo "== sweep kill-and-resume smoke =="
dune build bin/ckpt.exe
ckpt=_build/default/bin/ckpt.exe
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
export CKPT_TRACES=48 CKPT_SWEEP_STRIPE=4

echo "-- reference (uninterrupted) run"
CKPT_RESULTS_DIR="$smoke/ref" \
  "$ckpt" sweep --resume "$smoke/ref_store" sweep-smoke > "$smoke/ref.log"

echo "-- interrupted run (SIGKILL mid-sweep)"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --resume "$smoke/out_store" sweep-smoke > "$smoke/killed.log" 2>&1 &
victim=$!
sleep 1.5
kill -KILL "$victim" 2>/dev/null || true  # may have already finished
wait "$victim" 2>/dev/null || true

echo "-- resumed run"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --resume "$smoke/out_store" sweep-smoke > "$smoke/resumed.log"

# Compare only the CSV artifacts: sidecars record timestamps and the
# exact command line, which legitimately differ between runs.
for ref_csv in "$smoke"/ref/*.csv; do
  out_csv="$smoke/out/$(basename "$ref_csv")"
  if ! cmp -s "$ref_csv" "$out_csv"; then
    echo "FAIL: resumed $(basename "$ref_csv") differs from the uninterrupted run" >&2
    status=1
  fi
done

echo "-- all-skip run"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --resume "$smoke/out_store" sweep-smoke > "$smoke/skip.log"
if ! grep -q ", 0 computed" "$smoke/skip.log"; then
  echo "FAIL: third sweep run recomputed units it should have skipped" >&2
  tail -3 "$smoke/skip.log" >&2
  status=1
fi

# -- multi-process worker smoke ------------------------------------------------
# A 2-worker sweep must produce byte-identical CSVs; a SIGKILLed worker
# must neither wedge the sweep (its claims are reaped) nor corrupt the
# store (partial writes fail the checksum and are recomputed).  An
# uninterrupted 4-worker sweep must match the serial bytes too.
echo "== sweep worker-mode smoke =="

echo "-- 2-worker run, one worker SIGKILLed mid-sweep"
CKPT_RESULTS_DIR="$smoke/w2" \
  "$ckpt" sweep --resume "$smoke/w2_store" --workers 2 sweep-smoke \
  > "$smoke/w2.log" 2>&1 &
parent=$!
sleep 1.0
# The workers are re-exec'd children of the sweep parent; kill one.
worker=$(pgrep -P "$parent" | head -1 || true)
if [ -n "$worker" ]; then
  kill -KILL "$worker" 2>/dev/null || true
fi
wait "$parent" 2>/dev/null || true

echo "-- resume with 2 workers"
CKPT_RESULTS_DIR="$smoke/w2" \
  "$ckpt" sweep --resume "$smoke/w2_store" --workers 2 sweep-smoke \
  > "$smoke/w2_resume.log"

leftover=$(find "$smoke/w2_store" -name '*.claim' | wc -l)
if [ "$leftover" -ne 0 ]; then
  echo "FAIL: $leftover stale claim(s) left after the resumed worker sweep" >&2
  status=1
fi

for ref_csv in "$smoke"/ref/*.csv; do
  w2_csv="$smoke/w2/$(basename "$ref_csv")"
  if ! cmp -s "$ref_csv" "$w2_csv"; then
    echo "FAIL: 2-worker $(basename "$ref_csv") differs from the serial run" >&2
    status=1
  fi
done

echo "-- uninterrupted 4-worker run"
CKPT_RESULTS_DIR="$smoke/w4" \
  "$ckpt" sweep --resume "$smoke/w4_store" --workers 4 sweep-smoke > "$smoke/w4.log"

for ref_csv in "$smoke"/ref/*.csv; do
  w4_csv="$smoke/w4/$(basename "$ref_csv")"
  if ! cmp -s "$ref_csv" "$w4_csv"; then
    echo "FAIL: 4-worker $(basename "$ref_csv") differs from the serial run" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "sweep smoke: resumed tables byte-identical; completed units skipped"
  echo "worker smoke: 2-worker sweep survived SIGKILL, and it and a 4-worker sweep match serial bytes"
  echo "domain matrix: green at CKPT_DOMAINS = 1, 2 and 4"
fi
exit "$status"
