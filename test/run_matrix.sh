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
# Run the small sweep-smoke grid (table units), the spares study and
# the energy study (vectors units; energy steps 9 periodic policies per
# stripe) against a checkpoint store, SIGKILL it partway through,
# resume it to completion, and require the resumed CSVs and printed
# tables to be byte-identical to an uninterrupted run's.  A third run
# must skip every unit (nothing left to compute).
echo "== sweep kill-and-resume smoke =="
dune build bin/ckpt.exe
ckpt=_build/default/bin/ckpt.exe
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
export CKPT_SWEEP_STRIPE=4
ids="sweep-smoke spares energy"

# The printed tables of a sweep log, without its progress and store
# statistics lines.
tables() { grep -v '^sweep' "$1"; }

echo "-- reference (uninterrupted) run"
CKPT_RESULTS_DIR="$smoke/ref" \
  "$ckpt" sweep --traces 48 --resume "$smoke/ref_store" $ids > "$smoke/ref.log"

echo "-- interrupted run (SIGKILL mid-sweep)"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --traces 48 --resume "$smoke/out_store" $ids > "$smoke/killed.log" 2>&1 &
victim=$!
sleep 1.5
kill -KILL "$victim" 2>/dev/null || true  # may have already finished
wait "$victim" 2>/dev/null || true

echo "-- resumed run"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --traces 48 --resume "$smoke/out_store" $ids > "$smoke/resumed.log"

# Compare only the CSV artifacts: sidecars record timestamps and the
# exact command line, which legitimately differ between runs.
for ref_csv in "$smoke"/ref/*.csv; do
  out_csv="$smoke/out/$(basename "$ref_csv")"
  if ! cmp -s "$ref_csv" "$out_csv"; then
    echo "FAIL: resumed $(basename "$ref_csv") differs from the uninterrupted run" >&2
    status=1
  fi
done
if ! cmp -s <(tables "$smoke/ref.log") <(tables "$smoke/resumed.log"); then
  echo "FAIL: resumed printed tables differ from the uninterrupted run" >&2
  status=1
fi

echo "-- all-skip run"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --traces 48 --resume "$smoke/out_store" $ids > "$smoke/skip.log"
if ! grep -q ", 0 computed" "$smoke/skip.log"; then
  echo "FAIL: third sweep run recomputed units it should have skipped" >&2
  tail -3 "$smoke/skip.log" >&2
  status=1
fi

# -- multi-process worker smoke ------------------------------------------------
# The same three studies, so table and vectors units both go through
# claims and busy-unit placeholders.  A 2-worker sweep must produce
# byte-identical CSVs; a SIGKILLed worker must neither wedge the sweep
# (its claims are reaped) nor corrupt the store (unit writes are atomic,
# and a unit failing its header or payload check is recomputed).  An
# uninterrupted 4-worker sweep must match the serial bytes too.
echo "== sweep worker-mode smoke =="

echo "-- 2-worker run, one worker SIGKILLed mid-sweep"
CKPT_RESULTS_DIR="$smoke/w2" \
  "$ckpt" sweep --traces 48 --resume "$smoke/w2_store" --workers 2 $ids \
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
  "$ckpt" sweep --traces 48 --resume "$smoke/w2_store" --workers 2 $ids \
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
if ! cmp -s <(tables "$smoke/ref.log") <(tables "$smoke/w2_resume.log"); then
  echo "FAIL: 2-worker printed tables differ from the serial run" >&2
  status=1
fi

echo "-- uninterrupted 4-worker run"
CKPT_RESULTS_DIR="$smoke/w4" \
  "$ckpt" sweep --traces 48 --resume "$smoke/w4_store" --workers 4 $ids > "$smoke/w4.log"

for ref_csv in "$smoke"/ref/*.csv; do
  w4_csv="$smoke/w4/$(basename "$ref_csv")"
  if ! cmp -s "$ref_csv" "$w4_csv"; then
    echo "FAIL: 4-worker $(basename "$ref_csv") differs from the serial run" >&2
    status=1
  fi
done
if ! cmp -s <(tables "$smoke/ref.log") <(tables "$smoke/w4.log"); then
  echo "FAIL: 4-worker printed tables differ from the serial run" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "sweep smoke: resumed tables byte-identical; completed units skipped"
  echo "worker smoke: 2-worker sweep survived SIGKILL, and it and a 4-worker sweep match serial bytes"
  echo "domain matrix: green at CKPT_DOMAINS = 1, 2 and 4"
fi
exit "$status"
