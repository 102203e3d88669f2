#!/usr/bin/env bash
# Warm-cache smoke test for the compiled-artifact (FDBA) schedule cache.
#
# Runs the same campaign three times against one --schedule-cache
# directory (fresh checkpoints each time, so every slice recomputes) and
# requires:
#   1. the cold cached run's stdout is byte-identical to a cache-off
#      reference — enabling the cache never changes results,
#   2. the warm run's stdout is byte-identical to the cold run's,
#   3. the warm run, a fresh process, loaded the FDBA file the cold run
#      stored (disk hits >= 1, compilations 0 in the [cache] stderr
#      line) — the cross-process amortization is real, not vacuous,
#   4. a sabotaged run against the warm store, with every artifact load
#      corrupted and every artifact save failing through failpoints,
#      falls back to compiling from source and still prints the
#      reference stdout byte for byte: the cache may cost time, never
#      correctness.
#
# Usage: scripts/warm_cache_smoke.sh [path-to-fdbist_cli]
set -u

CLI="${1:-build/examples/fdbist_cli}"
DESIGN=lp
GEN=lfsrd
VECTORS=512

if [[ ! -x "$CLI" ]]; then
  echo "warm_cache_smoke: $CLI not found or not executable" >&2
  exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "warm_cache_smoke: FAIL — $*" >&2
  for log in "$workdir"/*.log; do
    [[ -f "$log" ]] || continue
    echo "---- $log ----" >&2
    cat "$log" >&2
  done
  exit 1
}

cache="$workdir/sched-cache"

echo "== reference: cache-off campaign =="
"$CLI" campaign $DESIGN $GEN $VECTORS --no-schedule-cache \
  --checkpoint "$workdir/ck-ref" >"$workdir/ref.txt" 2>"$workdir/ref.log" ||
  fail "reference campaign exited $?"
cat "$workdir/ref.txt"

echo "== cold run: empty cache directory =="
"$CLI" campaign $DESIGN $GEN $VECTORS --schedule-cache "$cache" \
  --checkpoint "$workdir/ck-cold" >"$workdir/cold.txt" 2>"$workdir/cold.log" ||
  fail "cold cached campaign exited $?"
diff -u "$workdir/ref.txt" "$workdir/cold.txt" ||
  fail "cold cached output differs from the cache-off reference"
ls "$cache"/fdba-*.fdba >/dev/null 2>&1 ||
  fail "cold run left no FDBA file in the cache directory"

echo "== warm run: same cache directory, fresh checkpoint =="
"$CLI" campaign $DESIGN $GEN $VECTORS --schedule-cache "$cache" \
  --checkpoint "$workdir/ck-warm" >"$workdir/warm.txt" 2>"$workdir/warm.log" ||
  fail "warm cached campaign exited $?"
diff -u "$workdir/cold.txt" "$workdir/warm.txt" ||
  fail "warm cached output differs from the cold run"

# The warm [cache] stderr line must show a disk hit and zero
# compilations — the warm run is a new process, so only the FDBA file
# can have supplied the artifact:
#   [cache] artifact hits mem M disk D, misses 0, ..., schedule compilations 0
cache_line=$(grep '^\[cache\]' "$workdir/warm.log") ||
  fail "warm run printed no [cache] stats line"
echo "$cache_line"
disk_hits=$(echo "$cache_line" | sed -E 's/.*disk ([0-9]+).*/\1/')
[[ "$disk_hits" -ge 1 ]] || fail "warm run reported no disk hit"
echo "$cache_line" | grep -q 'schedule compilations 0' ||
  fail "warm run still compiled a schedule"

echo "== sabotaged run: corrupt artifact loads, failing artifact saves =="
# Only corrupt/error actions: the run must survive the sabotage, not
# die at an artifact seam.
FDBIST_FAILPOINTS="artifact-load-corrupt=corrupt,artifact-save-error=error" \
  "$CLI" campaign $DESIGN $GEN $VECTORS --schedule-cache "$cache" \
  --checkpoint "$workdir/ck-sabotage" >"$workdir/sabotage.txt" \
  2>"$workdir/sabotage.log" ||
  fail "sabotaged cached campaign exited $?"
diff -u "$workdir/ref.txt" "$workdir/sabotage.txt" ||
  fail "sabotaged-cache output differs from the reference"
sabotage_line=$(grep '^\[cache\]' "$workdir/sabotage.log") ||
  fail "sabotaged run printed no [cache] stats line"
echo "$sabotage_line"
echo "$sabotage_line" | grep -q 'load failures 1,' ||
  fail "sabotaged run did not count the corrupt artifact load"
echo "$sabotage_line" | grep -q 'schedule compilations 1$' ||
  fail "sabotaged run did not fall back to one schedule compilation"

echo "warm_cache_smoke: PASS — byte-identical output cache-off/cold/warm" \
     "and under cache sabotage, warm disk hits $disk_hits"
