#!/usr/bin/env bash
# Kill-and-resume smoke test for checkpointed fault-sim campaigns.
#
# Launches `fdbist_cli campaign` on one thread, SIGKILLs it mid-flight,
# resumes from whatever checkpoint it left, and verifies the resumed
# coverage line is byte-identical to an uninterrupted `faultsim` run of
# the same (design, generator, vectors) cell. Exercises the
# crash-consistency path no unit test can: a real process killed around
# its checkpoint write. It prints which case occurred: killed with no
# checkpoint, killed after one, or finished before the kill. Then cuts
# a campaign short with a deadline and requires its checkpoint to hold
# the verdicts it reached: the resume must report them as already
# finalized and still match the reference. Finally truncates the
# checkpoint to half its size and requires the resume to fail as the
# CLI reports a corrupt checkpoint: exit status 1, "corrupt-checkpoint"
# on stderr, nothing on stdout.
#
# Usage: scripts/kill_resume_smoke.sh [path-to-fdbist_cli]
set -u

CLI="${1:-build/examples/fdbist_cli}"
# LP + Ramp at 8192 vectors outlives the kill at one thread: its
# campaign takes about 0.9 s on a 4-vCPU AVX-512 host in a Release
# build, and a sanitized build is slower still.
DESIGN=lp
GEN=ramp
VECTORS=8192
KILL_AFTER="${KILL_AFTER:-0.4}" # seconds before SIGKILL
DEADLINE=0.2                     # the deadline leg's --deadline-s

if [[ ! -x "$CLI" ]]; then
  echo "kill_resume_smoke: $CLI not found or not executable" >&2
  exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
ckpt="$workdir/campaign.ckpt"

echo "== reference: uninterrupted faultsim =="
"$CLI" faultsim $DESIGN $GEN $VECTORS > "$workdir/reference.txt"
ref_status=$?
if [[ $ref_status -ne 0 ]]; then
  echo "kill_resume_smoke: reference faultsim failed ($ref_status)" >&2
  exit 1
fi
cat "$workdir/reference.txt"

# A campaign runs every fault it has no verdict for in one
# fault-simulation call and saves its checkpoint when that call returns,
# so a kill that lands mid-run leaves no checkpoint and the resume
# starts fresh.
run_campaign() {
  "$CLI" campaign $DESIGN $GEN $VECTORS --checkpoint "$ckpt" "$@"
}

# resume_matches NAME: resume into $workdir/NAME.{txt,err}; fail unless
# it exits 0 with stdout byte-identical to the reference.
resume_matches() {
  run_campaign --resume > "$workdir/$1.txt" 2> "$workdir/$1.err"
  local status=$?
  cat "$workdir/$1.err" "$workdir/$1.txt"
  if [[ $status -ne 0 ]]; then
    echo "kill_resume_smoke: $1 failed ($status)" >&2
    exit 1
  fi
  if ! diff -u "$workdir/reference.txt" "$workdir/$1.txt"; then
    echo "kill_resume_smoke: FAIL — $1 differs from the uninterrupted" \
         "reference" >&2
    exit 1
  fi
}

echo "== run 1: campaign, SIGKILL after ${KILL_AFTER}s =="
# Launched directly (not through run_campaign) so $! is the CLI process
# itself, not a wrapping subshell — killing only the subshell would
# leave an orphaned campaign racing run 2 for the checkpoint tmp file.
"$CLI" --threads 1 campaign $DESIGN $GEN $VECTORS --checkpoint "$ckpt" \
  > "$workdir/first.txt" 2>&1 &
pid=$!
sleep "$KILL_AFTER"
kill -KILL "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
first_status=$?
echo "first run exit status: $first_status"

# 137 = 128 + SIGKILL: the kill landed before the campaign exited.
if [[ $first_status -ne 137 ]]; then
  echo "case: finished before the kill — resume restores every fault"
elif [[ -f "$ckpt" ]]; then
  echo "case: killed after the checkpoint was written — resume restores it"
else
  # Killed before the checkpoint write: resume is then a fresh start,
  # which the resume run below must handle identically.
  echo "case: killed with no checkpoint — resume starts fresh"
fi

echo "== run 2: resume =="
resume_matches resume

echo "== run 3: campaign cut by a deadline, then resume =="
# A call whose deadline passes before its first batch finishes reaches
# no verdict and rightly saves nothing, so a build too slow for the
# first deadline (a sanitized one, say) retries with twice as long.
deadline=$DEADLINE
for attempt in 1 2 3 4; do
  rm -f "$ckpt"
  echo "--deadline-s $deadline"
  "$CLI" --threads 1 campaign $DESIGN $GEN $VECTORS --checkpoint "$ckpt" \
    --deadline-s "$deadline" > "$workdir/deadline.txt"
  deadline_status=$?
  cat "$workdir/deadline.txt"
  reached=$(sed -n 's/.*finalized \([0-9]*\)\/.*/\1/p' "$workdir/deadline.txt")
  [[ $deadline_status -eq 5 && "$reached" == 0 ]] || break
  deadline=$(awk -v d="$deadline" 'BEGIN { print 2 * d }')
done
# 5 = deadline exceeded; 0 = the campaign finished inside the deadline.
if [[ $deadline_status -ne 5 && $deadline_status -ne 0 ]] ||
   [[ ! -f "$ckpt" ]]; then
  echo "kill_resume_smoke: FAIL — a deadline-cut campaign must exit 5 (or" \
       "0) and leave a checkpoint (got exit $deadline_status)" >&2
  exit 1
fi
resume_matches deadline_resume
restored=$(sed -n 's/.*: \([0-9]*\) faults already finalized.*/\1/p' \
  "$workdir/deadline_resume.err")
if [[ -z "$restored" || "$restored" -eq 0 ]] ||
   [[ $deadline_status -eq 5 && "$restored" != "$reached" ]]; then
  echo "kill_resume_smoke: FAIL — the resume restored ${restored:-no}" \
       "verdicts; the deadline-cut campaign reached ${reached:-all}" >&2
  exit 1
fi
echo "deadline-cut campaign checkpointed all $restored verdicts it reached"

echo "== run 4: resume from a checkpoint truncated to half its size =="
if [[ ! -f "$ckpt" ]]; then
  echo "kill_resume_smoke: FAIL — no checkpoint left to truncate" >&2
  exit 1
fi
size=$(wc -c < "$ckpt")
truncate -s $((size / 2)) "$ckpt"
run_campaign --resume > "$workdir/corrupt.out" 2> "$workdir/corrupt.err"
corrupt_status=$?
cat "$workdir/corrupt.err"
if [[ $corrupt_status -ne 1 ]] ||
   ! grep -q "corrupt-checkpoint" "$workdir/corrupt.err" ||
   [[ -s "$workdir/corrupt.out" ]]; then
  echo "kill_resume_smoke: FAIL — a truncated checkpoint must exit 1 with" \
       "corrupt-checkpoint on stderr and nothing on stdout (got exit" \
       "$corrupt_status)" >&2
  exit 1
fi

echo "kill_resume_smoke: PASS — resumed output byte-identical to reference" \
     "after a kill and after a deadline; truncated checkpoint refused"
