#!/usr/bin/env bash
# Kill-and-resume smoke test for checkpointed fault-sim campaigns.
#
# Launches `fdbist_cli campaign` on one thread, SIGKILLs it mid-flight,
# resumes from whatever checkpoint it left, and verifies the resumed
# coverage line is byte-identical to an uninterrupted `faultsim` run of
# the same (design, generator, vectors) cell. Exercises the
# crash-consistency path no unit test can: a real process killed around
# its checkpoint write. It prints which case occurred: killed with no
# checkpoint, killed after one, or finished before the kill. Finally
# truncates the checkpoint to half its size and requires the resume to
# fail as the CLI reports a corrupt checkpoint: exit status 1,
# "corrupt-checkpoint" on stderr, nothing on stdout.
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

# A campaign runs every unfinished slice in one fault-simulation call
# and saves its checkpoint when that call returns, so a kill that lands
# mid-run leaves no checkpoint and the resume starts fresh.
run_campaign() {
  "$CLI" campaign $DESIGN $GEN $VECTORS \
    --checkpoint "$ckpt" --checkpoint-every 1024 "$@"
}

echo "== run 1: campaign, SIGKILL after ${KILL_AFTER}s =="
# Launched directly (not through run_campaign) so $! is the CLI process
# itself, not a wrapping subshell — killing only the subshell would
# leave an orphaned campaign racing run 2 for the checkpoint tmp file.
"$CLI" --threads 1 campaign $DESIGN $GEN $VECTORS \
  --checkpoint "$ckpt" --checkpoint-every 1024 \
  > "$workdir/first.txt" 2>&1 &
pid=$!
sleep "$KILL_AFTER"
kill -KILL "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
first_status=$?
echo "first run exit status: $first_status"

# 137 = 128 + SIGKILL: the kill landed before the campaign exited.
if [[ $first_status -ne 137 ]]; then
  echo "case: finished before the kill — resume restores every slice"
elif [[ -f "$ckpt" ]]; then
  echo "case: killed after the checkpoint was written — resume restores it"
else
  # Killed before the checkpoint write: resume is then a fresh start,
  # which the resume run below must handle identically.
  echo "case: killed with no checkpoint — resume starts fresh"
fi

echo "== run 2: resume =="
run_campaign --resume > "$workdir/resumed.txt"
resume_status=$?
if [[ $resume_status -ne 0 ]]; then
  echo "kill_resume_smoke: resume failed ($resume_status)" >&2
  cat "$workdir/resumed.txt" >&2
  exit 1
fi
cat "$workdir/resumed.txt"

echo "== compare =="
if ! diff -u "$workdir/reference.txt" "$workdir/resumed.txt"; then
  echo "kill_resume_smoke: FAIL — resumed campaign differs from the" \
       "uninterrupted reference" >&2
  exit 1
fi

echo "== run 3: resume from a checkpoint truncated to half its size =="
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

echo "kill_resume_smoke: PASS — resumed output byte-identical to reference;" \
     "truncated checkpoint refused"
