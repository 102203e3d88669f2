#!/usr/bin/env bash
# Drives fdbist_cli over every registered design, the way a user does.
#
# For each design that `fdbist_cli designs` lists and each generator,
# `faultsim D G 64` and `campaign D G 64` must exit 0 with
# byte-identical stdout. For each design, `analyze` and both `export`
# formats must exit 0. Inputs the library would refuse with a
# precondition (a filter too long for the 16-bit output, a spectrum
# shorter than one Welch segment) must exit 2 with a plain message.
#
# Usage: tests/cli_sweep.sh path-to-fdbist_cli
set -u

CLI="${1:?usage: cli_sweep.sh path-to-fdbist_cli}"
GENERATORS="lfsr1 lfsr2 lfsrd lfsrm ramp mixed"
VECTORS=64

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
failures=0

fail() {
  echo "cli_sweep: FAIL: $*" >&2
  failures=$((failures + 1))
}

# run NAME ARGS...: runs the CLI, stdout to $workdir/NAME.out, stderr to
# $workdir/NAME.err; returns its exit status.
run() {
  local name=$1
  shift
  "$CLI" "$@" > "$workdir/$name.out" 2> "$workdir/$name.err"
}

designs=$("$CLI" designs | awk '{print $1}')
if [[ -z "$designs" ]]; then
  echo "cli_sweep: \`designs\` listed nothing" >&2
  exit 1
fi

for d in $designs; do
  for g in $GENERATORS; do
    run faultsim faultsim "$d" "$g" $VECTORS || fail "faultsim $d $g exit $?"
    run campaign campaign "$d" "$g" $VECTORS || fail "campaign $d $g exit $?"
    cmp -s "$workdir/faultsim.out" "$workdir/campaign.out" ||
      fail "campaign $d $g stdout differs from faultsim"
  done
  run analyze analyze "$d" || fail "analyze $d exit $?"
  run verilog export "$d" verilog || fail "export $d verilog exit $?"
  run dot export "$d" dot || fail "export $d dot exit $?"
done

# expect_usage_error ARGS...: exit 2, and no library precondition text.
expect_usage_error() {
  run usage "$@"
  local status=$?
  [[ $status -eq 2 ]] || fail "$* exit $status, want 2"
  if grep -q "precondition failed" "$workdir/usage.err"; then
    fail "$* reached a library precondition"
  fi
}

expect_usage_error design lowpass 378 0.1
expect_usage_error design bandpass 512 0.1 0.2
expect_usage_error design highpass 513 0.3
expect_usage_error spectra lfsr1 64
expect_usage_error spectra lfsr1 255

if [[ $failures -ne 0 ]]; then
  echo "cli_sweep: $failures failures" >&2
  exit 1
fi
echo "cli_sweep: every registered design passed ($(echo $designs | wc -w) designs)"
