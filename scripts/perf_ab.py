#!/usr/bin/env python3
"""Same-host A/B perf gate on the paper-cell benchmark.

    python3 scripts/perf_ab.py BASE

Checks out BASE and HEAD in two detached git worktrees, builds the
benchmark in each, and runs every workload that both sides' BENCHMARK.json
lists in alternating pairs on this host. For each workload and end-to-end
metric it prints every pair's two values, each side's median and
quartiles, their ratio and the metric's bound, and it fails when HEAD's
median is worse than BASE's by more than bound x BASE's median. It also
prints what a claimed gain is judged by: how many pairs HEAD won (ties
count for neither side) and whether the two medians differ by more than
BASE's interquartile range. Those lines are information; they never
change the exit status. Commit the change first: HEAD is compared, not
the working tree.

Exit codes: 0 pass, 1 a regression or a failed run, 2 a usage error (an
unknown revision, a worktree that cannot be made, no BENCHMARK.json).
"""
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A median of 5 survives one disturbed run per side, and 5 pairs of the
# four workloads fit in about 12 minutes.
PAIRS = 5
# Seed 1 is the paper's, the only seed whose verdicts perfbench checks
# against committed digests.
SEED = "1"
# Long enough for every workload's minimum pass count, so each run's
# medians are over several passes.
SECONDS = "10"
# End-to-end metrics are defined on untraced runs.
TRACE = "0"


class UsageError(Exception):
    pass


def git(*args):
    res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True)
    if res.returncode != 0:
        raise UsageError("git %s: %s" % (" ".join(args), res.stderr.strip()))
    return res.stdout.strip()


def load_spec(tree, side):
    try:
        return json.loads((tree / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise UsageError("%s has no readable BENCHMARK.json: %s" % (side, e))


def run(cmd, tree, env):
    """Run cmd in tree; return (exit status, stdout, stderr). The child gets
    its own process group so that an interrupted gate kills the benchmark
    binary too, not only run.py."""
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate()
        return proc.returncode, out, err
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def result_of(status, out):
    """(result JSON, None) for a good run, or (None, why it failed)."""
    if status != 0:
        return None, "exit status %d" % status
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return None, "no result JSON on the last stdout line"
    if result.get("correct") is not True:
        return None, "correct: %s" % json.dumps(result.get("correct"))
    if result.get("failed") != 0:
        return None, "failed: %s" % json.dumps(result.get("failed"))
    return result, None


def judge(workload, metric, base, change):
    """Print one workload x metric block; return True when it passes."""
    name, bound = metric["name"], float(metric["bound"])
    lower = metric["better"] == "lower"
    bq1, bmed, bq3 = statistics.quantiles(base, n=4, method="inclusive")
    cq1, cmed, cq3 = statistics.quantiles(change, n=4, method="inclusive")
    # Higher-is-better metrics are mirrored: worse means smaller.
    limit = 1 + bound if lower else 1 - bound
    ok = cmed <= bmed * limit if lower else cmed >= bmed * limit
    ratio = cmed / bmed if bmed else float("inf") if cmed else 1.0
    print("%s %s (%s is better, bound %.2f)" %
          (workload, name, metric["better"], bound))
    for side, values, q1, med, q3 in (("base", base, bq1, bmed, bq3),
                                      ("change", change, cq1, cmed, cq3)):
        print("  %-6s %s  median %.4f [q1 %.4f, q3 %.4f]" %
              (side, " ".join("%9.4f" % v for v in values), med, q1, q3))
    print("  ratio %.3f, limit %.3f: %s" %
          (ratio, limit, "ok" if ok else "REGRESSION"))
    # The gain rule: a claimed gain needs the change to win at least nine
    # tenths of the pairs and the medians to differ by more than the
    # base's own spread.
    won = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    gap, iqr = abs(cmed - bmed), bq3 - bq1
    print("  change won %d/%d pairs (ties count for neither); medians "
          "differ by %.4f, %s base IQR %.4f" %
          (won, len(base), gap, "more than" if gap > iqr else "not more than",
           iqr))
    return ok


def gate(trees, env):
    """Run the pairs; return what failed (empty when the gate passes)."""
    specs = {side: load_spec(tree, side) for side, tree in trees.items()}
    listed = {side: [w["name"] for w in spec["workloads"]]
              for side, spec in specs.items()}
    for side, other in (("base", "change"), ("change", "base")):
        for w in listed[side]:
            if w not in listed[other]:
                print("note: %s lists workload %s and %s does not; skipped" %
                      (side, w, other))
    workloads = [w for w in listed["base"] if w in listed["change"]]
    if not workloads:
        raise UsageError("base and change list no workload in common")
    # The bounds are the ones the base fixed, so a change cannot loosen
    # its own gate.
    metrics = specs["base"]["end_to_end"]

    def command(side, workload, *extra):
        return [*specs[side]["command"], "--workload", workload, "--seed",
                SEED, "--seconds", SECONDS, "--trace", TRACE, *extra]

    def failed(side, what, why, err):
        sys.stderr.write(err[-4000:])
        return ["%s %s: %s" % (side, what, why)]

    # Build each side, and check it runs, before anything is timed.
    for side, tree in trees.items():
        t0 = time.monotonic()
        status, out, err = run(command(side, workloads[0], "--smoke"),
                               tree, env)
        result, why = result_of(status, out)
        if result is None:
            return failed(side, "build and smoke run", why, err)
        print("built and smoke-ran %s in %.0f s" %
              (side, time.monotonic() - t0), flush=True)

    regressions = []
    for workload in workloads:
        values = {"base": [], "change": []}
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                t0 = time.monotonic()
                status, out, err = run(command(side, workload), trees[side],
                                       env)
                result, why = result_of(status, out)
                if result is None:
                    return failed(side, "%s pair %d" % (workload, pair), why,
                                  err)
                got = result["metrics"]
                values[side].append(got)
                print("%s pair %d %s (%.1f s):%s" % (
                    workload, pair, side, time.monotonic() - t0,
                    "".join(" %s %.4f" % (m["name"], got[m["name"]]["value"])
                            for m in metrics if m["name"] in got)),
                      flush=True)
        for metric in metrics:
            name = metric["name"]
            series = {side: [m[name]["value"] for m in runs if name in m]
                      for side, runs in values.items()}
            if any(len(v) != PAIRS for v in series.values()):
                print("note: %s %s is missing from some runs; skipped" %
                      (workload, name))
                continue
            if not judge(workload, metric, series["base"], series["change"]):
                regressions.append("%s %s regressed" % (workload, name))
    return regressions


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        sys.stderr.write("usage: perf_ab.py BASE\n")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = time.monotonic()
    added = []
    tmp = Path(tempfile.mkdtemp(prefix="perf_ab-"))
    try:
        revs = {"base": git("rev-parse", "--verify", argv[1] + "^{commit}"),
                "change": git("rev-parse", "--verify", "HEAD^{commit}")}
        print("perf_ab: base %s, change %s" % (revs["base"], revs["change"]))
        trees = {}
        for side, rev in revs.items():
            trees[side] = tmp / side
            git("worktree", "add", "--detach", str(trees[side]), rev)
            added.append(trees[side])
        # run.py builds under CARGO_TARGET_DIR when it is set, which would
        # give both sides one build; without it each builds in its tree.
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        failures = gate(trees, env)
    except UsageError as e:
        sys.stderr.write("perf_ab: %s\n" % e)
        return 2
    finally:
        for tree in added:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
    verdict = "FAIL: " + "; ".join(failures) if failures else "pass"
    print("perf_ab: %s in %.0f s" % (verdict, time.monotonic() - started))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
