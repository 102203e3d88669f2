#!/usr/bin/env python3
"""Fast self-test of the paper-cell benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json once untraced and once traced, at a
tiny budget (--smoke: 1/32 of the vectors, one pass), and checks that each
run exits 0 with a correct result whose metrics are exactly the
BENCHMARK.json metrics of that mode, each with its declared unit. It also
checks that perfbench/layers.json maps exactly the per-layer metrics that
BENCHMARK.json declares. Exits 1 on the first mismatch.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    sys.stderr.write("selftest: FAIL: %s\n" % msg)
    sys.exit(1)


def check_run(spec, workload, trace):
    expected = spec["per_layer" if trace else "end_to_end"]
    cmd = [*spec["command"], "--workload", workload, "--seed", "2",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    label = "%s --trace %d" % (workload, trace)
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-4000:])
        fail("%s exited %d" % (label, res.returncode))
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % label)
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(out)))
    if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
        fail("%s: correct %s, attempted %s, failed %s" %
             (label, out["correct"], out["attempted"], out["failed"]))
    got = out["metrics"]
    if set(got) != {m["name"] for m in expected}:
        fail("%s: metrics %s" % (label, sorted(got)))
    for m in expected:
        value = got[m["name"]]
        if value.get("unit") != m["unit"]:
            fail("%s: %s has unit %s, want %s" %
                 (label, m["name"], value.get("unit"), m["unit"]))
        if not isinstance(value.get("value"), (int, float)):
            fail("%s: %s has no numeric value" % (label, m["name"]))
    print("selftest: ok %s (%d metrics)" % (label, len(got)))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = {m for row in layers["layers"] for m in row["metrics"]}
    declared = {m["name"] for m in spec["per_layer"]}
    if mapped != declared:
        fail("layers.json and BENCHMARK.json differ on per-layer metrics %s"
             % sorted(mapped ^ declared))
    if set(layers["workloads"]) != {w["name"] for w in spec["workloads"]}:
        fail("layers.json and BENCHMARK.json name different workloads")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
