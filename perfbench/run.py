#!/usr/bin/env python3
"""Build and run the paper-cell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark binary and the fdbist library (Release) under .bench_build/perfbench; later
runs only check that the build is current. All build output goes to
stderr. The binary's stdout, whose last line is the result JSON, is passed
through unchanged, and its exit status is returned. Any further arguments
(--smoke, --print-expected) go to the binary as they are.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD_ROOT = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
if not BUILD_ROOT.is_absolute():
    BUILD_ROOT = ROOT / BUILD_ROOT
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "perfbench"


def run_child(cmd, **kwargs):
    """Run cmd from the repository root and return its exit status. The
    child is killed and reaped if this process is interrupted first."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_logged(cmd):
    """Run a build step with its output on stderr; exit 1 if it fails."""
    if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.stderr.write("perfbench: no fdbist sources next to perfbench/\n")
        sys.exit(1)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs])


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build()
    cmd = [str(BINARY), *sys.argv[1:], "--commit", commit(),
           "--workdir", str(BUILD_ROOT / "perfbench-work")]
    return 0 if run_child(cmd) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
