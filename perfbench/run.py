#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the simulator sources under src/) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the helper self-test, then the benchmark, and passes the
benchmark's stdout through. The last stdout line is the JSON result; its
metric names are checked against BENCHMARK.json. Build output and
diagnostics go to stderr. Exits non-zero, without a result line, when
the sources are missing, the build or self-test fails, or the benchmark
fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark must end within 180 s of a run that needs no build.
RUN_TIMEOUT_S = 170


# The child process running now, stopped and reaped if we are signalled.
_child = None


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def run_child(command, timeout=None, capture=False):
    """Runs command to completion; returns (exit code, stdout or None)."""
    global _child
    try:
        _child = subprocess.Popen(
            command, stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr, text=True)
    except OSError as err:
        fail(f"cannot run {command[0]}: {err}")
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        fail(f"{command[0]} did not finish within {timeout} s")
    code = _child.returncode
    _child = None
    return code, out


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "virt" / "testbed.h").is_file():
        fail("simulator sources (src/) not found next to perfbench/")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        if run_child(step)[0] != 0:
            fail(f"build step failed: {' '.join(step)}")


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace == "1" else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    out = build_dir()
    build(out)
    if run_child([str(out / "perfbench_stats_test")])[0] != 0:
        fail("helper self-test failed")

    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace]
    code, stdout = run_child(command, timeout=RUN_TIMEOUT_S, capture=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"benchmark exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(stdout)
        fail("benchmark printed no JSON result")
    names = expected_metrics(args.trace)
    if names is not None and list(result["metrics"]) != names:
        sys.stderr.write(stdout)
        fail("benchmark metrics do not match BENCHMARK.json")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
