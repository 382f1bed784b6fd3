#!/usr/bin/env python3
"""Builds and runs the pmemflow repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (the pmemflow libraries
from src/ plus the benchmark program) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild incrementally. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. With --trace 1
the span log is written to .../perfbench-spans/<workload>-<seed>.json.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and returns its exit code. On
    a timeout, Ctrl-C or SIGTERM it kills the whole group (a build's
    compilers too) and waits for it."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except BaseException as error:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(error, subprocess.TimeoutExpired):
                fail(f"timed out after {timeout} s: {' '.join(cmd)}")
            raise


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    code = run(cmd, timeout, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        fail(f"failed ({code}): {' '.join(cmd)}")


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no pmemflow sources under {root / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(root / "perfbench"), "-B",
                    str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", jobs], BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(root, target / "perfbench")

    if args.selftest:
        cmd = [str(binary), "--selftest"]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
        if args.trace == "1":
            spans = target / "perfbench-spans"
            spans.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans-out",
                    str(spans / f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(run(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
