#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see METRICS.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It configures and builds
perfbench/ (which compiles the repository's libraries from src/) under
.bench_build/perfbench, then runs one measurement. Build output goes to
stderr; the last line of stdout is the result object. The exit code is
non-zero when the build fails or an output is wrong.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("reduce-corpus", "schedule-corpus", "server-batch")


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no repository sources next to perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "rmdbench",
                  "-j", jobs])
    for step in steps:
        if run(step, timeout=800, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("run.py: build failed: " + " ".join(step))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("run.py: --seed must be >= 0 and --seconds > 0")

    build()
    # Environment knobs of the program under test stay at their defaults:
    # no reduction cache, no fault injection, no stats export.
    env = {k: v for k, v in os.environ.items()
           if k not in ("RMD_REDUCTION_CACHE", "RMD_FAULTS", "RMD_STATS_JSON",
                        "RMD_TRACE_SPANS", "RMD_SIMD")}
    cmd = [os.path.join(BUILD, "rmdbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--out-dir", os.path.join(BUILD, "out"),
           "--git-sha", git_sha()]
    sys.stdout.flush()
    sys.exit(run(cmd, timeout=args.seconds + 120, env=env))


if __name__ == "__main__":
    main()
