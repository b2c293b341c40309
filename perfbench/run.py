#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. On first use the binary is built with
CMake (Release, the libraries under src/ plus perfbench/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs rebuild only what changed. Build logs go to standard
error. The binary's last line of standard output is the JSON result.
A traced run (--trace 1) also leaves its Chrome trace in the build
directory. README.md describes the workloads and metrics.
"""

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("profile-exact", "simulate-j4", "service-mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    exe = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(exe) if os.path.exists(exe) else None
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    if before != os.path.getmtime(exe):
        # A new build starts a new record of its work counters.
        for path in glob.glob(os.path.join(build_dir, "counters-*.txt")):
            os.remove(path)
    return exe


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    os.chdir(ROOT)
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # Relative to the root, so the Unix socket paths under it stay short.
    work = os.path.relpath(os.path.join(build_dir, f"run-{os.getpid()}"))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--state", build_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-seed{args.seed}.json")]

    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
