#!/usr/bin/env python3
"""Seeded open-loop serving benchmark: build, self-test, run one workload.

Run from the root of a checkout:

    python3 servebench/run.py --workload chat-resident --seed 1 --seconds 15 --trace 0

Builds servebench/ (and the serving stack under src/ it links) into
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench), runs the
benchmark's self-tests, then runs the driver for one workload, which checks
its replies against the digests recorded in servebench/digests.txt. The
driver's report line and, last, its one-line JSON result are printed on
stdout; build output and diagnostics go to stderr. Exits non-zero, without a
result, when the build, the self-tests or the run fail (an unknown workload
included).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
# After a build that compiled anything, wait this long before measuring: on
# the 4-vCPU VM the benchmark was tuned on, the first runs after a parallel
# compile measured up to 30% more CPU per turn than later ones.
COOLDOWN_AFTER_BUILD_S = 90


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver and self-tests.

    Returns None on failure, else whether the driver binary changed.
    """
    driver = build_dir / "servebench_driver"
    before = driver.stat().st_mtime_ns if driver.exists() else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                  "servebench_driver", "servebench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return None
    return driver.stat().st_mtime_ns != before


def main():
    # A terminated run still stops its driver: SystemExit unwinds through
    # subprocess.run, which kills and waits for the child, and the finally
    # below removes the scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not Path("src/CMakeLists.txt").is_file():
        log("no serving stack under ./src: run from the root of a full checkout")
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "servebench"
    rebuilt = build(build_dir.resolve())
    if rebuilt is None:
        return 1
    selftest = subprocess.run([str(build_dir / "servebench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("self-tests failed")
        return 1

    if rebuilt:
        log(f"driver rebuilt; cooling down {COOLDOWN_AFTER_BUILD_S} s before measuring")
        time.sleep(COOLDOWN_AFTER_BUILD_S)

    # The disk tier's backing files live here, inside the checkout, and go
    # away with the run.
    scratch = (build_dir / f"run.{os.getpid()}").resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "servebench_driver"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", str(BENCH_DIR / "digests.txt"),
           "--scratch", str(scratch)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        log(f"driver exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
