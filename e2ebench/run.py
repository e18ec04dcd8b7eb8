#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the real engine.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload wc-mem --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

The engine libraries and the driver are built with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench).  Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
All the driver's scratch files (spill runs, KV logs) live under the
build directory and are removed when the run ends.
"""
import os
import shutil
import subprocess
import sys

# Engine knobs read from the environment.  They are removed so that the
# engine's defaults are what gets measured and no flight-recorder dump
# lands anywhere.
PINNED_ENV = ("BMR_NET_TRANSPORT", "BMR_SHUFFLE_CODEC", "BMR_FLIGHT_DIR",
              "BMR_LOG_LEVEL")


def build(source_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "e2ebench"))
    try:
        build(source_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print("e2ebench: build failed: %s" % err, file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "e2ebench"), "--workdir", work_dir]
            + sys.argv[1:], env=env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
