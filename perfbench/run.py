#!/usr/bin/env python3
"""Build the perfbench driver from the checkout's sources and run one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds into .bench_build/perfbench (Release,
Ninja when available); later calls only re-run the incremental build. All
build output goes to stderr, so the last line of stdout is the driver's JSON
result. Scratch files go under .bench_work/ and are removed on exit.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no repository sources beside the benchmark (CMakeLists.txt and src/ missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr,
        stderr=sys.stderr,
    ) != 0:
        fail("build failed")


def main():
    os.chdir(ROOT)
    build()
    binary = os.path.join(BUILD, "perfbench")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
