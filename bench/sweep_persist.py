#!/usr/bin/env python3
"""Time one sweep binary plain and with each durable output mode.

Usage:
    python3 bench/sweep_persist.py --bin=BUILD/bench --label=NAME \
        [--reps=170,1700] [--runs=3] [--out=BENCH_sweep.json]

Runs `exp_t3_vs_r --n=200 --threads=4 --reps=R` (6 grid points, so 6*R
replicas) four ways: plain, `--trace=`, `--resume=` and `--fabric=`, each in
a fresh scratch directory, and records the median wall and CPU seconds of
`--runs` interleaved runs per row. Rows are appended to --out under --label
together with a host stamp, so rows from two builds (say, before and after
a change) sit side by side in one file. Sweepd/sweep-merge are not needed: a sweep
bench given --fabric= publishes, drains and merges in one process.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time

MODES = {
    "plain": lambda d: [],
    "trace": lambda d: ["--trace=" + os.path.join(d, "trace.jsonl")],
    "resume": lambda d: ["--resume=" + os.path.join(d, "sweep.manifest")],
    "fabric": lambda d: ["--fabric=" + os.path.join(d, "fab"), "--owner=w1"],
}


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release()}


def time_run(cmd):
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True, help="directory holding exp_t3_vs_r")
    ap.add_argument("--label", required=True)
    ap.add_argument("--reps", default="170,1700")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--out", default="BENCH_sweep.json")
    args = ap.parse_args()

    exe = os.path.join(args.bin, "exp_t3_vs_r")
    doc = {"rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    cells = [(int(r), m) for r in args.reps.split(",") for m in MODES]
    samples = {cell: ([], []) for cell in cells}
    # Runs interleave every row, so drift in the host's fsync latency (it
    # moves by 2x over minutes on shared VMs) lands on all rows alike.
    for _ in range(args.runs):
        for reps, mode in cells:
            scratch = tempfile.mkdtemp(prefix="sweep_persist.")
            try:
                cmd = [exe, "--n=200", "--threads=4", "--seed=1", "--reps=%d" % reps]
                wall, cpu = time_run(cmd + MODES[mode](scratch))
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            samples[(reps, mode)][0].append(wall)
            samples[(reps, mode)][1].append(cpu)
    for reps, mode in cells:
        walls, cpus = samples[(reps, mode)]
        row = {
            "label": args.label,
            "mode": mode,
            "reps": reps,
            "replicas": 6 * reps,
            "runs": args.runs,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "wall_s_samples": walls,
            "host": host_stamp(),
        }
        print(json.dumps(row), flush=True)
        doc["rows"].append(row)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
