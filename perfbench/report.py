#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric of every workload, by name
with its unit: one end-to-end run (--trace 0) and one traced run
(--trace 1) per workload, run from the repository root.

    python3 perfbench/report.py [--seconds 30] [--seed 1] [--workload NAME ...]
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sedov-hydro", "evrard-gravity", "sedov-ranks4", "serve-miss"]


def run(workload, seed, seconds, trace):
    cmd = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} --trace {trace} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for w in args.workload:
        for trace in (0, 1):
            res = run(w, args.seed, args.seconds, trace)
            share = res["failed"] / res["attempted"]
            print(f"== {w} --trace {trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} failed_share={share:g}")
            for name, m in res["metrics"].items():
                print(f"{w:15s} {name:40s} {m['value']:>16.6g} {m['unit']}")
            ok &= res["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
