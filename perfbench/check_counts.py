#!/usr/bin/env python3
"""Run the traced run twice per workload with one seed and require every
count metric (calls, candidates tried, hit ratios, bytes, source lines) to
be identical.  Exits 1 on any difference.  Run from the repository root:

    python3 perfbench/check_counts.py [--seed 7] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def is_count(name):
    return (name.endswith((".calls", ".candidates_tried", ".hit_ratio"))
            or "bytes" in name or name == "static.src_lines")


def traced_counts(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect results")
    return {k: v["value"] for k, v in result["metrics"].items() if is_count(k)}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = p.parse_args()
    status = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        print(f"{workload}: {len(first)} count metrics, "
              + ("identical" if not diff else f"{len(diff)} differ: {diff}"))
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
