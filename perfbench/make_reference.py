#!/usr/bin/env python3
"""Record the reference outputs that the cli-batch workload compares against.

For every job class and every `--seed` value the generator can pass, runs
`acplab ... --format report` in-process and stores its exit code and
standard output in perfbench/reference/cli-batch.json.  Run from the
repository root, only on a commit whose outputs are known to be right:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

from workloads import REFERENCE, SEED_FLAGS, cli_jobs, run_cli

sys.path.insert(0, os.path.abspath("src"))

from acplab import cli  # noqa: E402


def main():
    table = {}
    for flag in SEED_FLAGS:
        table[str(flag)] = {}
        for cls, argv in cli_jobs().items():
            rc, out = run_cli(cli, argv + ["--seed", str(flag), "--format", "report"])
            table[str(flag)][cls] = {"exit": rc, "stdout": out}
            print(f"--seed {flag} {cls}: exit {rc}, {len(out)} bytes")
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
