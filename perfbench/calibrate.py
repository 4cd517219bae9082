#!/usr/bin/env python3
"""Compare this machine with the ROADMAP re-anchor table.

For each row of that table that the benchmark's layers cover, prints the
ROADMAP value, the untraced median time measured here (also scaled to
nominal speed by the gauge in speed.py), and the traced busy time per call
from the benchmark's spans.  Run from the repository
root (takes about a minute):

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import importlib
import os
import random
import statistics
import sys
from time import perf_counter

from speed import Gauge
from tracing import METRIC_SPANS, MODULE_LAYERS, Tracer
from workloads import cli_jobs, random_coords, run_cli

sys.path.insert(0, os.path.abspath("src"))

import acplab  # noqa: E402
from acplab import cli, fixtures  # noqa: E402

for _layer in MODULE_LAYERS:
    importlib.import_module(f"acplab.{_layer}")


def untraced_median(calls):
    """(median seconds, the same at nominal speed) over the calls."""
    gauge = Gauge()
    times = []
    for call in calls:
        gauge.sample(5)
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    median = statistics.median(times)
    return median, median * gauge.factor()


def traced_per_call(calls, names):
    tracer = Tracer(acplab)
    tracer.install()
    try:
        for call in calls:
            call()
    finally:
        tracer.uninstall()
    n = tracer.calls(names)
    return tracer.busy(names) / n if n else float("nan"), n


def main():
    rng = random.Random(0)
    K = fixtures.instance_b3_field()
    KE = fixtures.composite_b3_sqrt5().composite
    alg = fixtures.instance_b3_algebra()
    k = [K.element(random_coords(rng, K.dim, 3)) for _ in range(41)]
    ke = [KE.element(random_coords(rng, KE.dim, 2)) for _ in range(11)]
    descend = cli_jobs()["descend:b3-sqrt5"] + ["--seed", "0", "--format", "report"]

    mul = METRIC_SPANS["field_core.mul"]
    inv = METRIC_SPANS["field_core.inv"]
    rows = [
        ("b3 field mul", "591 us", [lambda a=a, b=b: a * b for a, b in zip(k, k[1:])], mul),
        ("b3 field inv", "5.8 ms", [lambda a=a: K.inv(a) for a in k[:20]], inv),
        ("dim-18 field mul", "3.4 ms", [lambda a=a, b=b: a * b for a, b in zip(ke, ke[1:])], mul),
        ("dim-18 field inv", "33 ms", [lambda a=a: KE.inv(a) for a in ke[:5]], inv),
        ("cocycle scan, 729 triples", "0.40 s", [lambda: alg.cocycle_identity_report()] * 3,
         METRIC_SPANS["crossed_product.cocycle_scan"]),
        ("descend on instance-b3", "2.6 s", [lambda: run_cli(cli, descend)] * 2,
         ("cli.main",)),
        ("  of which validate_composite", "2.3 s", [lambda: run_cli(cli, descend)] * 2,
         METRIC_SPANS["extension_lab.validate_composite"]),
        ("  of which descent_report", "-", [lambda: run_cli(cli, descend)] * 2,
         ("extension_lab.descent_report",)),
    ]
    print(f"{'path':32} {'ROADMAP':>9} {'untraced':>10} {'nominal':>10} "
          f"{'traced busy':>12} {'calls':>6}")
    for label, roadmap, calls, names in rows:
        shown = f"{'':21}"
        if not label.startswith("  "):
            plain, nominal = untraced_median(calls)
            shown = f"{plain:10.6f} {nominal:10.6f}"
        busy, n = traced_per_call(calls, names)
        print(f"{label:32} {roadmap:>9} {shown} {busy:12.6f} {n:6d}")
    print("seconds; untraced: median over the calls listed; nominal: the same "
          "scaled by the speed gauge (speed.py); traced busy: span time per "
          "call with tracing on")


if __name__ == "__main__":
    main()
