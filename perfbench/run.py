#!/usr/bin/env python3
"""acplab benchmark: one workload, one seed, every metric with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload field-kernel --seed 1 --seconds 20 --trace 0

`--trace 0` sets the workload up several times (each in a fresh process
but the first), runs its ops as a closed loop with one client for
`--seconds` seconds (whole rounds of the op mix only), verifies every
result, and prints the end-to-end metrics, with times scaled to nominal
machine speed by the gauge in speed.py.  `--trace 1` runs one seeded
pass of the op mix untraced and then with spans around every public
acplab function, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from speed import Gauge
from workloads import WORKLOADS

# set-ups per run: this process, then fresh ones until there are at least
# SETUP_SAMPLES and, for short set-ups, until they add up to SETUP_BUDGET_S
SETUP_SAMPLES = 5
SETUP_SAMPLES_MAX = 21
SETUP_BUDGET_S = 3.0
TAIL_BEYOND = 10           # samples a tail percentile must have above it
HERE = os.path.dirname(os.path.abspath(__file__))

# per-layer metrics that are not "<layer>.self_s" / "<layer>.calls"
SPAN_METRICS = (
    ("field_core.inv", "calls"), ("field_core.inv", "busy_s"),
    ("field_core.hilbert90_solve", "busy_s"),
    ("linalg.rref", "calls"), ("linalg.rref", "busy_s"), ("linalg.det", "calls"),
    ("field_core.mul", "calls"), ("field_core.mul", "busy_s"),
    ("field_core.apply_automorphism", "calls"),
    ("crossed_product.table_build", "busy_s"), ("crossed_product.cocycle_scan", "busy_s"),
    ("crossed_product.mul", "calls"),
    ("twisted_poly.mul", "calls"), ("twisted_poly.reduce", "busy_s"),
    ("graded_val.mul", "calls"), ("graded_val.absence_audit", "busy_s"),
    ("extension_lab.validate_composite", "busy_s"),
    ("extension_lab.relative_norm", "calls"), ("extension_lab.relative_norm", "busy_s"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the seconds it took, and exit")
    return p.parse_args(argv)


def find_program():
    """Put the checkout's `src` first on the import path, or exit 2."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "acplab", "__init__.py")):
        print("perfbench: no src/acplab here; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def report_self_test(results):
    for name, passed in results.items():
        print(f"self-test {'ok  ' if passed else 'FAIL'} {name}")
    return all(results.values())


# ---------------------------------------------------------------------- #
# untraced run


def setup_probe(args):
    """Set-up seconds of a fresh process running this same code path."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return float(done.stdout.split()[-1])


def run_op(op, failures, around=contextlib.nullcontext, clock=perf_counter):
    """(latency seconds, result) of one op, or (None, None) if it raised;
    a raise or a wrong result is appended to failures.  `around` is
    entered around the run only, outside the latency timer."""
    try:
        with around():
            t0 = clock()
            result = op.run()
            latency = clock() - t0
    except Exception as exc:    # an op that raises counts as failed
        failures.append(f"{op.cls}: {type(exc).__name__}: {exc}")
        return None, None
    try:
        ok = op.check(result)
    except Exception as exc:
        failures.append(f"{op.cls}: check raised {type(exc).__name__}: {exc}")
        return latency, result
    if not ok:
        failures.append(f"{op.cls}: wrong result")
    return latency, result


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it, i.e. the 11th largest sample; the maximum when there
    are too few samples for that to lie above the median."""
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND + 1:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_untraced(args, wl):
    gauge = Gauge()
    with gauge.running():
        t0 = gauge.clock()
        wl.setup()
        first = gauge.clock() - t0
    first *= gauge.factor()
    if args.setup_probe:
        print(repr(first))
        return 0
    setups = [first]
    while len(setups) < SETUP_SAMPLES or (sum(setups) < SETUP_BUDGET_S
                                          and len(setups) < SETUP_SAMPLES_MAX):
        setups.append(setup_probe(args))
    self_ok = report_self_test(wl.self_test())

    rng = random.Random(args.seed)
    records = []           # (op class, latency, gauge samples before, after it)
    failures = []
    attempted = rounds = 0
    gauge = Gauge()
    with gauge.running():
        start = perf_counter()
        while True:
            for op in wl.round(rng):
                attempted += 1
                gauge.sample()     # the speed right before a short op
                before = len(gauge.samples)
                latency, _result = run_op(op, failures, clock=gauge.clock)
                if latency is not None:
                    records.append((op.cls, latency, before, len(gauge.samples)))
            rounds += 1
            # whole rounds only, so the op mix is the same in every run;
            # stop at the round boundary nearest to --seconds
            done = perf_counter() - start
            if done + done / rounds / 2 >= args.seconds:
                break
    f = gauge.factor()
    latencies = defaultdict(list)
    for cls, latency, before, after in records:
        latencies[cls].append(latency * gauge.factor(before, after))
    # ops_per_s counts op time only: not the checks, the inputs or the gauge
    busy = sum(record[1] for record in records)
    scaled = sum(map(sum, latencies.values()))
    failed = len(failures)

    p50s, tails = [], []
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} ops "
          f"taking {busy:.2f} s measured, {scaled:.2f} s at nominal speed "
          f"(run speed factor {f:.3f} from {len(gauge.samples)} gauge samples)")
    print("set-up samples at nominal speed: "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    print(f"{'class':32} {'n':>5} {'p50_s':>10} {'tail_s':>10} {'tail_pct':>8}")
    for cls in sorted(latencies):
        xs = latencies[cls]
        med = statistics.median(xs)
        value, pct = tail(xs)
        p50s.append(med)
        tails.append(value)
        print(f"{cls:32} {len(xs):5d} {med:10.5f} {value:10.5f} {pct:8.1f}")
    for line in failures[:20]:
        print(f"failed op: {line}", file=sys.stderr)
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted})")

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((attempted - failed) / (scaled or done * f), "1/s"),
        # with no op completed, the whole phase stands in for every latency
        "latency_p50_s": (geomean(p50s) if p50s else done * f, "s"),
        "latency_tail_s": (geomean(tails) if tails else done * f, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    emit(self_ok and failed == 0, attempted, failed, metrics)
    return 0


# ---------------------------------------------------------------------- #
# traced run


def src_lines():
    pkg = os.path.join("src", "acplab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run_traced(args, wl):
    from tracing import LAYERS, METRIC_SPANS, MODULE_LAYERS, Tracer

    import acplab
    for layer in MODULE_LAYERS:
        importlib.import_module(f"acplab.{layer}")
    tracer = Tracer(acplab)
    tracer.install()
    wl.setup()
    tracer.uninstall()
    for name in tracer.missing:
        print(f"warning: traced target {name} not found", file=sys.stderr)
    self_ok = report_self_test(wl.self_test())

    rng = random.Random(args.seed)
    ops = wl.trace_ops(rng)
    failures = []
    untraced = traced = 0.0
    for op in ops:
        latency, _result = run_op(op, failures)
        untraced += latency or 0.0
    bytes_out = 0
    for i, op in enumerate(ops):
        tracer.op = i
        latency, result = run_op(op, failures, tracer.active)
        traced += latency or 0.0
        if latency is not None:
            bytes_out += wl.output_bytes(result)
    for line in failures[:20]:
        print(f"failed op: {line}", file=sys.stderr)

    layers = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer][0], "s")
        metrics[f"{layer}.calls"] = (layers[layer][1], "count")
    for base, kind in SPAN_METRICS:
        names = METRIC_SPANS[base]
        if kind == "calls":
            metrics[f"{base}.calls"] = (tracer.calls(names), "count")
        else:
            metrics[f"{base}.busy_s"] = (tracer.busy(names), "s")
    metrics["field_core.sigma_matrix.hit_ratio"] = (
        tracer.hit_ratio("field_core.GaloisExtensionPresentation.sigma_matrix"), "ratio")
    metrics["crossed_product.pair.hit_ratio"] = (
        tracer.hit_ratio("crossed_product.TwistEngine.pair"), "ratio")
    metrics["crossed_product.search.candidates_tried"] = (tracer.candidates_tried, "count")
    metrics["crossed_product.search.hit_ratio"] = (
        tracer.searches_found / tracer.candidates_tried
        if tracer.candidates_tried else 0.0, "ratio")
    serialize_load = [n for n in tracer.names if n.startswith("serialize.")
                      and (n.endswith("_from_doc") or n == "serialize.load_document")]
    metrics["serialize.load.busy_s"] = (tracer.busy(serialize_load), "s")
    metrics["serialize.bytes_in"] = (tracer.bytes_in, "bytes")
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    metrics["fixtures.build.busy_s"] = (
        tracer.busy([n for n in tracer.names if n.startswith("fixtures.")]), "s")
    metrics["tracing.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
    metrics["static.src_lines"] = (src_lines(), "lines")

    out = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    tracer.write(out)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops traced, "
          f"{len(tracer.span_id)} spans written to {os.path.relpath(out)}; "
          f"untraced {untraced:.3f} s, traced {traced:.3f} s, peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48} {value:>14.6g} {unit}")
    emit(self_ok and not failures, 2 * len(ops), len(failures), metrics)
    return 0


def main(argv=None):
    args = parse_args(argv)
    find_program()
    wl = WORKLOADS[args.workload]()
    if args.trace:
        return run_traced(args, wl)
    return run_untraced(args, wl)


if __name__ == "__main__":
    sys.exit(main())
