"""The three benchmark workloads.

A workload builds its fields, algebras and composites in `setup()` (the
part timed as `setup_s`), then hands out rounds of ops.  A round is a list
of `Op(cls, run, check)`: `run()` is the program call whose latency is
measured, `check(result)` verifies its output exactly and runs outside the
latency timer.  Every input of a round is drawn from the `random.Random`
the runner passes in, so one seed gives one op sequence.

`acplab` is imported inside `setup()` only, so the import is part of the
timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

FIXTURES = "fixtures"
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "cli-batch.json")
SEED_FLAGS = (0, 1, 2, 3)   # values the cli-batch generator passes as --seed


@dataclass
class Op:
    cls: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    trace_rounds = 1

    def trace_ops(self, rng):
        """The ops of the traced run: its first rounds."""
        return [op for _ in range(self.trace_rounds) for op in self.round(rng)]

    def output_bytes(self, result):
        """Bytes the program printed for an op with this result."""
        return 0


def _fixture(name):
    return os.path.join(FIXTURES, f"{name}.json")


# ---------------------------------------------------------------------- #
# cli-batch


def cli_jobs():
    """{job class: argv without --seed/--format}, in a fixed order."""
    jobs = {}
    for fixture in ("instance-b", "instance-b-witness", "instance-b3",
                    "instance-b3-witness"):
        for command in ("validate", "analyze", "graded"):
            jobs[f"{command}:{fixture}"] = [command, "--fixture", _fixture(fixture)]
    for fixture, composite, exponent in (("instance-b-witness", "b-cuberoot2", 2),
                                         ("instance-b3-witness", "b3-sqrt5", 3)):
        jobs[f"descend:{composite}"] = [
            "descend", "--fixture", _fixture(fixture),
            "--composite", _fixture(f"composite-{composite}"),
            "--exponent", str(exponent)]
    return jobs


def run_cli(cli, argv):
    """(exit code, stdout text) of one in-process `acplab` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class CliBatch(Workload):
    """Each op is one `acplab <command> ... --format report` run in-process
    on a fixture path, so it parses, builds and validates from scratch."""

    def __init__(self):
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.jobs = cli_jobs()

    def setup(self):
        from acplab import cli
        self.cli = cli

    def check(self, cls, flag, result):
        ref = self.reference[str(flag)][cls]
        return result == (ref["exit"], ref["stdout"])

    def round(self, rng):
        # every job class with every --seed value, in seeded order: per-class
        # costs depend on the --seed value, so each run gets the same mix
        order = [(cls, flag) for cls in self.jobs for flag in SEED_FLAGS]
        rng.shuffle(order)
        return [self._op(cls, flag) for cls, flag in order]

    def trace_ops(self, rng):
        # one job per class, with a seeded --seed value, keeps the traced
        # run well inside its time limit
        order = list(self.jobs)
        rng.shuffle(order)
        return [self._op(cls, rng.choice(SEED_FLAGS)) for cls in order]

    def output_bytes(self, result):
        return len(result[1].encode("utf-8"))

    def _op(self, cls, flag):
        argv = self.jobs[cls] + ["--seed", str(flag), "--format", "report"]
        return Op(cls, lambda: run_cli(self.cli, argv),
                  lambda res: self.check(cls, flag, res))

    def self_test(self):
        cls = "validate:instance-b"
        ref = self.reference["0"][cls]
        good = (ref["exit"], ref["stdout"])
        flipped = ref["stdout"].replace('"passed": true', '"passed": false', 1)
        return {
            "reference report accepted": self.check(cls, 0, good),
            "corrupted report rejected": not self.check(cls, 0, (ref["exit"], flipped)),
            "wrong exit code rejected": not self.check(cls, 0, (1, ref["stdout"])),
            "other seed's report rejected": not self.check(cls, 1, good),
        }


# ---------------------------------------------------------------------- #
# field-kernel


def random_coords(rng, dim, span):
    while True:
        coords = [rng.randint(-span, span) for _ in range(dim)]
        if any(coords):
            return coords


class FieldKernel(Workload):
    """Inversion, elimination and norm work in K (instance-b3, dim 9) and
    KE (the b3-sqrt5 composite, dim 18).

    Each round takes the next prime-order exponent m in turn, so a run
    covers all of them; one m per round keeps the cheap classes at a few
    hundred samples, where their tail percentile is not set by the host's
    rare short stalls."""

    trace_rounds = 8       # one round per prime-order exponent of C3 x C3

    def setup(self):
        from acplab import extension_lab, fixtures
        self.xl = extension_lab
        self.K = fixtures.instance_b3_field()
        self.comp = fixtures.composite_b3_sqrt5()
        self.KE = self.comp.composite
        self.exps = self.K.prime_order_exponents()
        self._rounds = 0
        # lazily built state: the sigma-power cache and the composite's
        # module basis; users pay it once, so it belongs to set-up
        for m in self.exps:
            self.K.apply_automorphism(m, self.K.one())
        self.xl.relative_norm(self.comp, self.KE.one())

    # checks, kept apart from the ops so the self-test can feed them
    # wrong results
    def check_ratio(self, m, x, c):
        return c * x == self.K.apply_automorphism(m, x)

    def check_norm(self, n):
        return n == self.K.one()

    def check_h90(self, m, c, y):
        return (y is not None and not y.is_zero()
                and self.K.apply_automorphism(m, y) == c * y)

    def check_inv(self, field, x, y):
        return x * y == field.one()

    def check_relative_norm(self, y, n):
        return (n.field is self.K
                and self.xl.embed_element(self.comp, n) == self.xl.orbit_product(self.comp, y))

    def round(self, rng):
        K, KE = self.K, self.KE
        x = K.element(random_coords(rng, K.dim, 3))
        y = KE.element(random_coords(rng, KE.dim, 2))
        m = self.exps[self._rounds % len(self.exps)]
        self._rounds += 1
        ratio = {}

        def run_ratio():
            ratio["c"] = K.apply_automorphism(m, x) / x
            return ratio["c"]

        ops = [Op("ratio", run_ratio, lambda c: self.check_ratio(m, x, c)),
               Op("norm_along", lambda: K.norm_along(m, ratio["c"]), self.check_norm),
               Op("hilbert90", lambda: K.hilbert90_solve(m, ratio["c"]),
                  lambda s: self.check_h90(m, ratio["c"], s))]
        ops.append(Op("inv:K", lambda: K.inv(x), lambda v: self.check_inv(K, x, v)))
        ops.append(Op("inv:KE", lambda: KE.inv(y), lambda v: self.check_inv(KE, y, v)))
        ops.append(Op("relative_norm:KE", lambda: self.xl.relative_norm(self.comp, y),
                      lambda n: self.check_relative_norm(y, n)))
        return ops

    def self_test(self):
        K, KE = self.K, self.KE
        m = self.exps[0]
        x = K.element([1, 1] + [0] * (K.dim - 3) + [1])
        c = K.apply_automorphism(m, x) / x
        y = K.hilbert90_solve(m, c)
        inv = K.inv(x)
        z = KE.element([1] * KE.dim)
        n = self.xl.relative_norm(self.comp, z)
        return {
            "test ratio is not 1": c != K.one(),
            "true norm accepted": self.check_norm(K.norm_along(m, c)),
            "norm of one plus one rejected": not self.check_norm(K.one() + K.one()),
            "true Hilbert-90 solution accepted": self.check_h90(m, c, y),
            "y with s^m(y) != c*y rejected": not self.check_h90(m, c, y + K.one()),
            "wrong ratio rejected": not self.check_ratio(m, x, c + K.one()),
            "true inverse accepted": self.check_inv(K, x, inv),
            "wrong inverse rejected": not self.check_inv(K, x, inv + K.one()),
            "wrong relative norm rejected": not self.check_relative_norm(z, n + K.one()),
        }


# ---------------------------------------------------------------------- #
# algebra-products


class AlgebraProducts(Workload):
    """Crossed-product, twisted-polynomial and graded arithmetic over the
    instance-b and instance-b3 algebras: field multiplications and
    automorphisms with few inversions."""

    # (kind, algebra, ops per round), from costs measured at the commit
    # that added this benchmark (README.md has the shares).  The table
    # build and scan costs about five b3 ops: once per round it takes about
    # 30 % of the op time, and a 20-second run has about 9 of them (tail:
    # their maximum) and about 36 of each 0.01-0.1 s class.  Pair checks
    # cost under 1 ms and are bimodal (on instance-b, 3 pairs in 10
    # commute and build a witness, 5x the cost of the rest), so they run
    # 32 times per round, which puts their tail percentile clear of the gap.
    CLASSES = (("table_scan", "b3", 1), ("assoc", "b", 4), ("assoc", "b3", 4),
               ("cube", "b", 4), ("cube", "b3", 4), ("pair", "b", 32),
               ("pair", "b3", 32), ("search", "b", 4), ("search", "b3", 4))
    SEARCH_BUDGET = 64     # the CLI's default --budget-l

    def setup(self):
        from acplab import crossed_product, fixtures, graded_val, twisted_poly
        self.cp, self.tp, self.gv = crossed_product, twisted_poly, graded_val
        self.ctx = {}
        for name, alg in (("b", fixtures.instance_b_algebra()),
                          ("b3", fixtures.instance_b3_algebra())):
            ext = alg.ext
            gcp = twisted_poly.GenericCrossedProduct(alg)
            # fill the twisted ring's pair cache over the support that the
            # cube op can reach, as a long-running user would have it
            ring = gcp.ring
            full = ring.poly({(i, j): ext.one()
                              for i in range(3) for j in range(3)})
            full ** 3
            self.ctx[name] = dict(
                alg=alg, ext=ext, gcp=gcp, graded=graded_val.GradedCrossedProduct(alg),
                exps=ext.exponents(), basis=ext.basis(),
                candidates=crossed_product.default_candidates(ext))

    # --- inputs

    def _field(self, c, rng, span=2):
        ext = c["ext"]
        return ext.element(random_coords(rng, ext.dim, span))

    def _alg_element(self, c, rng):
        terms = rng.sample(c["exps"], 3)
        return c["alg"].element({m: self._field(c, rng) for m in terms})

    def _poly(self, c, rng):
        exps = [(i, j) for i in range(3) for j in range(3)]
        return c["gcp"].ring.poly({e: self._field(c, rng) for e in rng.sample(exps, 3)})

    # --- checks

    def check_table_scan(self, c, result):
        alg, report = result
        return report.ok and alg.table == c["alg"].table

    def check_assoc(self, c, result):
        lhs, rhs = result
        return lhs.algebra is c["alg"] and lhs == rhs

    def check_cube(self, c, result):
        reduced_cube, reduced, law = result
        gcp = c["gcp"]
        return law is True and reduced_cube == gcp.mul(gcp.mul(reduced, reduced), reduced)

    def _subgroup_cyclic(self, c, m, n):
        orders = c["ext"].orders
        add = lambda a, b: tuple((x + y) % o for x, y, o in zip(a, b, orders))
        sub = {tuple(0 for _ in orders)}
        frontier = list(sub)
        while frontier:
            g = frontier.pop()
            for h in (m, n):
                k = add(g, h)
                if k not in sub:
                    sub.add(k)
                    frontier.append(k)
        for g in sub:
            k, power = 1, g
            while any(power):
                power = add(power, g)
                k += 1
            if k == len(sub):
                return True
        return False

    def check_pair(self, c, h1, h2, out):
        alg = c["alg"]
        a1 = alg.monomial(h1.coeff, h1.exponent)
        a2 = alg.monomial(h2.coeff, h2.exponent)
        commute = alg.mul(a1, a2) == alg.mul(a2, a1)
        noncyclic = not self._subgroup_cyclic(c, h1.exponent, h2.exponent)
        if out.commute != commute or out.noncyclic != noncyclic:
            return False
        if (out.witness is not None) != (commute and noncyclic):
            return False
        return out.witness is None or self.cp.check_pair_witness(alg, out.witness)

    def check_search(self, c, cands, out):
        cands = cands[:self.SEARCH_BUDGET]
        if out.found:
            return (out.witness.coeff in cands
                    and self.cp.check_strong_witness(c["alg"], out.witness))
        exps = c["ext"].prime_order_exponents()
        return out.candidates_tried == len(exps) * len(cands)

    # --- ops

    def _ops(self, kind, name, rng):
        c = self.ctx[name]
        cls = f"{kind}:{name}"
        if kind == "table_scan":
            alg = c["alg"]

            def run():
                fresh = self.cp.CrossedProductAlgebra(alg.ext, alg.data)
                return fresh, fresh.cocycle_identity_report()
            return Op(cls, run, lambda r: self.check_table_scan(c, r))
        if kind == "assoc":
            a, b, d = (self._alg_element(c, rng) for _ in range(3))
            return Op(cls, lambda: ((a * b) * d, a * (b * d)),
                      lambda r: self.check_assoc(c, r))
        if kind == "cube":
            t = self._poly(c, rng)
            gcp = c["gcp"]
            return Op(cls, lambda: (gcp.reduce(t ** 3), gcp.reduce(t),
                                    self.tp.leading_monomial_power_property(t, 3)),
                      lambda r: self.check_cube(c, r))
        if kind == "pair":
            coeffs = [c["ext"].one()] + c["basis"]
            nonzero = [m for m in c["exps"] if any(m)]
            graded = c["graded"]
            h1 = graded.homog(rng.choice(coeffs), rng.choice(nonzero))
            h2 = graded.homog(rng.choice(coeffs), rng.choice(nonzero))
            return Op(cls, lambda: graded.pair_degeneracy_check(h1, h2),
                      lambda out: self.check_pair(c, h1, h2, out))
        # the default candidates in seeded order, so the number tried varies
        cands = rng.sample(c["candidates"], len(c["candidates"]))
        return Op(cls, lambda: self.cp.search_strong_degeneracy(
                      c["alg"], cands, budget=self.SEARCH_BUDGET),
                  lambda out: self.check_search(c, cands, out))

    def round(self, rng):
        ops = [self._ops(kind, name, rng) for kind, name, count in self.CLASSES
               for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def self_test(self):
        rng = random.Random(0)
        c = self.ctx["b"]
        alg, cp = c["alg"], self.cp
        assoc = self._ops("assoc", "b", rng).run()
        cube_op = self._ops("cube", "b", rng)
        reduced_cube, reduced, law = cube_op.run()
        table_op = self._ops("table_scan", "b3", rng)
        scan = table_op.run()
        other = cp.CrossedProductAlgebra(alg.ext, alg.data)
        pair_op = self._ops("pair", "b", rng)
        out = pair_op.run()
        w = cp.search_strong_degeneracy(alg, c["candidates"]).witness
        # scaling the coefficient by a rational keeps a witness valid, so
        # tamper with a twisted-ratio solution instead
        bad_w = cp.StrongDegeneracyWitness(
            w.exponent, w.coeff, (w.solutions[0] + c["ext"].one(),) + w.solutions[1:])
        flipped = self.gv.PairDegeneracyOutcome(not out.commute, out.noncyclic,
                                                out.witness)
        exhausted = len(c["ext"].prime_order_exponents()) * len(c["candidates"])
        return {
            "true cube accepted": cube_op.check((reduced_cube, reduced, law)),
            "cube plus one rejected": not cube_op.check(
                (reduced_cube + c["gcp"].one(), reduced, law)),
            "true table and scan accepted": table_op.check(scan),
            "another algebra's table rejected": not table_op.check((other, scan[1])),
            "true associativity accepted": self.check_assoc(c, assoc),
            "unequal sides rejected": not self.check_assoc(
                c, (assoc[0], assoc[1] + alg.one())),
            "true pair outcome accepted": pair_op.check(out),
            "flipped pair outcome rejected": not pair_op.check(flipped),
            "tampered witness rejected": not self.check_search(
                c, c["candidates"], cp.SearchOutcome(bad_w, 1, 1, "")),
            "full exhaustion count accepted": self.check_search(
                c, c["candidates"], cp.SearchOutcome(None, 1, exhausted, "")),
            "short exhaustion count rejected": not self.check_search(
                c, c["candidates"], cp.SearchOutcome(None, 1, exhausted - 1, "")),
        }


WORKLOADS = {
    "cli-batch": CliBatch,
    "field-kernel": FieldKernel,
    "algebra-products": AlgebraProducts,
}
