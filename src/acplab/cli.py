"""Batch front door: load fixtures, run validations, searches, descents.

Exit codes separate "refuted" from "unknown": 0 all checks pass, 1 a
mathematical check failed, 2 unreadable or malformed input, 3 a budgeted
search exhausted its budget without an answer.  Reports are deterministic
given (fixture, flags, seed); the seed and budgets are echoed in every
report so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from . import crossed_product as cp
from . import extension_lab as xl
from . import fixtures, serialize
from . import graded_val as gv
from . import twisted_poly as tp
from .errors import AlgebraError, FormatError
from .field_core import common_prime, validate_galois_data
from .reporting import Report

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_IO = 2
EXIT_EXHAUSTED = 3


@dataclass
class RunConfig:
    command: str
    fixture: str | None = None
    composite: str | None = None
    witness: str | None = None
    candidates: str | None = None
    budget_l: int = 64
    exponent: int | None = None
    seed: int = 0
    fmt: str = "table"


def _load_algebra(ref: str):
    """(algebra, builtin witness or None) from a builtin name or a file."""
    if ref in fixtures.BUILTIN_ALGEBRAS:
        alg = fixtures.BUILTIN_ALGEBRAS[ref]()
        wit = fixtures.BUILTIN_WITNESSES[ref]()
        return alg, wit
    doc = serialize.load_document(ref)
    if doc["schema"] == serialize.WITNESS_SCHEMA:
        alg, wit = serialize.witness_from_doc(doc)
        return alg, wit
    return serialize.algebra_from_doc(doc), None


def _load_composite(ref: str, base):
    if ref in fixtures.BUILTIN_COMPOSITES:
        comp = fixtures.BUILTIN_COMPOSITES[ref]()
        if comp.base is base:
            return comp
        doc = serialize.composite_to_doc(comp)      # rebound to a file-loaded base
    else:
        doc = serialize.load_document(ref)
    return serialize.composite_from_doc(doc, base=base)


def _load_witness(ref: str, algebra):
    _alg, wit = serialize.witness_from_doc(serialize.load_document(ref), algebra)
    return wit


def _emit(cfg: RunConfig, reports, extras=None):
    if cfg.fmt == "report":
        payload = {
            "command": cfg.command,
            "config": {k: v for k, v in asdict(cfg).items() if v is not None},
            "reports": [r.to_dict() for r in reports],
        }
        if extras:
            payload.update(extras)
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(f"== {cfg.command} ==  "
              f"(fixture={cfg.fixture}, seed={cfg.seed}, budget_l={cfg.budget_l})")
        for r in reports:
            print(r.render())
            print()
        for key, value in (extras or {}).items():
            print(f"{key}: {value}")


# ---------------------------------------------------------------------- #
# commands


def cmd_validate(cfg: RunConfig) -> int:
    """Every relation gets a pass/fail line, even when some fail."""
    reports = []
    if cfg.fixture in fixtures.BUILTIN_ALGEBRAS:
        alg, _ = _load_algebra(cfg.fixture)
        ext, data = alg.ext, alg.data
    else:
        doc = serialize.load_document(cfg.fixture)
        if doc["schema"] == serialize.PRESENTATION_SCHEMA:
            pres = serialize.presentation_from_doc(doc)
            report = validate_galois_data(pres, seed=cfg.seed)
            _emit(cfg, [report])
            return EXIT_PASS if report.ok else EXIT_MATH_FAIL
        if doc["schema"] == serialize.WITNESS_SCHEMA:
            doc = doc.get("algebra")
        ext, data = serialize.cocycle_data_from_doc(doc)
    reports.append(validate_galois_data(ext, seed=cfg.seed))
    reports.append(cp.validate_relations(ext, data))
    _emit(cfg, reports)
    return EXIT_PASS if all(r.ok for r in reports) else EXIT_MATH_FAIL


def cmd_analyze(cfg: RunConfig) -> int:
    alg, _ = _load_algebra(cfg.fixture)
    ext = alg.ext
    reports = [cp.validate_relations(ext, alg.data)]
    if not reports[0].ok:
        _emit(cfg, reports)
        return EXIT_MATH_FAIL
    candidates = cp.default_candidates(ext)
    if cfg.candidates:
        extra = serialize.elements_from_doc(
            serialize.load_document(cfg.candidates), ext)
        candidates = candidates + [x for x in extra if not x.is_zero()]

    outcome = cp.search_strong_degeneracy(alg, candidates, budget=cfg.budget_l)
    search = Report("strong degeneracy search")
    search.note(f"{outcome.candidates_tried} (exponent, coefficient) pairs tried "
                f"over {outcome.exponents_tried} prime-order exponents, "
                f"budget {cfg.budget_l}")
    w = outcome.witness
    if not outcome.found:
        search.note(outcome.message)
    elif search.require("witness found", cp.check_strong_witness(alg, w), str(w)):
        elem = cp.witness_to_central_element(alg, w)
        q = ext.exp_order(w.exponent)
        power = elem ** q
        search.require("central monomial is prime-power central",
                       not alg.is_central(elem) and alg.is_central(power),
                       f"({elem})^{q} = {power}")
        back = cp.central_element_to_witness(alg, w.coeff, w.exponent)
        search.require("round trip re-extraction passes the checker",
                       cp.check_strong_witness(alg, back), str(back))
        pair = cp.strong_to_pair_witness(alg, w)
        search.require("derived pair witness passes",
                       cp.check_pair_witness(alg, pair), str(pair))
    reports.append(search)

    pair_rep = Report("degeneracy pair search")
    pair_outcome = cp.search_pair_degeneracy(alg, candidates,
                                             max_checks=cfg.budget_l ** 2)
    if pair_outcome.found:
        pair_rep.require("pair witness found",
                         cp.check_pair_witness(alg, pair_outcome.witness),
                         str(pair_outcome.witness))
    else:
        pair_rep.note(pair_outcome.message)
    if cp.pair_fast_path_applies(ext):
        pair_rep.note("rank-2 fast path applies: a single twist entry decides")
    reports.append(pair_rep)

    gcp = tp.GenericCrossedProduct(alg)
    mono_rep = Report("power-central monomial search (generic model)")
    mono = gcp.monomial_power_central_search(candidates, outcome, cfg.budget_l)
    if mono.found:
        mono_rep.require(f"{mono.prime}-power central monomial", True,
                         f"{mono.monomial} ({mono.message})")
        mono_rep.require("verified by full reduction arithmetic",
                         gcp.is_p_power_central(mono.monomial, mono.prime))
    else:
        mono_rep.note(mono.message)
    reports.append(mono_rep)

    _emit(cfg, reports)
    if not all(r.ok for r in reports):
        return EXIT_MATH_FAIL
    return EXIT_PASS if outcome.found else EXIT_EXHAUSTED


def cmd_descend(cfg: RunConfig) -> int:
    alg, builtin_witness = _load_algebra(cfg.fixture)
    comp = _load_composite(cfg.composite, alg.ext)
    if cfg.witness:
        witness = _load_witness(cfg.witness, alg)
    elif builtin_witness is not None:
        witness = builtin_witness
    else:
        raise FormatError("no witness supplied and the fixture ships none")
    if cfg.exponent is None:
        raise FormatError("descend requires --exponent (the user-supplied "
                          "exponent for the Bezout stage)")
    report = xl.descent_report(comp, alg, witness, cfg.exponent)
    _emit(cfg, [report])
    return EXIT_PASS if report.ok else EXIT_MATH_FAIL


def cmd_graded(cfg: RunConfig) -> int:
    alg, builtin_witness = _load_algebra(cfg.fixture)
    ext = alg.ext
    relations = cp.validate_relations(ext, alg.data)
    if not relations.ok:
        _emit(cfg, [relations])
        return EXIT_MATH_FAIL
    graded = gv.GradedCrossedProduct(alg)
    reports = [graded.semiramification_report()]

    theta_rep = Report("value map table")
    table = graded.theta_table()
    images = {img for _v, img in table}
    theta_rep.require("bijective on value classes",
                      len(images) == ext.group_order)
    additive = all(
        graded.theta(v1 + v2) == ext.exp_add(m1, m2)
        for v1, m1 in table for v2, m2 in table)
    theta_rep.require("additive", additive)
    for v, m in table:
        theta_rep.note(f"{v} -> {m}")
    reports.append(theta_rep)

    resid = graded.residue_cocycle()
    resid_rep = Report("residue data round trip")
    resid_rep.require("standard choices recover the presenting data",
                      resid.data.twists == alg.data.twists
                      and resid.data.powers == alg.data.powers)
    resid_rep.require("residue relations validate", resid.report.ok)
    reports.append(resid_rep)

    wit = _load_witness(cfg.witness, alg) if cfg.witness else builtin_witness
    if wit is not None:
        crit = Report("power-central homogeneous criterion")
        reports.append(crit)
        if cp.check_strong_witness(alg, wit):
            h = graded.from_witness(wit)
            q = ext.exp_order(wit.exponent)
            out = graded.qpower_central_check(h, q)
            crit.require(f"witness image {h} is {q}-power central", bool(out))
            crit.require("its value sits off the base lattice",
                         not out.value_in_base_lattice, str(out.value))
            crit.require("extraction on residues returns a passing witness",
                         cp.check_strong_witness(alg, graded.to_strong_witness(h)))
        else:
            crit.require("witness passes the strong degeneracy check", False, str(wit))
            wit = None

    pair_rep = Report("commuting homogeneous pairs")
    scan = graded.commuting_pair_scan()
    witnesses = scan.witnesses
    pair_rep.require("every commuting noncyclic pair emitted a passing witness",
                     all(cp.check_pair_witness(alg, pw) for pw in witnesses),
                     f"{len(witnesses)} witnesses from {scan.checked} pairs")
    fallback = not witnesses and wit is not None
    if fallback:
        witnesses.append(cp.strong_to_pair_witness(alg, wit))
    if witnesses:
        h1, h2 = graded.witness_pair_elements(witnesses[0])
        # the scan's witnesses are checked above; a fallback pair is checked here
        pair_rep.require("converse: witness pair elements commute",
                         graded.commute(h1, h2)
                         and (not fallback or cp.check_pair_witness(alg, witnesses[0])),
                         f"{h1} and {h2}")
    reports.append(pair_rep)

    audit = graded.absence_audit(
        common_prime(ext.orders) or 2, budget=cfg.budget_l)
    audit_rep = Report("power-central absence audit (budgeted semi-decision)")
    audit_rep.note(audit.message)
    audit_rep.note("strong-degeneracy search: "
                   + ("witness found" if audit.strong_search.found
                      else audit.strong_search.message))
    reports.append(audit_rep)

    _emit(cfg, reports)
    return EXIT_PASS if all(r.ok for r in reports) else EXIT_MATH_FAIL


def cmd_demo(cfg: RunConfig) -> int:
    status = EXIT_PASS
    plan = [
        ("instance-b", "b-cuberoot2", 2),
        ("instance-b3", "b3-sqrt5", 3),
    ]
    for fixture, composite, exponent in plan:
        for command, runner in (("validate", cmd_validate),
                                ("analyze", cmd_analyze),
                                ("graded", cmd_graded)):
            sub = RunConfig(command=command, fixture=fixture, seed=cfg.seed,
                            budget_l=cfg.budget_l, fmt=cfg.fmt)
            rc = runner(sub)
            if rc not in (EXIT_PASS, EXIT_EXHAUSTED):
                status = rc
        sub = RunConfig(command="descend", fixture=fixture, composite=composite,
                        exponent=exponent, seed=cfg.seed, budget_l=cfg.budget_l,
                        fmt=cfg.fmt)
        rc = cmd_descend(sub)
        if rc != EXIT_PASS:
            status = rc
    return status


# ---------------------------------------------------------------------- #


def nonnegative_int(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acplab",
        description="exact workbench for abelian crossed product algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_fixture in (("validate", True), ("analyze", True),
                                ("descend", True), ("graded", True),
                                ("demo", False)):
        p = sub.add_parser(name)
        if needs_fixture:
            p.add_argument("--fixture", required=True,
                           help="builtin name (instance-b, instance-b3) or a "
                                "JSON document path")
        p.add_argument("--composite", help="builtin composite name or JSON path")
        p.add_argument("--witness", help="witness JSON path")
        p.add_argument("--candidates",
                       help="JSON element list extending the search candidates")
        p.add_argument("--exponent", type=int,
                       help="user-supplied exponent for the Bezout stage")
        p.add_argument("--budget-l", type=nonnegative_int, default=64, dest="budget_l",
                       help="max candidate coefficients per search")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("table", "report"), default="table",
                       dest="fmt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command,
                    fixture=getattr(args, "fixture", None),
                    composite=args.composite,
                    witness=args.witness,
                    candidates=args.candidates,
                    budget_l=args.budget_l,
                    exponent=args.exponent,
                    seed=args.seed,
                    fmt=args.fmt)
    runners = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "descend": cmd_descend,
        "graded": cmd_graded,
        "demo": cmd_demo,
    }
    try:
        return runners[cfg.command](cfg)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AlgebraError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except ValueError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
