"""Exit codes, determinism, and report formats of the batch front door."""

import contextlib
import copy
import dataclasses
import io
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from acplab import cli, serialize
from acplab import crossed_product as cp
from acplab import extension_lab as xl
from acplab import fixtures
from acplab.field_core import GaloisExtensionPresentation

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(args, capsys):
    try:
        code = cli.main(args)
    except SystemExit as exc:       # argparse rejected the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtin(capsys):
    code, out, _ = run(["validate", "--fixture", "instance-b"], capsys)
    assert code == 0
    assert "PASS" in out


def test_validate_fixture_file(capsys):
    code, out, _ = run(
        ["validate", "--fixture", str(FIXTURE_DIR / "instance-b3.json")], capsys)
    assert code == 0


def test_validate_missing_file(capsys):
    code, _out, err = run(["validate", "--fixture", "no-such-file.json"], capsys)
    assert code == cli.EXIT_IO
    assert "input error" in err


@pytest.mark.parametrize("keys, value, expected", [
    (("twists", 0, 1, 2), "1/2", cli.EXIT_MATH_FAIL),
    (("extension", "orders"), ["x", 2], cli.EXIT_IO),
    (("extension", "orders"), [2.5, 2], cli.EXIT_IO),
    (("twists",), [[["1", "0", "0", "0"], ["-1", "0", "0", "0"]]], cli.EXIT_IO),
    (("extension", "unit"), ["0"] * 4, cli.EXIT_MATH_FAIL),
    (("twists", 0, 1, 0), "1e100000", cli.EXIT_IO),
    (("twists", 0, 1, 0), "1e1000000", cli.EXIT_IO),
    (("powers", 0), ["1", "0"], cli.EXIT_IO),
], ids=["inversion-rule", "string-order", "float-order", "one-row-twists",
        "zero-unit", "exponent-literal", "huge-exponent-literal", "short-powers-vector"])
def test_validate_perturbed_fixture(tmp_path, capsys, keys, value, expected):
    doc = serialize.load_document(FIXTURE_DIR / "instance-b.json")
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "broken.json"
    serialize.save(path, doc)
    code, _out, err = run(["validate", "--fixture", str(path)], capsys)
    assert code == expected
    assert len(err.splitlines()) <= 1


LEAVES = st.one_of(
    st.integers(-2, 4), st.none(), st.booleans(), st.just(0.5), st.just([]), st.just({}),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", "",
                     serialize.PRESENTATION_SCHEMA, serialize.ALGEBRA_SCHEMA,
                     serialize.WITNESS_SCHEMA, serialize.COMPOSITE_SCHEMA]))


@st.composite
def mutated_documents(draw, doc):
    """doc with one to three edits, each at a random node: replaced by a
    leaf, deleted, duplicated in its list, or wrapped in a list."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (
                parent is None or draw(st.integers(0, 4))):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        edit = draw(st.sampled_from(["replace", "delete", "duplicate", "wrap"]))
        if edit == "delete":
            del parent[key]
        elif edit == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        elif edit == "wrap":
            parent[key] = [node]
        else:
            parent[key] = draw(LEAVES)
    return doc


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURE_DIR.glob("*.json")))
def test_validate_mutated_fixture(tmp_path, name):
    path = tmp_path / name

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(mutated_documents(json.loads((FIXTURE_DIR / name).read_text())))
    def check(doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", "--fixture", str(path)])
        assert code in (cli.EXIT_PASS, cli.EXIT_MATH_FAIL, cli.EXIT_IO,
                        cli.EXIT_EXHAUSTED)
        assert len(err.getvalue().splitlines()) <= 1

    check()


@pytest.mark.parametrize("command, name", [
    ("analyze", "instance-b.json"), ("analyze", "instance-b-witness.json"),
    ("graded", "instance-b.json"), ("graded", "instance-b-witness.json"),
    ("descend", "instance-b-witness.json")])
def test_failing_relations_are_a_fail_line(tmp_path, capsys, command, name):
    """Constructors check shape only; a presentation whose relations fail
    reaches the report line that decides them."""
    keys = ("twists", 0, 1, 2) if name == "instance-b.json" else ("algebra", "twists", 0, 1, 2)
    argv = [command, "--fixture", _edited(tmp_path, name, keys, "1/2")]
    if command == "descend":
        argv += ["--composite", "b-cuberoot2", "--exponent", "2"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert err == ""
    fails = [text for text in out.splitlines() if "[FAIL]" in text]
    assert fails and "diagonal and inversion rule" in fails[0]
    if command != "descend":
        # the relations report is the whole output
        assert out.count("=> ") == 1 and "cocycle relations" in out


@pytest.mark.parametrize("command", ["validate", "analyze", "graded", "descend"])
def test_zero_power_is_one_stderr_line(tmp_path, capsys, command):
    argv = [command, "--fixture", _edited(tmp_path, "instance-b-witness.json",
                                          ("algebra", "powers", 0), ["0"] * 4)]
    if command == "descend":
        argv += ["--composite", "b-cuberoot2", "--exponent", "2"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert out == ""
    assert err.splitlines() == ["mathematical failure: powers[0] is zero"]


@pytest.mark.parametrize("command, name", [
    (command, name) for command in ("analyze", "graded", "descend")
    for name in ("instance-b.json", "instance-b-witness.json", "instance-b3-witness.json")])
def test_command_on_mutated_fixture(tmp_path, command, name):
    path = tmp_path / name
    argv = [command, "--fixture", str(path)]
    if command == "descend":
        composite, exponent = (("b3-sqrt5", "3") if name.startswith("instance-b3")
                               else ("b-cuberoot2", "2"))
        argv += ["--composite", composite, "--exponent", exponent]
        if name == "instance-b.json":
            argv += ["--witness", str(FIXTURE_DIR / "instance-b-witness.json")]

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(mutated_documents(json.loads((FIXTURE_DIR / name).read_text())))
    def check(doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (cli.EXIT_PASS, cli.EXIT_MATH_FAIL, cli.EXIT_IO,
                        cli.EXIT_EXHAUSTED)
        assert len(err.getvalue().splitlines()) <= 1

    check()


def test_analyze_finds_witness(capsys):
    code, out, _ = run(["analyze", "--fixture", "instance-b"], capsys)
    assert code == 0
    assert "witness found" in out


@pytest.mark.parametrize("budget, expected", [
    ("0", cli.EXIT_EXHAUSTED), ("-1", cli.EXIT_IO)], ids=["zero", "negative"])
def test_analyze_budget_exhaustion(capsys, budget, expected):
    code, out, err = run(
        ["analyze", "--fixture", "instance-b3", "--budget-l", budget], capsys)
    assert code == expected
    if expected == cli.EXIT_EXHAUSTED:
        assert "NOT a proof" in out
    else:
        assert "--budget-l: -1 is negative" in err


def test_graded_command(capsys):
    code, out, _ = run(["graded", "--fixture", "instance-b"], capsys)
    assert code == 0
    assert "semiramification" in out
    assert "absence audit" in out


def test_graded_failing_pair_witness_is_a_math_failure(monkeypatch, capsys):
    """The report checks every witness the pair scan emits; a failing one is
    a failed line of the report, not an exception."""
    monkeypatch.setattr(cp, "check_pair_witness", lambda alg, w: False)
    code, out, err = run(["graded", "--fixture", "instance-b"], capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert "[FAIL] every commuting noncyclic pair emitted a passing witness" in out
    assert err == ""


def test_graded_checks_its_fallback_pair_witness(monkeypatch, capsys):
    """instance-b3's scan emits no pair witness, so the converse line runs
    on the pair derived from the strong witness and checks it."""
    monkeypatch.setattr(cp, "check_pair_witness", lambda alg, w: False)
    code, out, err = run(["graded", "--fixture", "instance-b3"], capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert err == ""
    fails = [text for text in out.splitlines() if "[FAIL]" in text]
    assert len(fails) == 1
    assert fails[0].startswith("  [FAIL] converse: witness pair elements commute")


def test_graded_rejects_cyclic_group(tmp_path, capsys):
    from fractions import Fraction

    from acplab import crossed_product as cp
    from acplab.field_core import GaloisExtensionPresentation

    ext = fixtures.SimpleExtension(
        "r", 2, (Fraction(2), Fraction(0)), auto_image=(Fraction(0), Fraction(-1)))
    pres = ext.presentation(name="rank1")
    rank1 = GaloisExtensionPresentation(
        (2,), pres.basis_labels, pres.structure_constants, pres.unit_coords,
        [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]], name="rank1")
    alg = cp.CrossedProductAlgebra(rank1, fixtures.trivial_cocycle(rank1))
    path = tmp_path / "rank1.json"
    serialize.save(path, serialize.algebra_to_doc(alg))
    code, _out, err = run(["graded", "--fixture", str(path)], capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert "noncyclic" in err


def test_validate_presentation_only_document(tmp_path, capsys, b_field):
    path = tmp_path / "pres.json"
    serialize.save(path, serialize.presentation_to_doc(b_field))
    code, _out, _err = run(["validate", "--fixture", str(path)], capsys)
    assert code == 0


def test_descend_command(capsys):
    code, out, _ = run(
        ["descend", "--fixture", "instance-b", "--composite", "b-cuberoot2",
         "--exponent", "2"], capsys)
    assert code == 0
    assert "stage 5" in out


def test_descend_composite_over_a_smaller_group(tmp_path, capsys):
    doc = serialize.load_document(FIXTURE_DIR / "composite-b-cuberoot2.json")
    del doc["composite"]["orders"][-1]
    del doc["composite"]["sigma"][-1]
    path = tmp_path / "smaller.json"
    serialize.save(path, doc)
    code, out, err = run(["descend", "--fixture", "instance-b", "--composite", str(path),
                          "--exponent", "2"], capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert out == ""
    assert err.splitlines() == [
        "mathematical failure: composite rejected: same group signature"]


def test_descend_requires_exponent(capsys):
    code, _out, err = run(
        ["descend", "--fixture", "instance-b", "--composite", "b-cuberoot2"],
        capsys)
    assert code == cli.EXIT_IO


def test_descend_with_witness_file(capsys):
    code, out, _ = run(
        ["descend", "--fixture", "instance-b",
         "--composite", str(FIXTURE_DIR / "composite-b-cuberoot2.json"),
         "--witness", str(FIXTURE_DIR / "instance-b-witness.json"),
         "--exponent", "2"], capsys)
    assert code == 0


def test_descend_builtin_and_file_inputs_agree(capsys):
    """A builtin composite binds to a file-loaded fixture as a file does."""
    reports = []
    for fixture in ("instance-b", str(FIXTURE_DIR / "instance-b-witness.json")):
        for composite in ("b-cuberoot2", str(FIXTURE_DIR / "composite-b-cuberoot2.json")):
            code, out, _ = run(["descend", "--fixture", fixture, "--composite", composite,
                                "--exponent", "2", "--format", "report"], capsys)
            assert code == 0, (fixture, composite)
            reports.append(json.loads(out)["reports"])
    assert all(r == reports[0] for r in reports)


def _edited(tmp_path, source, keys, value):
    """The document source (a fixture name, or an empty element list for
    None) with the entry at keys replaced by value, saved; returns its path."""
    doc = (serialize.elements_to_doc([]) if source is None
           else serialize.load_document(FIXTURE_DIR / source))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "edited.json"
    serialize.save(path, doc)
    return str(path)


GRADED_WITNESS = ["graded", "--fixture", "instance-b", "--witness"]


@pytest.mark.parametrize("argv, source, keys, value", [
    (["analyze", "--fixture", "instance-b", "--candidates"], None, ("elements",), [["1", "0"]]),
    (GRADED_WITNESS, "instance-b-witness.json", ("coeff",), ["0", "1"]),
    (GRADED_WITNESS, "instance-b-witness.json", ("exponent",), [1]),
    (GRADED_WITNESS, "instance-b-witness.json", ("exponent",), ["a", 1]),
], ids=["short-candidate", "short-coeff", "short-exponent", "string-exponent"])
def test_malformed_vectors_and_exponents_are_input_errors(tmp_path, capsys, argv, source,
                                                          keys, value):
    code, _out, err = run(argv + [_edited(tmp_path, source, keys, value)], capsys)
    assert code == cli.EXIT_IO
    assert len(err.splitlines()) <= 1


@pytest.mark.parametrize("argv", [
    ["graded", "--fixture"],
    ["graded", "--fixture", "instance-b", "--witness"],
], ids=["fixture-witness", "supplied-witness"])
def test_graded_failing_witness_is_one_fail_line(tmp_path, capsys, argv):
    """A witness that fails its check is reported, never skipped."""
    path = _edited(tmp_path, "instance-b-witness.json", ("coeff",), ["1", "0", "0", "0"])
    code, out, err = run(argv + [path], capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert err == ""
    fails = [line for line in out.splitlines() if "[FAIL]" in line]
    assert len(fails) == 1
    assert "witness passes the strong degeneracy check" in fails[0]


# Each producer below is replaced by one returning a tampered result; the
# report line that prints the claim must catch it on its own.

def _moved(x, m):
    """x times 1 + b for a basis element b that s^m moves, which changes
    the twisted ratio s^m(x)/x."""
    ext = x.field
    b = next(b for b in ext.basis() if ext.apply_automorphism(m, b) != b)
    return x * (ext.one() + b)


def _tampered_strong(w):
    return dataclasses.replace(
        w, solutions=(_moved(w.solutions[0], w.exponent),) + w.solutions[1:])


def _patch_result(monkeypatch, module, name, tamper):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: tamper(original(*a, **k)))


def _tampered_twists(data):
    u = data.twists[0][1]
    row = (data.twists[0][0], u + u) + data.twists[0][2:]
    return dataclasses.replace(data, twists=(row,) + data.twists[1:])


@pytest.mark.parametrize("name, tamper, line", [
    ("extend_cocycle", _tampered_twists, "stage 1: extend data to the composite"),
    ("norm_descend_witness", lambda r: (r[0], _tampered_strong(r[1])),
     "stage 3: norm descent to the powered data"),
    ("bezout_certificate", lambda r: (r[0], r[1] + 1), "stage 4: Bezout certificate"),
    ("power_witness", lambda r: (r[0], _tampered_strong(r[1])), "stage 5: witness powering"),
], ids=["stage-1", "stage-3", "stage-4", "stage-5"])
def test_descend_stage_checks_its_own_result(monkeypatch, capsys, name, tamper, line):
    _patch_result(monkeypatch, xl, name, tamper)
    code, out, err = run(["descend", "--fixture", "instance-b", "--composite",
                          "b-cuberoot2", "--exponent", "2"], capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert err == ""
    fails = [text for text in out.splitlines() if "[FAIL]" in text]
    assert fails[0].startswith(f"  [FAIL] {line}")


@pytest.mark.parametrize("name, tamper, line", [
    ("witness_to_central_element", lambda elem: elem.context.one(),
     "central monomial is prime-power central"),
    ("search_pair_degeneracy",
     lambda out: dataclasses.replace(out, witness=dataclasses.replace(
         out.witness, elem2=_moved(out.witness.elem2, out.witness.exp2))),
     "pair witness found"),
], ids=["central-monomial", "pair-witness"])
def test_analyze_line_checks_its_own_result(monkeypatch, capsys, name, tamper, line):
    _patch_result(monkeypatch, cp, name, tamper)
    code, out, err = run(["analyze", "--fixture", "instance-b"], capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert err == ""
    fails = [text for text in out.splitlines() if "[FAIL]" in text]
    assert len(fails) == 1
    assert fails[0].startswith(f"  [FAIL] {line}")


@pytest.mark.parametrize("unit", [[1, 0, 0, 0], ["2/2", "0", "0", "0"]],
                         ids=["json-integers", "unreduced"])
@pytest.mark.parametrize("command", [
    GRADED_WITNESS,
    ["descend", "--fixture", "instance-b", "--composite", "b-cuberoot2", "--exponent", "2",
     "--witness"]], ids=["graded", "descend"])
def test_witness_extension_is_compared_by_value(tmp_path, capsys, command, unit):
    path = _edited(tmp_path, "instance-b-witness.json", ("algebra", "extension", "unit"), unit)
    code, _out, err = run(command + [path], capsys)
    assert code == 0, err


@pytest.mark.parametrize("source, unit", [
    ("instance-b3-witness.json", None), ("instance-b-witness.json", ["x", "0", "0", "0"])],
    ids=["other-extension", "unparseable-extension"])
def test_witness_over_another_extension_is_an_input_error(tmp_path, capsys, source, unit):
    path = (str(FIXTURE_DIR / source) if unit is None
            else _edited(tmp_path, source, ("algebra", "extension", "unit"), unit))
    code, _out, err = run(GRADED_WITNESS + [path], capsys)
    assert code == cli.EXIT_IO
    assert err.splitlines() == ["input error: witness was recorded over a different extension"]


def test_report_format_is_json_and_deterministic(capsys):
    code, out1, _ = run(
        ["analyze", "--fixture", "instance-b", "--format", "report"], capsys)
    assert code == 0
    payload = json.loads(out1)
    assert payload["command"] == "analyze"
    assert payload["config"]["seed"] == 0
    _code, out2, _ = run(
        ["analyze", "--fixture", "instance-b", "--format", "report"], capsys)
    assert out1 == out2


def test_candidates_file_extends_search(tmp_path, capsys, b3_algebra, b3_witness):
    doc = serialize.elements_to_doc([b3_witness.coeff])
    path = tmp_path / "extra.json"
    serialize.save(path, doc)
    # keep only the extension: budget excludes the default set entirely
    defaults = len(cp.default_candidates(b3_algebra.ext))
    code, out, _ = run(
        ["analyze", "--fixture", "instance-b3", "--candidates", str(path),
         "--budget-l", str(defaults + 1)], capsys)
    assert code == 0


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def test_demo(capsys):
    for fmt in ("table", "report"):
        code, out, _ = run(["demo", "--format", fmt], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / f"demo-{fmt}.txt").read_text(), fmt


REPO_ROOT = FIXTURE_DIR.parent
CLI_GOLDEN_DIR = GOLDEN_DIR / "cli"
CLI_GOLDEN_JOBS = {
    f"{command}-{fixture}": [command, "--fixture", f"fixtures/{fixture}.json"]
    for fixture in ("instance-b", "instance-b-witness", "instance-b3",
                    "instance-b3-witness")
    for command in ("validate", "analyze", "graded")
}
CLI_GOLDEN_JOBS.update({
    f"descend-{composite}": [
        "descend", "--fixture", f"fixtures/{fixture}.json",
        "--composite", f"fixtures/composite-{composite}.json",
        "--exponent", exponent]
    for fixture, composite, exponent in (("instance-b-witness", "b-cuberoot2", "2"),
                                         ("instance-b3-witness", "b3-sqrt5", "3"))
})


@pytest.mark.parametrize("job", sorted(CLI_GOLDEN_JOBS))
def test_cli_report_matches_golden(monkeypatch, capsys, job):
    # the report echoes the fixture path, so run from the repository root
    monkeypatch.chdir(REPO_ROOT)
    code, out, _ = run(CLI_GOLDEN_JOBS[job] + ["--format", "report", "--seed", "0"],
                       capsys)
    codes = json.loads((CLI_GOLDEN_DIR / "exit-codes.json").read_text())
    assert code == codes[job]
    assert out == (CLI_GOLDEN_DIR / f"{job}.txt").read_text(encoding="utf-8")


def test_each_job_validates_its_relations_once(monkeypatch, capsys):
    """Relations are checked once per report, and exponents that are
    already canonical are not canonicalised again: counted by wrapping, on
    the golden jobs with seed 0."""
    monkeypatch.chdir(REPO_ROOT)
    calls = {"relations": 0, "exp_canon": 0}
    validate_relations = cp.validate_relations
    exp_canon = GaloisExtensionPresentation.exp_canon

    def counted_relations(*args):
        calls["relations"] += 1
        return validate_relations(*args)

    def counted_canon(self, m):
        calls["exp_canon"] += 1
        return exp_canon(self, m)

    monkeypatch.setattr(cp, "validate_relations", counted_relations)
    monkeypatch.setattr(xl, "validate_relations", counted_relations)
    monkeypatch.setattr(GaloisExtensionPresentation, "exp_canon", counted_canon)
    limits = {"validate": 1, "analyze": 1, "graded": 2, "descend": 1}
    canon = {}
    for job, argv in sorted(CLI_GOLDEN_JOBS.items()):
        calls.update(relations=0, exp_canon=0)
        run(argv + ["--format", "report", "--seed", "0"], capsys)
        command = argv[0]
        assert 1 <= calls["relations"] <= limits[command], job
        canon[job] = calls["exp_canon"]
    assert canon["graded-instance-b3"] <= 200
    assert sum(canon.values()) <= 820


def test_descend_failing_witness_is_named_on_stage_2(tmp_path, capsys):
    path = _edited(tmp_path, "instance-b-witness.json", ("coeff",), ["1", "0", "0", "0"])
    code, out, err = run(["descend", "--fixture", "instance-b", "--composite", "b-cuberoot2",
                          "--exponent", "2", "--witness", path], capsys)
    assert code == cli.EXIT_MATH_FAIL
    assert err == ""
    fails = [text for text in out.splitlines() if "[FAIL]" in text]
    assert len(fails) == 1
    assert fails[0].startswith("  [FAIL] stage 2: witness valid over the composite  (m=(1, 1), l=1,")
