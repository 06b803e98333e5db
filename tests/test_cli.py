"""Command-line behavior: formats, determinism, exit codes, schema."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from kstab.cli import main
from kstab.fixtures import BUILTIN_NAMES, builtin_document
from kstab.schema import INPUT_SCHEMA, parse_input_document, validate_document


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pgl2_path(tmp_path):
    path = tmp_path / "pgl2.json"
    path.write_text(json.dumps(builtin_document("pgl2"), indent=2) + "\n")
    return str(path)


@pytest.fixture()
def p1_path(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(builtin_document("toric-p1"), indent=2) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# builtins


def test_builtin_emission_round_trip(capsys):
    for name in BUILTIN_NAMES:
        code, out, _ = run_cli(["builtin", name], capsys)
        assert code == 0
        doc = json.loads(out)
        validate_document(doc)
        assert json.dumps(doc, indent=2) + "\n" == out
        parse_input_document(doc)  # full semantic validation


def test_builtin_unknown_name(capsys):
    code, _, err = run_cli(["builtin", "nope"], capsys)
    assert code == 2
    assert "nope" in err


def test_builtin_pgl2_content(capsys):
    _, out, _ = run_cli(["builtin", "pgl2"], capsys)
    doc = json.loads(out)
    facets = [(d["rho"], d["coeff"]) for d in doc["variety"]["divisors"]]
    assert (["-1"], "1") in facets and (["2"], "2") in facets
    assert doc["variety"]["valuation_cone"] == {"generators": [["-1"]]}
    assert doc["root_system"]["squared"] is True


# ---------------------------------------------------------------------------
# compute


def test_compute_delta_exact(pgl2_path, capsys):
    code, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "delta", "--p", "1"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["exact"] == "2/1"
    assert doc["minimizing_rays"] == [["-1/1"]]


def test_compute_alpha_exact(pgl2_path, capsys):
    code, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "alpha"], capsys)
    assert code == 0
    assert json.loads(out)["value"]["exact"] == "1/2"


def test_compute_barycenter(pgl2_path, capsys):
    code, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "barycenter"], capsys)
    assert code == 0
    assert json.loads(out)["barycenter"][0]["exact"] == "1/2"


def test_compute_beta_requires_ray(pgl2_path, capsys):
    code, _, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "beta"], capsys)
    assert code == 2
    code, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "beta", "--ray", "-1"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["from_integral"]["exact"] == "1/2"
    assert doc["from_barycenter"]["exact"] == "1/2"


def test_compute_beta_reads_a_ray_that_starts_with_a_minus(tmp_path, capsys):
    # the first candidate ray of wonderful-a2 is (-1, 0)
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(builtin_document("wonderful-a2")))
    base = ["compute", "--input", str(path), "--invariant", "beta"]
    code, out, err = run_cli([*base, "--ray", "-1,0"], capsys)
    assert (code, err) == (0, "")
    assert run_cli([*base, "--ray=-1,0"], capsys) == (0, out, "")
    assert json.loads(out)["ray"] == ["-1/1", "0/1"]
    with pytest.raises(SystemExit) as exc:
        main([*base, "--ray", "--format", "json"])
    assert exc.value.code == 2
    assert "argument --ray: expected one argument" in capsys.readouterr().err


def test_compute_missing_file(capsys):
    code, _, _ = run_cli(
        ["compute", "--input", "/nonexistent.json", "--invariant", "alpha"],
        capsys)
    assert code == 1


@pytest.mark.parametrize("ray, message", [
    ("1/0,1", "--ray: '1/0' is not an integer or a rational a/b"),
    ("1,x", "--ray: 'x' is not an integer or a rational a/b"),
    ("1", "--ray: 1 coordinate(s) given, the input has rank 2"),
    ("1,0,0", "--ray: 3 coordinate(s) given, the input has rank 2"),
    ("0,0", "--ray: the zero vector is not a valuation ray"),
], ids=["1/0,1", "1,x", "1", "1,0,0", "0,0"])
def test_compute_beta_refuses_a_ray_that_is_not_one(tmp_path, capsys, ray, message):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(builtin_document("wonderful-a2")))
    code, out, err = run_cli(
        ["compute", "--input", str(path), "--invariant", "beta", f"--ray={ray}"], capsys)
    assert (code, out, err) == (2, "", f"kstab: invalid input: {message}\n")


def test_compute_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(
        ["compute", "--input", str(bad), "--invariant", "alpha"], capsys)
    assert code == 2


def test_compute_unknown_field_rejected(tmp_path, capsys):
    doc = builtin_document("pgl2")
    doc["surprise"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        ["compute", "--input", str(path), "--invariant", "alpha"], capsys)
    assert code == 2
    assert "surprise" in err or "additional" in err.lower()


def test_compute_not_q_cartier_exit_code(tmp_path, capsys):
    doc = builtin_document("toric-p1")
    # make the per-cone system inconsistent: two incident divisors with
    # proportional images and mismatched coefficients
    doc["variety"]["divisors"].append(
        {"name": "Dbad", "rho": ["2"], "coeff": "3", "is_color": False})
    doc["variety"]["anticanonical_divisors"].append(
        {"name": "Dbad", "rho": ["2"], "coeff": "3", "is_color": False})
    doc["variety"]["fan"][0]["divisors"].append("Dbad")
    path = tmp_path / "nq.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        ["compute", "--input", str(path), "--invariant", "delta"], capsys)
    assert code == 3
    assert "NotQCartier" in err


@pytest.mark.parametrize("p", ["0", "-1", "0.5", "1/2"])
@pytest.mark.parametrize("g", [None, '{"affine_power": {"xi": ["1"], "a": "3", "exponent": 2}}'])
def test_compute_refuses_p_below_one(p1_path, capsys, p, g):
    argv = ["compute", "--input", p1_path, "--invariant", "delta", f"--p={p}"]
    code, out, err = run_cli(argv + (["--g", g] if g else []), capsys)
    assert (code, out) == (2, "")
    assert err == "kstab: invalid input: --p: the moment exponent must be at least 1\n"


@pytest.mark.parametrize("p", ["inf", "nan", "x", "3/0", "3/", "3/2\n", "\u0663/2"])
def test_compute_refuses_p_that_is_not_a_finite_number(p1_path, capsys, p):
    code, out, err = run_cli(
        ["compute", "--input", p1_path, "--invariant", "delta", f"--p={p}"], capsys)
    assert (code, out) == (2, "")
    assert err == f"kstab: invalid input: --p: the moment exponent must be a finite number, not {p!r}\n"


def test_compute_reads_a_rational_p(p1_path, capsys):
    # a/b is read as the exact Fraction, with the answer of its decimal
    outs = []
    for p in ("3/2", "1.5"):
        code, out, err = run_cli(
            ["compute", "--input", p1_path, "--invariant", "delta", "--p", p], capsys)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["p"] == 1.5


def test_compute_reads_an_integral_float_rank(tmp_path, capsys):
    # Draft 2020-12 counts 1.0 as an integer: the answer is that of rank 1
    answers = []
    for rank in (1, 1.0):
        doc = builtin_document("toric-p1")
        doc["variety"]["rank"] = rank
        path = tmp_path / f"p1-{rank}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["check", "--input", str(path)], capsys)
        assert (code, err) == (0, "")
        answers.append({k: v for k, v in json.loads(out).items() if k != "input_sha256"})
    assert answers[0] == answers[1]


@pytest.mark.parametrize("coeff", ["1\n", "\u0661"])
def test_compute_refuses_a_rational_outside_the_wire_format(tmp_path, capsys, coeff):
    doc = builtin_document("toric-p1")
    doc["variety"]["divisors"][0]["coeff"] = coeff
    path = tmp_path / "bad-coeff.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["check", "--input", str(path)], capsys)
    assert code == 2
    assert err.startswith("kstab: invalid input: at variety/divisors/0/coeff: ")


def test_compute_weighted_delta(pgl2_path, capsys):
    code, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "delta",
         "--g", '{"constant": "7"}'], capsys)
    assert code == 0
    assert json.loads(out)["value"]["exact"] == "2/1"


@pytest.mark.parametrize("g", ['5', '{"constant": "x"}',
                               '{"affine_power": {"xi": ["1"], "a": "1"}}'])
def test_invalid_g_reports_best_schema_error(pgl2_path, capsys, g):
    # same message as validating the block against its sub-schema afresh
    import jsonschema
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(json.loads(g), INPUT_SCHEMA["properties"]["weight_fn"])
    code, out, err = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "alpha", "--g", g], capsys)
    assert code == 2 and out == ""
    assert err == f"kstab: invalid input: --g: {ref.value.message}\n"


def test_g_parse_errors_carry_the_flag_prefix(p1_path, capsys):
    g = '{"polynomial": {"dim": 1, "terms": [{"exponent": [1, 0], "coeff": "1"}]}}'
    code, out, err = run_cli(
        ["compute", "--input", p1_path, "--invariant", "barycenter", "--g", g], capsys)
    assert code == 2 and out == ""
    assert err == "kstab: invalid input: --g: polynomial exponent length != dim\n"


_UNWEIGHTED = [(["compute", "--invariant", "alpha"], "compute --invariant alpha"),
               (["reeb"], "reeb")]
_P1_WEIGHTS = [{"polynomial": {"dim": 1, "terms": [{"exponent": [2], "coeff": "1"},
                                                   {"exponent": [0], "coeff": "2"}]}},
               {"affine_power": {"xi": ["1/5"], "a": "3", "exponent": 0.5}}]


@pytest.mark.parametrize("command, name", _UNWEIGHTED)
@pytest.mark.parametrize("g", _P1_WEIGHTS)
def test_unweighted_commands_refuse_a_weight_flag(p1_path, capsys, command, name, g):
    code, out, err = run_cli([*command, "--input", p1_path, "--g", json.dumps(g)], capsys)
    assert code == 2 and out == ""
    assert err == f"kstab: invalid input: --g: {name} takes no weight\n"
    # a constant weight cancels, so it is no weight to refuse
    code, _, _ = run_cli([*command, "--input", p1_path, "--g", '{"constant": "3"}'], capsys)
    assert code == 0


@pytest.mark.parametrize("command, name", _UNWEIGHTED)
@pytest.mark.parametrize("g", _P1_WEIGHTS)
def test_unweighted_commands_note_an_ignored_document_weight(tmp_path, capsys, command, name, g):
    doc = builtin_document("toric-p1")
    doc["weight_fn"] = g
    weighted = tmp_path / "weighted.json"
    weighted.write_text(json.dumps(doc))
    code, out, err = run_cli([*command, "--input", str(weighted)], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report.pop("notes") == [f"weight_fn ignored: {name} takes no weight"]
    code, out, _ = run_cli([*command, "--input", _document(tmp_path, "toric-p1")], capsys)
    plain = json.loads(out)
    assert code == 0 and "notes" not in plain
    report.pop("input_sha256"), plain.pop("input_sha256")
    assert report == plain


def _document(tmp_path, name, weight_fn=None):
    doc = builtin_document(name)
    if weight_fn is not None:
        doc["weight_fn"] = weight_fn
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name, g, dim, rows", [
    ("pgl2", {"polynomial": {"dim": 1, "terms": [{"exponent": [2], "coeff": "1"},
                                                 {"exponent": [0], "coeff": "2"}]}}, 1, 0),
    ("pgl2", {"affine_power": {"xi": ["1/5"], "a": "3", "exponent": 0.5}}, 1, 0),
    ("toric-bl1p2", {"polynomial": {"dim": 3, "terms": [{"exponent": [2, 0, 0], "coeff": "1"},
                                                        {"exponent": [0, 0, 0], "coeff": "2"}]}},
     3, 2),
    ("toric-bl1p2", {"affine_power": {"xi": ["1/5"], "a": "3", "exponent": 2}}, 1, 2),
])
def test_weight_of_wrong_dimension_is_invalid(tmp_path, capsys, name, g, dim, rows):
    # a weight takes one coordinate per projection row, in --g and in the
    # document alike
    message = (f"the weight has dimension {dim}, but the projection has {rows} rows "
               "(one weight coordinate per row)\n")
    code, out, err = run_cli(["compute", "--input", _document(tmp_path, name),
                              "--invariant", "barycenter", "--g", json.dumps(g)], capsys)
    assert (code, out, err) == (2, "", "kstab: invalid input: --g: " + message)
    code, out, err = run_cli(["check", "--input", _document(tmp_path, name, g)], capsys)
    assert (code, out, err) == (2, "", "kstab: invalid input: weight_fn: " + message)


def _num(n):
    exact = None if n.exact is None else f"{n.exact.numerator}/{n.exact.denominator}"
    return {"value": n.value, "exact": exact, "error_bound": n.error}


@pytest.mark.parametrize("name, g, ray", [
    ("toric-p1", {"affine_power": {"xi": ["1"], "a": "3", "exponent": 0.5}}, "1"),
    ("toric-bl1p2", {"polynomial": {"dim": 2, "terms": [{"exponent": [2, 0], "coeff": "1"},
                                                        {"exponent": [0, 0], "coeff": "2"}]}},
     "1,0"),
])
def test_weighted_commands_print_the_library_values(tmp_path, capsys, name, g, ray):
    from kstab.invariants import barycenter_g, beta_g, delta_g, ding_check
    from kstab.schema import parse_weight_fn

    si, _ = parse_input_document(builtin_document(name))
    weight = parse_weight_fn(g)
    common = ["--input", _document(tmp_path, name), "--g", json.dumps(g)]

    def run(*args):
        code, out, err = run_cli(list(args) + common, capsys)
        assert code == 0 and err == ""
        return json.loads(out)

    bary = [_num(b) for b in barycenter_g(si, weight)]
    assert run("compute", "--invariant", "barycenter")["barycenter"] == bary
    report = delta_g(si, weight)
    doc = run("compute", "--invariant", "delta")
    assert doc["invariant"] == "delta_g" and doc["barycenter"] == bary
    assert doc["value"] == _num(report.value)
    beta = beta_g(si, [F(c) for c in ray.split(",")], weight)
    doc = run("compute", "--invariant", "beta", "--ray", ray)
    assert doc["from_integral"] == _num(beta.from_integral)
    assert doc["from_barycenter"] == _num(beta.from_barycenter)
    verdict = ding_check(si, weight)
    doc = run("check")
    assert doc["verdict"] == verdict.verdict and doc["barycenter"] == bary


def test_compute_csv_table(pgl2_path, capsys):
    code, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "delta",
         "--format", "csv"], capsys)
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0].startswith("ray,")
    assert lines[1].split(",")[0] == "-1/1"


def test_compute_text_format(pgl2_path, capsys):
    code, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "delta",
         "--format", "text"], capsys)
    assert code == 0
    assert "rays:" in out


def test_reports_are_deterministic(pgl2_path, capsys):
    args = ["compute", "--input", pgl2_path, "--invariant", "delta", "--p", "2"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_out_flag_writes_file(pgl2_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "alpha",
         "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["value"]["exact"] == "1/2"


# ---------------------------------------------------------------------------
# check and reeb


def test_check_pgl2(pgl2_path, capsys):
    code, out, _ = run_cli(["check", "--input", pgl2_path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "polystable"
    assert doc["semistable"] is True and doc["polystable"] is True
    assert doc["exact"] is True


def test_check_p1(p1_path, capsys):
    code, out, _ = run_cli(["check", "--input", p1_path], capsys)
    assert json.loads(out)["verdict"] == "polystable"


def test_check_unstable_with_witness(tmp_path, capsys):
    doc = builtin_document("toric-bl1p2")
    path = tmp_path / "bl.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["check", "--input", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "unstable"
    assert rep["witness"] is not None


def test_reeb_p1(p1_path, capsys):
    code, out, _ = run_cli(["reeb", "--input", p1_path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert abs(doc["xi"][0]) <= 1e-10
    assert doc["gradient_norm"] <= 1e-10


def test_reeb_takes_no_tolerance(p1_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reeb", "--input", p1_path, "--tol", "1e-10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err


def test_reeb_scope_refusal(pgl2_path, capsys):
    code, _, err = run_cli(["reeb", "--input", pgl2_path], capsys)
    assert code == 4
    assert "scope" in err


def test_timing_flag_adds_field(pgl2_path, capsys):
    _, out, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "alpha"], capsys)
    assert json.loads(out)["timing_ms"] is None
    _, out2, _ = run_cli(
        ["compute", "--input", pgl2_path, "--invariant", "alpha", "--timing"],
        capsys)
    assert json.loads(out2)["timing_ms"] > 0


# ---------------------------------------------------------------------------
# schema document


def test_shipped_schema_matches_library():
    import pathlib
    here = pathlib.Path(__file__).resolve().parent.parent
    shipped = json.loads((here / "docs" / "input.schema.json").read_text())
    assert shipped == INPUT_SCHEMA


def test_schema_is_valid_under_its_meta_schema():
    # the library builds its validator without re-checking this constant
    from jsonschema import Draft202012Validator
    from jsonschema.validators import validator_for

    assert validator_for(INPUT_SCHEMA) is Draft202012Validator
    Draft202012Validator.check_schema(INPUT_SCHEMA)
    Draft202012Validator.check_schema(INPUT_SCHEMA["properties"]["weight_fn"])


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "kstab.cli", "builtin", "pgl2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == "1"


def test_integration_failure_exit_code(p1_path, capsys, monkeypatch):
    # moments whose enclosure no working precision makes tight are
    # reported, never used
    import kstab.quad
    monkeypatch.setattr(kstab.quad, "PRECISIONS", (8,))
    g = '{"affine_power": {"xi": ["1"], "a": "3", "exponent": 0.5}}'
    code, out, err = run_cli(["check", "--input", p1_path, "--g", g], capsys)
    assert code == 3
    assert out == ""
    assert "IntegrationError" in err


def test_commands_load_only_what_they_use(tmp_path):
    # numpy serves no command (only the tests' cubature reference),
    # jsonschema the wording of schema rejections, mpmath the interval
    # closed forms (non-integer moments and weights that do not expand); one
    # fresh process runs the commands from the lightest up and reports which
    # of the three are loaded after each stage, a second runs only a check
    # under an affine power, and both run again where numpy cannot be imported
    import kstab
    path = tmp_path / "bl.json"
    path.write_text(json.dumps(builtin_document("toric-bl1p2")))
    bad_doc = builtin_document("toric-bl1p2")
    bad_doc["variety"]["rank"] = 0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad_doc))
    poly = '{"polynomial": {"dim": 2, "terms": [{"exponent": [1, 0], "coeff": "1"}, ' \
        '{"exponent": [0, 0], "coeff": "3"}]}}'
    power = '{"affine_power": {"xi": ["1/3", "0"], "a": "2", "exponent": 0.5}}'
    prelude = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in ('numpy', 'jsonschema', 'mpmath') if sys.modules.get(m))\n"
        "def run(*argv, code=0):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        assert main(list(argv)) == code, argv\n"
        "    return err.getvalue()\n"
        "import kstab\n"
        "from kstab.cli import main\n"
        f"common = ('--input', {str(path)!r})\n")
    stages = (
        "print('import', loaded())\n"
        "run('builtin', 'pgl2')\n"
        "print('builtin', loaded())\n"
        "run('compute', *common, '--invariant', 'delta', '--p', '1')\n"
        "run('compute', *common, '--invariant', 'alpha')\n"
        "run('compute', *common, '--invariant', 'barycenter')\n"
        "run('compute', *common, '--invariant', 'beta', '--ray', '1,0')\n"
        f"run('compute', *common, '--invariant', 'barycenter', '--g', {poly!r})\n"
        "run('check', *common)\n"
        "print('compute', loaded())\n"
        "run('reeb', *common)\n"
        "print('reeb', loaded())\n"
        f"print(run('compute', '--input', {str(bad_path)!r}, '--invariant', 'alpha', code=2), end='')\n"
        "print(run('check', *common, '--g', '{\"constant\": \"x\"}', code=2), end='')\n"
        "print('reject', loaded())\n")
    power_stage = (
        f"run('check', *common, '--g', {power!r})\n"
        "print('power', loaded())\n")
    src = str(Path(kstab.__file__).resolve().parents[1])

    def loads(code: str, block: str = "") -> list[str]:
        proc = subprocess.run([sys.executable, "-c", block + prelude + code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    expected = [
        "import []",
        "builtin []",
        "compute []",
        "reeb []",
        "kstab: invalid input: at variety/rank: 0 is less than the minimum of 1",
        r"kstab: invalid input: --g: 'x' does not match '^-?[0-9]+(/[1-9][0-9]*)?$(?!\\n)'",
        "reject ['jsonschema']",
    ]
    assert loads(stages) == expected
    assert loads(power_stage) == ["power ['mpmath']"]
    no_numpy = "import sys\nsys.modules['numpy'] = None\n"
    assert loads(stages, no_numpy) == expected
    assert loads(power_stage, no_numpy) == ["power ['mpmath']"]
