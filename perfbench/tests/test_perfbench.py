"""Tests of the benchmark itself: generator determinism, self-time
arithmetic on synthetic spans, and oracle rejections.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import gen, oracle, trace, workloads  # noqa: E402

ITEM_MAKERS = [workloads.exact_items, workloads.numeric_items,
               workloads.cli_items, workloads.walls_items]


def _bytes(items) -> bytes:
    return b"".join(gen.dumps(it.doc).encode() for it in items)


@pytest.mark.parametrize("make", ITEM_MAKERS, ids=lambda f: f.__name__)
def test_same_seed_same_bytes(make):
    first = _bytes(make(11))
    assert first == _bytes(make(11))
    assert first != _bytes(make(12))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_documents_validate_against_published_schema(seed):
    schema = json.loads((ROOT / "docs" / "input.schema.json").read_text())
    for make in ITEM_MAKERS:
        for it in make(seed):
            jsonschema.validate(it.doc, schema)


@pytest.mark.parametrize("seed", range(6))
def test_generated_toric_inputs_are_asymmetric_with_origin_inside(seed):
    for it in workloads.numeric_items(seed):
        if "weight_fn" not in it.doc:
            continue
        verts = set(it.vertices)
        assert {tuple(-c for c in v) for v in verts} != verts
        for d in it.doc["variety"]["divisors"]:
            assert d["coeff"] == "1"  # <u, 0> + 1 > 0: origin strictly inside
        w = it.doc["weight_fn"]["affine_power"]
        xi, a = [Fraction(c) for c in w["xi"]], Fraction(w["a"])
        assert all(sum(x * c for x, c in zip(xi, v)) + a > 0 for v in verts)
        assert w["exponent"] != int(w["exponent"])


def _span(name, start, end, parent=None):
    return trace.Span(name, start, end, parent, None)


def test_self_time_subtracts_children():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 4.0, parent=0),
             _span("c", 2.0, 3.0, parent=1),
             _span("d", 5.0, 6.5, parent=0)]
    assert trace.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 5.0, parent=0),
             _span("c", 4.0, 7.0, parent=0),
             _span("d", 9.0, 12.0, parent=0)]
    assert trace.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_self_times_counts_and_rejections():
    spans = [_span("soliton.solve_reeb", 0.0, 10.0),
             _span("soliton.reeb_functional", 1.0, 2.0, parent=0),
             _span("soliton.reeb_functional", 3.0, 4.0, parent=0),
             _span("soliton.reeb_functional", 5.0, 6.0, parent=0),
             _span("soliton.reeb_functional", 7.0, 8.0, parent=0)]
    spans[0].counts = {"items": 2}
    m = trace.layer_metrics(spans)
    assert m["soliton.solve_reeb_s"] == pytest.approx(6.0)
    assert m["soliton.reeb_functional_calls"] == 4
    assert m["soliton.solve_reeb.items"] == 2
    assert m["soliton.rejected_steps"] == 1  # 4 evaluations = start + 2 accepted + 1


@pytest.fixture(scope="module")
def bl1p2():
    import kstab

    it = workloads._item("toric-bl1p2", kstab.builtin_document("toric-bl1p2"))
    workloads.parse_items([it])
    return it


def _tampered(report, **changes):
    return dataclasses.replace(report, **changes)


def test_oracle_accepts_then_rejects_wrong_delta(bl1p2):
    import kstab
    from kstab.invariants import Num

    answers = {}
    answers["barycenter"] = oracle.check_barycenter(bl1p2, kstab.barycenter_g(bl1p2.si))
    report = kstab.delta_p(bl1p2.si, 1)
    oracle.check_delta(bl1p2, 1, report, answers)
    with pytest.raises(oracle.OracleError):
        oracle.check_delta(bl1p2, 1, _tampered(report, value=Num.from_fraction(Fraction(5, 7))),
                           answers)
    row = report.table[0]
    bad_row = dataclasses.replace(row, s_p=Num.from_fraction(row.s_p.exact + 1))
    with pytest.raises(oracle.OracleError):
        oracle.check_delta(bl1p2, 1, _tampered(report, table=(bad_row,) + report.table[1:]),
                           answers)


def test_oracle_rejects_wrong_verdict_and_beta(bl1p2):
    import kstab
    from kstab.invariants import Num

    answers = {"barycenter": oracle.check_barycenter(bl1p2, kstab.barycenter_g(bl1p2.si))}
    verdict = kstab.ding_check(bl1p2.si)
    oracle.check_ding(bl1p2, verdict, answers)
    with pytest.raises(oracle.OracleError):
        oracle.check_ding(bl1p2, dataclasses.replace(verdict, semistable=True, polystable=True),
                          answers)
    v = (Fraction(1), Fraction(0))
    beta = kstab.beta_g(bl1p2.si, v)
    oracle.check_beta(bl1p2, v, beta, answers)
    wrong = Num.from_fraction(beta.from_barycenter.exact + Fraction(1, 3))
    with pytest.raises(oracle.OracleError):
        oracle.check_beta(bl1p2, v, dataclasses.replace(beta, from_integral=wrong,
                                                        from_barycenter=wrong), answers)


def test_oracle_rejects_numeric_answer_outside_its_error_bound():
    import kstab
    from kstab.invariants import Num

    it = workloads._item("pgl2", kstab.builtin_document("pgl2"))
    workloads.parse_items([it])
    ref = workloads._fractional_reference(it, 1.5, {})
    report = kstab.delta_p(it.si, 1.5)
    oracle.check_delta_frac(it, 1.5, report, ref)
    row = report.table[0]
    shift = 10 * row.s_p.error + 1e-9 * abs(row.s_p.value)
    off = Num.from_float(row.s_p.value + shift, row.s_p.error)
    bad = _tampered(report, table=(dataclasses.replace(row, s_p=off),) + report.table[1:])
    with pytest.raises(oracle.OracleError):
        oracle.check_delta_frac(it, 1.5, bad, ref)


def test_oracle_rejects_moment_outside_log_convexity_bounds(bl1p2):
    import kstab
    from kstab.invariants import Num

    ref = workloads._fractional_reference(bl1p2, 2.5, {})
    report = kstab.delta_p(bl1p2.si, 2.5)
    oracle.check_delta_frac(bl1p2, 2.5, report, ref)
    row = report.table[0]
    _, lo, hi = ref(row.ray, row.log_discrepancy)
    bad_row = dataclasses.replace(row, s_p=Num.from_float(hi * 1.001, row.s_p.error))
    with pytest.raises(oracle.OracleError):
        oracle.check_delta_frac(bl1p2, 2.5, _tampered(report, table=(bad_row,) + report.table[1:]),
                                ref)


def test_oracle_rejects_wrong_cli_output():
    argv = ["compute", "--input", "x.json", "--invariant", "alpha", "--format", "json"]
    good = json.dumps({"value": {"exact": "1/2"}, "rays": [{"s_p": {"exact": "3/4"}}]})
    ref = {"value": "1/2", "s_p": ["3/4"]}
    workloads.check_cli(argv, good.encode(), ref)
    with pytest.raises(oracle.OracleError):
        workloads.check_cli(argv, good.replace("1/2", "2/3").encode(), ref)


def test_benchmark_json_matches_the_metrics_run_reports():
    from perfbench import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.RESULT_END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: u for k, u in run.END_TO_END if k in run.RESULT_END_TO_END}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: u for k, (u, _key) in run.PER_LAYER.items()}
    assert {w["name"] for w in bench["workloads"]} == \
        {"exact-invariants", "numeric-integrals", "cli-roundtrip"}
