"""Structural properties of the invariants on builtin and random inputs.

Exact inequalities are tested exactly: monotonicity of power means via
cross-powers, subadditivity via squared comparisons, never through floats.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_fans, fan_input, random_spherical_input, random_toric_input
from kstab.fixtures import builtin_spherical_input
from kstab.geom import dot, vec, vsub
from kstab.invariants import (
    InvariantError,
    S_p,
    T_max,
    _candidate_rows,
    alpha,
    beta_g,
    delta_g,
    delta_p,
    ding_check,
)
from kstab.soliton import ReebProblem, SolitonError, solve_reeb
from kstab.spherical import (
    ColoredConeData,
    OutsideFanSupportError,
    SphericalDataError,
    build_pl_function,
)

P_RANGE = (1, 2, 3, 4)
SCALES = (F(2), F(7), F(1, 3))


def _sample_rays_in_cone(si, rng, count=2):
    """Random nonzero integer combinations of the rays of one fan piece
    intersected with the valuation cone."""
    piece = si.fan_meets[rng.randrange(len(si.fan))]
    rays = list(piece.rays)
    if not rays:
        return []
    out = []
    for _ in range(count):
        v = vec([0] * si.rank)
        while all(c == 0 for c in v):
            v = vec([0] * si.rank)
            for r in rays:
                k = rng.randint(0, 3)
                v = tuple(x + k * y for x, y in zip(v, r))
        out.append(v)
    return out


def _power_mean_monotone(si, v):
    values = [S_p(si, v, p).exact for p in P_RANGE]
    assert all(s >= 0 for s in values)
    for (p, sp), (q, sq) in zip(zip(P_RANGE, values), list(zip(P_RANGE, values))[1:]):
        # S_p^(1/p) <= S_q^(1/q)  <=>  S_p^q <= S_q^p for positive values
        assert sp ** q <= sq ** p


def _ray_scaling_invariance(si, v):
    for p in (1, 2):
        base = S_p(si, v, p).exact
        a = si.log_discrepancy(v)
        for c in SCALES:
            w = tuple(c * x for x in v)
            scaled = S_p(si, w, p).exact
            # S_p(cv) = c^p S_p(v), so A^p/S_p is invariant
            assert scaled == c ** p * base
            assert si.log_discrepancy(w) == c * a
            assert T_max(si, w) == c * T_max(si, v)


def _minkowski_subadditive(si, v1, v2):
    v12 = tuple(a + b for a, b in zip(v1, v2))
    for p in (1, 2):
        s1 = S_p(si, v1, p).exact
        s2 = S_p(si, v2, p).exact
        s12 = S_p(si, v12, p).exact
        if p == 1:
            assert s12 <= s1 + s2 or s12 == s1 + s2
        else:
            # sqrt(s12) <= sqrt(s1) + sqrt(s2), squared (all nonnegative)
            lhs = s12 - s1 - s2
            assert lhs <= 0 or lhs ** 2 <= 4 * s1 * s2


def _beta_two_routes(si, v):
    b = beta_g(si, v)
    assert b.from_integral.exact is not None
    assert b.from_integral.exact == b.from_barycenter.exact


def _alpha_below_delta(si):
    assert alpha(si).value.exact <= delta_p(si, 1).value.exact


def _delta_monotone_in_p(si):
    reports = [delta_p(si, p) for p in P_RANGE]
    vals = [r.value.value for r in reports]
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(vals, vals[1:]))


def _run_battery(si, rng):
    _alpha_below_delta(si)
    _delta_monotone_in_p(si)
    for v in si.candidates:
        _power_mean_monotone(si, v)
        _ray_scaling_invariance(si, v)
        _beta_two_routes(si, v)
    pair = _sample_rays_in_cone(si, rng)
    if len(pair) == 2:
        _minkowski_subadditive(si, *pair)


def test_properties_on_builtin_fixtures(all_builtins):
    rng = random.Random(1)
    for si in all_builtins.values():
        _run_battery(si, rng)


@pytest.mark.parametrize("seed", range(50))
def test_properties_on_random_inputs(seed):
    rng = random.Random(1000 + seed)
    si = random_spherical_input(rng)
    _run_battery(si, rng)


def test_every_candidate_row_has_a_positive_maximum(all_builtins):
    # <x, v> + l(v) is nonnegative at the vertices of the full-dimensional
    # section polytope, on which a nonzero ray is not constant, so T > 0
    inputs = [*all_builtins.values(),
              *(random_spherical_input(random.Random(1000 + seed)) for seed in range(50))]
    for si in inputs:
        for s in (si, si.anticanonical):
            rows = _candidate_rows(s)
            assert len(rows) == len(si.candidates)
            assert all(row.record.t_max > 0 for row in rows)


def _moved(si, chi):
    """si with only its section moved by the character chi, n_D ->
    n_D + <rho(D), chi>: the same line bundle, its section polytope
    translated by -chi."""
    divisors = tuple(dataclasses.replace(d, coeff=d.coeff + dot(d.rho, chi)) for d in si.divisors)
    return dataclasses.replace(si, divisors=divisors)


def _answers(si, weights):
    """Every answer that a moved section must leave alone, by label: a
    refusal by its type and message."""
    calls = {("delta", p): lambda p=p: delta_p(si, p) for p in (1, 2, F(3, 2))}
    calls["alpha"] = lambda: alpha(si)
    for v in si.candidates:
        calls["S", v] = lambda v=v: [S_p(si, v, p) for p in (1, 2, F(3, 2))]
        calls["T", v] = lambda v=v: T_max(si, v)
        calls["level_sum", v] = lambda v=v: [si.level_sum(v, k, p) for k in (1, 2) for p in (1, 2)]
    for name, g in [("none", None), *weights.items()]:
        calls["check", name] = lambda g=g: ding_check(si, g)
        calls["delta_g", name] = lambda g=g: delta_g(si, g)
        for v in si.candidates:
            calls["beta", name, v] = lambda v=v, g=g: beta_g(si, v, g)
    calls["reeb"] = lambda: solve_reeb(ReebProblem.from_spherical(si))
    out = {}
    for label, call in calls.items():
        try:
            out[label] = call()
        except (InvariantError, SolitonError) as e:
            out[label] = type(e), str(e)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_moving_the_section_changes_no_answer(seed):
    # P = 1 on these inputs, so the density does not move with the section:
    # delta^(p), alpha, S, T and the level sums read the moved section, and
    # check, beta, delta^g and xi read the anticanonical one, which stays
    from test_invariants import _weights

    rng = random.Random(seed)
    if seed < 4:
        base = builtin_spherical_input(("toric-p1", "toric-bl1p2")[seed % 2])[0]
    else:
        base = random_toric_input(rng)
        while base.dh.factors:
            base = random_toric_input(rng)
    chi = vec([0] * base.rank)
    while not any(chi):
        chi = vec([rng.randint(-3, 3) for _ in range(base.rank)])
    moved = _moved(base, chi)
    assert moved.anticanonical is not moved
    weights = _weights(base)
    assert _answers(moved, weights) == _answers(base, weights)


@settings(max_examples=15, deadline=None)
@given(complete_fans(ranks=(3,)), st.integers(0, 10 ** 6))
def test_beta_two_routes_on_rank3_fans(case, seed):
    si = fan_input(*case)
    for v in si.candidates + _sample_rays_in_cone(si, random.Random(seed)):
        _beta_two_routes(si, v)


# ---------------------------------------------------------------------------
# hypothesis: scaling of level sums and support-function sanity


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4))
def test_level_sum_scaling_in_k(seed, k):
    rng = random.Random(seed)
    si = random_spherical_input(rng)
    if not si.dh.supports_dimension_counts:
        return
    v = si.candidates[0]
    s, d, t = si.level_sum(v, k, 1)
    assert d >= 1
    assert t >= s >= 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_support_function_positive_homogeneity(seed):
    rng = random.Random(seed)
    si = random_spherical_input(rng)
    h = si.log_discrepancy
    for v in si.candidates:
        for c in (2, 5):
            w = tuple(F(c) * x for x in v)
            try:
                assert h(w) == c * h(v)
            except OutsideFanSupportError:
                raise AssertionError("scaled candidate left the fan support")


@settings(max_examples=40, deadline=None)
@given(complete_fans(ranks=(2, 3)), st.data())
def test_wall_check_decides_like_the_all_pairs_check(case, data):
    # one divisor dropped from one cone's incidence list; the oracle
    # compares every two pieces over their whole meet inside V
    rays, cones, vcone = case
    si = fan_input(rays, cones, vcone)
    k = data.draw(st.integers(0, len(si.fan) - 1))
    names = si.fan[k].divisor_names
    drop = data.draw(st.integers(0, len(names) - 1))
    cone = ColoredConeData(si.fan[k].generators, names[:drop] + names[drop + 1:])
    si = dataclasses.replace(si, fan=si.fan[:k] + (cone,) + si.fan[k + 1:])
    pl = build_pl_function(si.divisors, si.fan, si.fan_meets)
    disagree = any(dot(vsub(a.linear, b.linear), g) != 0
                   for a, b in itertools.combinations(pl.pieces, 2)
                   for g in a.cone.intersect(b.cone).generators)
    if disagree:
        with pytest.raises(SphericalDataError, match="disagree on the wall"):
            si.section_support
    else:
        si.section_support
