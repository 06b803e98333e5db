"""Invariant engines: delta^(p), alpha, barycenters, beta, Ding verdicts."""

import random
from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kstab.invariants
import kstab.powers
import kstab.quad
import kstab.soliton
from conftest import (
    complete_fans,
    fan_input,
    random_toric_input,
    translated_density,
    translated_polytope,
)
from kstab.fixtures import BUILTIN_NAMES, builtin_document, builtin_spherical_input
from kstab.geom import Cone, dot, vec
from kstab.invariants import (
    InvariantError,
    KltViolationError,
    NegativeValuesError,
    S_p,
    T_max,
    alpha,
    barycenter_g,
    beta_g,
    delta_g,
    delta_p,
    ding_check,
)
from kstab.quad import (
    AffineForm,
    AffinePowerWeight,
    ConstantWeight,
    DHDensity,
    DHFactor,
    Expansion,
    PolynomialWeight,
    Polynomial,
    density_expansion,
    dh_moments,
)
from kstab.schema import SchemaValidationError, check_weight_dimension, parse_input_document
from kstab.soliton import ReebProblem, SolitonError, solve_reeb
from kstab.spherical import ColoredConeData, DivisorRecord, SphericalInput


def _interval_input(lo, hi, vcone_gens, fan_side, density=None):
    """Rank-one synthetic datum with section polytope [lo, hi]."""
    recs = (DivisorRecord("R", vec([1]), F(-lo), False),
            DivisorRecord("L", vec([-1]), F(hi), False))
    fan = tuple(ColoredConeData((vec([s]),), ("R" if s > 0 else "L",))
                for s in fan_side)
    return SphericalInput(
        rank=1, dim_x=1,
        divisors=recs, anticanonical_divisors=recs,
        fan=fan, valuation_cone=Cone(1, [vec([g]) for g in vcone_gens]),
        dh=density or DHDensity(1, ()),
        projection=(vec([1]),),
    )


@pytest.fixture(scope="module")
def reflected_pgl2():
    """The rank-one wonderful fixture with its density reflected: the
    weighted barycenter flips to -1/2 while the valuation cone stays."""
    recs = (DivisorRecord("X1", vec([-1]), F(1), False),
            DivisorRecord("D1", vec([2]), F(2), True))
    return SphericalInput(
        rank=1, dim_x=3,
        divisors=recs, anticanonical_divisors=recs,
        fan=(ColoredConeData((vec([-1]),), ("X1",)),),
        valuation_cone=Cone(1, [vec([-1])]),
        dh=DHDensity(1, (DHFactor(AffineForm(vec([-2]), F(2)), 2, F(1)),), F(1)),
        projection=(),
    )


# ---------------------------------------------------------------------------
# S^(p) and T


def test_s1_pgl2(pgl2):
    assert S_p(pgl2, [-1], 1).exact == F(1, 2)


def test_s2_pgl2(pgl2):
    assert S_p(pgl2, [-1], 2).exact == F(2, 5)


def test_s_trivial_valuation(pgl2):
    assert S_p(pgl2, [0], 1).exact == 0


def test_s_noninteger_p_certified(pgl2):
    # oracle: S^(p) = 3 * 2^(p+1) / ((p+1)(p+2)(p+3)) at the candidate ray
    p = 1.5
    expected = 3 * 2 ** (p + 1) / ((p + 1) * (p + 2) * (p + 3))
    s = S_p(pgl2, [-1], p)
    assert s.exact is None
    assert abs(s.value - expected) <= s.error + 1e-10


def test_delta_noninteger_p_error_covers_the_value(pgl2):
    # delta^(p) = A / S^(1/p) with A = 1 at the minimizing ray and S the
    # closed form above; a tight S must not leave a zero error bound
    import mpmath
    with mpmath.workdps(40):
        p = mpmath.mpf(3) / 2
        s = 3 * 2 ** (p + 1) / ((p + 1) * (p + 2) * (p + 3))
        expected = 1 / s ** (1 / p)
    d = delta_p(pgl2, F(3, 2)).value
    assert 0 < d.error <= 1e-13
    assert abs(mpmath.mpf(d.value) - expected) <= d.error


def test_s_noninteger_p_equal_on_symmetric_rays():
    # the three rays of P2 are permuted by its automorphisms, so their
    # moments agree; each enclosure must contain the common value
    from conftest import toric_surface_input
    si = toric_surface_input([(1, 0), (0, 1), (-1, -1)])
    values = [S_p(si, ray, F(3, 2)) for ray in [(1, 0), (0, 1), (-1, -1)]]
    for a in values:
        assert a.error <= 1e-12 * max(1, a.value)
        for b in values:
            assert abs(a.value - b.value) <= a.error + b.error
    assert abs(values[0].value - 1.1876919823329444) <= values[0].error + 1e-16


@pytest.fixture(scope="module")
def pgl2_one_row():
    """The pgl2 builtin with one projection row, so that a weight reads
    one coordinate."""
    doc = builtin_document("pgl2")
    doc["variety"]["projection"] = [["1"]]
    return parse_input_document(doc)[0]


def test_s_noninteger_p_under_a_power_weight_is_refused(pgl2_one_row):
    # two non-integer powers of two affine forms have no closed form; the
    # refusal names both exponents, on every call
    g = AffinePowerWeight(vec([F(1, 3)]), F(1), 0.5)
    for _ in range(2):
        with pytest.raises(InvariantError, match=r"p = 1\.5 .* exponent 0\.5"):
            S_p(pgl2_one_row, [-1], 1.5, g=g)
        with pytest.raises(InvariantError, match=r"p = 5/2 .* exponent 0\.5"):
            delta_p(pgl2_one_row, F(5, 2), g)
    assert S_p(pgl2_one_row, [-1], 2, g=g).error <= 1e-12


def test_t_max_pgl2(pgl2):
    assert T_max(pgl2, [-1]) == 2
    assert T_max(pgl2, [0]) == 0


@pytest.mark.parametrize("call", [partial(S_p, p=1), T_max, beta_g])
@pytest.mark.parametrize("ray", [[1], [1, 0, 0]])
def test_wrong_length_ray_is_refused_by_name(toric_bl1p2, call, ray):
    with pytest.raises(InvariantError) as exc:
        call(toric_bl1p2, ray)
    assert str(exc.value) == (f"ray ({', '.join(map(str, ray))}) has {len(ray)} coordinate(s), "
                              "the input has rank 2")


def test_t_max_positive_homogeneity(pgl2, toric_bl1p2):
    assert T_max(pgl2, [-2]) == 2 * T_max(pgl2, [-1])
    v = [1, 1]
    assert T_max(toric_bl1p2, [2, 2]) == 2 * T_max(toric_bl1p2, v)


def _negative_values_input():
    """The cone of the ray 1 lists L, whose rho is -1, as its incident
    divisor: l(1) = -2 makes <x, 1> + l(1) negative on the section
    polytope [1, 2], which is also -K_X's."""
    recs = (DivisorRecord("R", vec([1]), F(-1), False),
            DivisorRecord("L", vec([-1]), F(2), False))
    return SphericalInput(
        rank=1, dim_x=1,
        divisors=recs, anticanonical_divisors=recs,
        fan=(ColoredConeData((vec([1]),), ("L",)),),
        valuation_cone=Cone(1, [vec([1])]),
        dh=DHDensity(1, ()),
        projection=(vec([1]),),
    )


def test_negative_values_guard():
    si = _negative_values_input()
    with pytest.raises(NegativeValuesError):
        S_p(si, [1], 1)
    # a failed check is not kept: the second call raises too
    with pytest.raises(NegativeValuesError):
        S_p(si, [1], 1)


# ---------------------------------------------------------------------------
# delta^(p)


def test_delta_1_pgl2(pgl2):
    rep = delta_p(pgl2, 1)
    assert rep.value.exact == 2
    assert rep.minimizing_rays == ((F(-1),),)


def test_delta_closed_form_pgl2(pgl2):
    for p in (1, 2, 3, 4):
        rep = delta_p(pgl2, p)
        expected = 0.5 * ((p + 1) * (p + 2) * (p + 3) / 6) ** (1 / p)
        assert abs(rep.value.value - expected) <= 1e-12


def test_delta_wonderful_a1_equals_pgl2(pgl2, wonderful_a1):
    assert delta_p(wonderful_a1, 1).value.exact == delta_p(pgl2, 1).value.exact


def test_delta_toric_p1_is_one(toric_p1):
    assert delta_p(toric_p1, 1).value.exact == 1


def test_delta_toric_bl1p2(toric_bl1p2):
    # hand computation: bar = (1/12, 1/12); worst ray e1 + e2 gives
    # 1 / (1 + 1/6) = 6/7
    rep = delta_p(toric_bl1p2, 1)
    assert rep.value.exact == F(6, 7)
    assert rep.minimizing_rays == ((F(1), F(1)),)


def test_delta_klt_violation():
    recs = (DivisorRecord("R", vec([1]), F(1), False),
            DivisorRecord("L", vec([-1]), F(1), False))
    si = SphericalInput(
        rank=1, dim_x=1,
        divisors=recs,
        anticanonical_divisors=(DivisorRecord("R", vec([1]), F(-1), False),
                                DivisorRecord("L", vec([-1]), F(2), False)),
        fan=(ColoredConeData((vec([1]),), ("R",)),
             ColoredConeData((vec([-1]),), ("L",))),
        valuation_cone=Cone.full_space(1),
        dh=DHDensity(1, ()),
        projection=(vec([1]),),
    )
    with pytest.raises(KltViolationError):
        delta_p(si, 1)


# ---------------------------------------------------------------------------
# alpha


def test_alpha_pgl2(pgl2):
    assert alpha(pgl2).value.exact == F(1, 2)


def test_alpha_wonderful(wonderful_a1, wonderful_a2):
    assert alpha(wonderful_a1).value.exact == F(1, 2)
    assert alpha(wonderful_a2).value.exact == F(1, 3)


def test_alpha_below_delta(all_builtins):
    for si in all_builtins.values():
        assert alpha(si).value.exact <= delta_p(si, 1).value.exact


# ---------------------------------------------------------------------------
# barycenters


def test_barycenter_pgl2(pgl2):
    assert [b.exact for b in barycenter_g(pgl2)] == [F(1, 2)]


def test_barycenter_symmetric_vanishes(toric_p1):
    assert [b.exact for b in barycenter_g(toric_p1)] == [F(0)]


def test_barycenter_shift_identity(pgl2, wonderful_a1, wonderful_a2):
    """Translating the polytope and the density by the section weight fixes
    the barycenter relation bar(Delta) = bar(Delta + chi) - chi."""
    from kstab.quad import dh_moments
    cases = [(pgl2, (F(1),)), (wonderful_a1, (F(1),)),
             (wonderful_a2, (F(2), F(2)))]
    for si, chi in cases:
        base = barycenter_g(si)
        shifted_poly = translated_polytope(si.section_polytope, chi)
        shifted_density = translated_density(si.dh, chi)
        m = dh_moments(shifted_poly, shifted_density, ConstantWeight(F(1)),
                       si.projection)
        shifted_bar = m.barycenter
        assert tuple(b.exact for b in base) == \
            tuple(c - t for c, t in zip(shifted_bar, chi))


def test_barycenter_constant_weight_invariance(pgl2):
    assert barycenter_g(pgl2, ConstantWeight(F(5))) == barycenter_g(pgl2)


def test_barycenter_degenerate_affine_power(pgl2):
    g = AffinePowerWeight(vec([]), F(1), -5.0)  # rank-0 projection target
    assert [b.exact for b in barycenter_g(pgl2, g)] == [F(1, 2)]


# ---------------------------------------------------------------------------
# delta^g


def test_delta_g_matches_delta_1_for_constant_weight(all_builtins):
    for si in all_builtins.values():
        assert delta_g(si).value.exact == delta_p(si, 1).value.exact


def test_delta_g_pgl2(pgl2):
    assert delta_g(pgl2).value.exact == 2


def test_delta_g_polynomial_weight(toric_bl1p2):
    g = PolynomialWeight(Polynomial(2, {(0, 0): F(1), (2, 0): F(1)}))
    rep = delta_g(toric_bl1p2, g)
    assert rep.value.exact is not None  # exact path
    assert 0 < rep.value.exact < 1


# ---------------------------------------------------------------------------
# beta


def test_beta_zero_ray(pgl2, toric_bl1p2):
    # the zero vector is no valuation ray, as under --ray
    for si in (pgl2, toric_bl1p2):
        with pytest.raises(InvariantError, match="zero vector"):
            beta_g(si, [0] * si.rank)


def test_beta_pgl2(pgl2):
    b = beta_g(pgl2, [-1])
    assert b.from_integral.exact == F(1, 2)
    assert b.from_barycenter.exact == F(1, 2)


def test_beta_linearity(pgl2, toric_bl1p2):
    for si, v in ((pgl2, (-1,)), (toric_bl1p2, (1, 1))):
        b1 = beta_g(si, v)
        b2 = beta_g(si, tuple(2 * c for c in v))
        assert b2.from_integral.exact == 2 * b1.from_integral.exact


def test_beta_two_routes_agree_exactly(all_builtins):
    for si in all_builtins.values():
        for ray in si.candidates:
            b = beta_g(si, ray)
            assert b.from_integral.exact == b.from_barycenter.exact


# ---------------------------------------------------------------------------
# Ding verdicts


def test_ding_pgl2_polystable(pgl2):
    v = ding_check(pgl2)
    assert v.exact and v.verdict == "polystable"
    assert v.semistable and v.polystable


def test_ding_reflected_unstable(reflected_pgl2):
    assert [b.exact for b in barycenter_g(reflected_pgl2)] == [F(-1, 2)]
    v = ding_check(reflected_pgl2)
    assert v.verdict == "unstable"
    assert v.witness is not None and v.witness["kind"] == "facet"


def test_ding_translated_interval_unstable():
    # section polytope [1, 2], constant density: barycenter 3/2 lies outside
    # the dual of the negated valuation cone (-inf, 0]
    si = _interval_input(1, 2, [1], [1])
    assert [b.exact for b in barycenter_g(si)] == [F(3, 2)]
    v = ding_check(si)
    assert v.verdict == "unstable"


def test_ding_horospherical_iff_zero_barycenter(toric_p1, toric_bl1p2):
    assert ding_check(toric_p1).verdict == "polystable"
    v = ding_check(toric_bl1p2)
    assert v.verdict == "unstable"
    assert v.witness is not None


def test_ding_constant_weight_matches_default(pgl2):
    assert ding_check(pgl2, ConstantWeight(F(5))).verdict == \
        ding_check(pgl2).verdict


def _square_input(cones, vcone_gens):
    """The square [-1, 1]^2 of P1 x P1 with the given fan cones, each a
    tuple of divisor names whose rays span it, under the valuation cone
    spanned by ``vcone_gens``; the weight reads x only."""
    rays = {"E": [1, 0], "W": [-1, 0], "N": [0, 1], "S": [0, -1]}
    recs = tuple(DivisorRecord(n, vec(r), F(1), False) for n, r in rays.items())
    return SphericalInput(
        rank=2, dim_x=2,
        divisors=recs, anticanonical_divisors=recs,
        fan=tuple(ColoredConeData(tuple(vec(rays[n]) for n in c), c) for c in cones),
        valuation_cone=Cone(2, [vec(g) for g in vcone_gens]),
        dh=DHDensity(2, ()),
        projection=(vec([1, 0]),),
    )


def test_ding_numeric_certified_unstable():
    # genuinely numeric weight with a certified sign: verdict is decided
    si = _square_input([("E", "N")], [[1, 0], [0, 1]])
    g = AffinePowerWeight(vec([F(1, 3)]), F(1), 0.5)
    v = ding_check(si, g)
    assert not v.exact
    assert v.verdict == "unstable"
    assert v.witness["kind"] == "facet" and v.witness["functional"] == vec([-1, 0])


def test_ding_numeric_boundary_is_indeterminate():
    # the barycenter lies exactly on the boundary of the dual cone, but the
    # weight forces the numeric path: the verdict must stay open.  The
    # weight depends on x only, so bar_y = 0 on the equation y = 0 of -V
    si = _square_input([("N", "W"), ("W", "S")], [[0, 1], [-1, 0], [0, -1]])
    g = AffinePowerWeight(vec([F(1, 3)]), F(1), 0.5)
    v = ding_check(si, g)
    assert not v.exact
    assert v.verdict == "indeterminate"
    assert v.semistable is None and v.polystable is None
    assert v.witness["kind"] == "equality" and v.witness["functional"] == vec([0, 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0, 1e-12), st.integers(-9, 9)),
                min_size=1, max_size=4),
       st.fractions(min_value=-10, max_value=10, max_denominator=30))
def test_inexact_pairing_encloses_the_exact_sum(coords, shift):
    # the error of shift + <bar, f> covers the rounding of its float
    # arithmetic: a barycenter on a wall of the dual cone is never
    # certified on either side of it
    from types import SimpleNamespace

    from kstab.invariants import Num, _pairing
    bar = tuple(Num.from_float(b, e) for b, e, _ in coords)
    f = vec([c for _, _, c in coords])
    pairing = _pairing(SimpleNamespace(barycenter=bar, pairings={}), f, shift)
    exact = shift + sum(F(b) * c for b, _, c in coords)
    slack = sum(F(e) * abs(c) for _, e, c in coords)
    assert F(pairing.value) - F(pairing.error) <= exact - slack
    assert exact + slack <= F(pairing.value) + F(pairing.error)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(0, 1e-6),
       st.fractions(min_value=F(1, 30), max_value=100, max_denominator=30))
def test_inexact_ratio_encloses_every_ratio(value, error, a):
    # delta_g's A / (A + <bar, v>) over an enclosure of the denominator
    from kstab.invariants import Num, _root_ratio
    ratio = _root_ratio(a, Num.from_float(value, error), 1)
    lo, hi = F(ratio.value) - F(ratio.error), F(ratio.value) + F(ratio.error)
    assert lo <= a / (F(value) + F(error)) and a / (F(value) - F(error)) <= hi


def test_ding_polystable_implies_semistable(all_builtins):
    for si in all_builtins.values():
        v = ding_check(si)
        if v.polystable:
            assert v.semistable


def test_ding_quad_tol_reaches_the_moments():
    # the moments under a weight that does not expand are enclosures whose
    # barycenter is tight to 1e-12, and ding_check judges the barycenter
    # that barycenter_g reports
    import mpmath
    from kstab.quad import dh_moments
    si = _square_input([("E", "N")], [[1, 0], [0, 1]])
    g = AffinePowerWeight(vec([F(1, 3)]), F(1), 0.5)
    m = dh_moments(si.section_polytope, si.dh, g, si.projection)
    assert not m.exact
    # the section polytope is the square [-1, 1]^2 and g = (x/3 + 1)^(1/2)
    with mpmath.workdps(40):
        mass = 2 * mpmath.quad(lambda x: mpmath.sqrt(x / 3 + 1), [-1, 1])
        moment = 2 * mpmath.quad(lambda x: x * mpmath.sqrt(x / 3 + 1), [-1, 1])
        for enclosure, value in ((m.mass, mass), (m.first_moment[0], moment),
                                 (m.first_moment[1], 0), (m.barycenter[0], moment / mass)):
            assert mpmath.mpf(enclosure.lo) / enclosure.den <= value <= mpmath.mpf(enclosure.hi) / enclosure.den
    for b in m.barycenter:
        assert b.half_width <= 1e-12 * max(1, abs(b.mid))
    assert ding_check(si, g).barycenter == barycenter_g(si, g)


# ---------------------------------------------------------------------------
# rank 3


@pytest.fixture(scope="module")
def wonderful_rank3():
    from kstab.fixtures import wonderful_fixture
    from kstab.schema import parse_input_document
    return {t: parse_input_document(wonderful_fixture(t, 3))[0] for t in "ABC"}


def test_wonderful_a3_moments_pinned(wonderful_rank3):
    si = wonderful_rank3["A"]
    m = dh_moments(si.section_polytope, si.dh, None, si.projection)
    assert m.exact
    assert m.mass == F(2243664235225939, 81729648000)
    assert m.first_moment == (
        F(35730288167444122491719, 2928521055043584000),
        F(38058639686425232243, 2859883842816000),
        F(35730288167444122491719, 2928521055043584000),
    )


def test_s1_is_barycenter_pairing_rank3(wonderful_rank3):
    from kstab.geom import dot
    for si in wonderful_rank3.values():
        bar = tuple(b.exact for b in barycenter_g(si))
        for v in si.candidates:
            assert S_p(si, v, 1).exact == dot(bar, v) + si.section_support(v)


def test_integer_moments_rank3_match_the_multiplied_expansion(wonderful_rank3):
    from kstab.geom import dot
    for si in wonderful_rank3.values():
        poly = si.section_polytope
        density = density_expansion(poly, si.dh, [(F(1), ())])
        for v in si.candidates:
            values = [dot(x, v) + si.section_support(v) for x in poly.vertices]
            for p in (1, 2, 3):
                assert S_p(si, v, p).exact == density.integral(((values, p),)) / density.mass


def _between_integer_moments(si, v):
    """S_p at p = 1.5 and 2.5 within the bounds that log-convexity of
    p -> log S_p gives from the exact S_k and S_(k+1), k = floor(p):
    S_k^(p/k) <= S_p <= S_k^(k+1-p) S_(k+1)^(p-k)."""
    for p in (1.5, 2.5):
        k = int(p)
        low, high = (float(S_p(si, v, q).exact) for q in (k, k + 1))
        lo, hi = low ** (p / k), low ** (k + 1 - p) * high ** (p - k)
        s = S_p(si, v, p)
        assert s.error <= 1e-12 * max(1, s.value)
        assert lo - s.error - 1e-14 * hi <= s.value <= hi + s.error + 1e-14 * hi


def test_fractional_moments_between_integer_moments_random_polygons():
    rng = random.Random(11)
    for _ in range(8):
        si = random_toric_input(rng)
        for v in si.candidates:
            _between_integer_moments(si, v)


def test_fractional_moments_between_integer_moments_rank3(wonderful_rank3):
    for si in wonderful_rank3.values():
        _between_integer_moments(si, si.candidates[0])


def test_power_form_built_once_per_input_and_exponent(monkeypatch):
    builds = []
    real = Expansion._power_form
    monkeypatch.setattr(Expansion, "_power_form",
                        lambda self, p: builds.append(p) or real(self, p))
    si = _fresh("wonderful-a2", 0)
    first = delta_p(si, 2)
    assert delta_p(si, 2) == first
    delta_p(si, 3)
    for v in si.valuation_cone.rays:
        beta_g(si, v)
    assert builds == [2, 3, 1]


@pytest.mark.parametrize("p", [0, -1, F(1, 2), 0.5, float("inf"), float("nan")])
def test_moment_exponent_outside_its_range_is_refused(pgl2, p):
    with pytest.raises(InvariantError, match="at least 1"):
        S_p(pgl2, [-1], p)
    with pytest.raises(InvariantError, match="at least 1"):
        delta_p(pgl2, p)


@pytest.mark.parametrize("p, cause", [(10 ** 400, "for a float"), (10 ** 300, "factorial")],
                         ids=["10^400", "10^300"])
def test_moment_exponent_too_large_is_refused(pgl2, p, cause):
    # 10^400 overflows a float; 10^300 is a float, but (d + p)! is too large
    for call in (lambda: S_p(pgl2, [-1], p), lambda: delta_p(pgl2, p)):
        with pytest.raises(InvariantError, match=f"^the moment exponent p = {p} is too large.*{cause}"):
            call()


# ---------------------------------------------------------------------------
# the per-ray record


def _fresh(name, seed):
    """A newly built input: a builtin, or a seeded random toric surface,
    polarized by its anticanonical divisor or ("random-polarized") by
    another one, so that the two PL functions differ."""
    if name not in ("random", "random-polarized"):
        return builtin_spherical_input(name)[0]
    si = random_toric_input(random.Random(seed))
    if name == "random":
        return si
    anticanonical = tuple(replace(d, coeff=F(1)) for d in si.divisors)
    return SphericalInput(rank=2, dim_x=2, divisors=si.divisors,
                          anticanonical_divisors=anticanonical, fan=si.fan,
                          valuation_cone=si.valuation_cone, dh=si.dh,
                          projection=si.projection)


def _outcome(call, si):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(si)
    except (InvariantError, SolitonError) as e:
        return type(e), str(e)


def _weights(si):
    """A polynomial weight, affine powers with exponents 1/2 and 2 and a
    constant weight of the input's projection, the affine powers' base at
    least 1 on its section polytope.  With no projection every weight is a
    constant, and only the constant one is returned."""
    constant = {"constant": ConstantWeight(F(3))}
    dim = len(si.projection)
    if not dim:
        return constant
    xi = vec([F(1, 5)] + [0] * (dim - 1))
    low = min(dot(xi, [dot(row, x) for row in si.projection])
              for x in si.section_polytope.vertices)
    a = 1 - min(low, 0)
    square = Polynomial(dim, {(0,) * dim: F(2), (2,) + (0,) * (dim - 1): F(1)})
    return {"polynomial": PolynomialWeight(square),
            "affine-1/2": AffinePowerWeight(xi, a, F(1, 2)),
            "affine-2": AffinePowerWeight(xi, a, 2),
            **constant}


def _ray_calls(si):
    """Every invariant that reads the ray records or the entries of the
    weights, as (label, call): unweighted and under each of `_weights`;
    and the Reeb solve, which reads the section polytope's memo, on a
    horospherical input.  delta^(p) is asked at equal exponents of
    different types, 2 and 2.0, 3/2 and 1.5, each labelled and answered
    with the type of its report's p."""
    calls = [(("delta", p, type(p)), lambda s, p=p: _with_type(delta_p(s, p)))
             for p in (1, 2, 2.0, 3, F(3, 2), 1.5)]
    if si.is_horospherical:
        calls.append(("reeb", lambda s: solve_reeb(ReebProblem.from_spherical(s))))
    calls.append(("alpha", alpha))
    for ray in si.candidates:
        calls.append((("T", ray), lambda s, ray=ray: T_max(s, ray)))
        calls.append((("T-anti", ray), lambda s, ray=ray: T_max(s.anticanonical, ray)))
    for name, g in [("none", None), *_weights(si).items()]:
        calls.append((("barycenter", name), lambda s, g=g: barycenter_g(s, g)))
        calls.append((("ding", name), lambda s, g=g: ding_check(s, g)))
        calls.append((("delta_g", name), lambda s, g=g: delta_g(s, g)))
        for ray in si.candidates:
            calls.append((("beta", name, ray), lambda s, ray=ray, g=g: beta_g(s, ray, g)))
    return calls


def _with_type(report):
    return report, type(report.p)


# builders of one input each: a builtin, a random toric surface or a random
# complete fan of rank 3 under a random valuation cone
_BUILDERS = st.one_of(
    st.tuples(st.sampled_from(BUILTIN_NAMES + ("random", "random-polarized")),
              st.integers(0, 10 ** 6)).map(lambda case: partial(_fresh, *case)),
    complete_fans(ranks=(3,)).map(lambda case: partial(fan_input, *case)))


@settings(max_examples=20, deadline=None)
@given(_BUILDERS, st.randoms())
def test_warm_input_gives_the_answers_of_a_fresh_one(build, shuffler):
    calls = _ray_calls(build())
    fresh = {label: _outcome(call, build()) for label, call in calls}
    warm = build()
    for _ in range(2):
        shuffler.shuffle(calls)
        for label, call in calls:
            assert _outcome(call, warm) == fresh[label], label


def test_warm_delta_makes_no_cone_search(monkeypatch):
    si = _fresh("wonderful-a2", 0)
    first = delta_p(si, 2)
    searched = []
    contains = Cone.contains
    monkeypatch.setattr(Cone, "contains", lambda cone, x: searched.append(x) or contains(cone, x))
    assert delta_p(si, 2) == first
    assert searched == []
    delta_p(_fresh("wonderful-a2", 0), 2)
    assert searched  # the counter sees the searches of a fresh input


def test_dh_moments_checks_positivity_once_per_key(monkeypatch):
    si = _fresh("toric-bl1p2", 0)
    checked = []
    check = DHDensity.check_positive_on
    monkeypatch.setattr(DHDensity, "check_positive_on",
                        lambda dh, vertices: checked.append(dh) or check(dh, vertices))
    g = PolynomialWeight(Polynomial(2, {(1, 0): F(1), (0, 0): F(2)}))
    for _ in range(3):
        barycenter_g(si)
        barycenter_g(si, g)
        beta_g(si, si.candidates[0], g)
    assert len(checked) == 2
    # a weight that fails its check raises on every call
    bad = AffinePowerWeight(vec([1, 0]), F(-1), 2)
    for _ in range(2):
        with pytest.raises(ValueError):
            barycenter_g(si, bad)
    assert len(checked) == 4


@pytest.mark.parametrize("g, exponents", [
    (None, (2, F(3, 2))),
    (PolynomialWeight(Polynomial(2, {(1, 0): F(1), (0, 0): F(2)})), (2, F(3, 2))),
    (AffinePowerWeight(vec([F(1, 3), F(0)]), F(1), F(1, 2)), (2,)),
], ids=["unweighted", "polynomial", "affine-1/2"])
def test_warm_calls_integrate_nothing_again(monkeypatch, g, exponents):
    si = _fresh("toric-bl1p2", 0)
    integrations = []
    modules = (kstab.quad, kstab.invariants, kstab.soliton, kstab.powers)
    for home, name in ((kstab.quad, "dh_moments"), (kstab.quad, "integrate_numeric"),
                       (kstab.powers, "integral_power")):
        fn = getattr(home, name)
        spy = partial(_spied, fn, integrations)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, spy)
    # a fresh Reeb problem looks its expansion up in the memo, which
    # expands nothing: count the expansions built
    init = kstab.quad.Expansion.__init__
    monkeypatch.setattr(
        kstab.quad.Expansion, "__init__",
        lambda self, *args: integrations.append("Expansion") or init(self, *args))
    enclosure = kstab.powers.PowerIntegral.enclosure
    monkeypatch.setattr(kstab.powers.PowerIntegral, "enclosure",
                        lambda self, prec: integrations.append("enclosure") or enclosure(self, prec))

    def one_round():
        barycenter_g(si, g)
        ding_check(si, g)
        for v in si.candidates:
            beta_g(si, v, g)
        delta_g(si, g)
        for p in exponents:
            delta_p(si, p, g)
        solve_reeb(ReebProblem.from_spherical(si))

    one_round()
    assert integrations  # the spies see the first round's integrals
    integrations.clear()
    one_round()
    assert integrations == []


def test_warm_delta_g_under_an_affine_power_pairs_nothing(monkeypatch):
    # the rows depend only on the input, the weight and the rays
    si = _fresh("toric-bl1p2", 0)
    g = AffinePowerWeight(vec([F(1, 3), F(0)]), F(1), F(1, 2))
    first = delta_g(si, g)
    calls = []
    for name in ("_pairing", "_root_ratio"):
        monkeypatch.setattr(kstab.invariants, name,
                            partial(_spied, getattr(kstab.invariants, name), calls))
    assert delta_g(si, g) == first
    assert calls == []
    assert delta_g(_fresh("toric-bl1p2", 0), g) == first
    assert set(calls) == {"_pairing", "_root_ratio"}  # the spies see a fresh input's rows


def test_warm_delta_alpha_and_beta_read_their_kept_rows(monkeypatch):
    # every S_p and every row set is kept in the weight's entry, so a warm
    # call neither integrates a moment nor takes a root
    si = _fresh("toric-bl1p2", 0)
    exponents = (1, 2, 3, F(3, 2))

    def one_round(si):
        reports = [delta_p(si, p) for p in exponents] + [alpha(si)]
        return reports + [beta_g(si, v) for v in si.candidates]

    first = one_round(si)
    calls = []
    power_mean = Expansion.power_mean
    monkeypatch.setattr(Expansion, "power_mean",
                        lambda self, *args: _spied(power_mean, calls, self, *args))
    monkeypatch.setattr(kstab.invariants, "_root_ratio",
                        partial(_spied, kstab.invariants._root_ratio, calls))
    assert one_round(si) == first
    assert calls == []
    assert one_round(_fresh("toric-bl1p2", 0)) == first
    assert set(calls) == {"power_mean", "_root_ratio"}  # the spies see a fresh input's calls
    # equal exponents of three types read one row set, and each report
    # keeps the p it was asked
    entry = si.weight_entries[None]
    kept = len(entry.rows)
    reports = [delta_p(si, p) for p in (2, 2.0, F(2))]
    assert len(entry.rows) == kept
    assert all(r.table is reports[0].table for r in reports)
    assert [type(r.p) for r in reports] == [int, float, F]
    # a call that raised is not kept, so it raises again
    g = AffinePowerWeight(vec([F(1, 3), F(0)]), F(1), F(1, 2))
    for _ in range(2):
        with pytest.raises(InvariantError, match="non-integer p"):
            delta_p(si, F(3, 2), g)
    assert si.weight_entries[g].rows == {}


def test_warm_ding_and_beta_under_an_affine_power_pair_nothing_again(monkeypatch):
    # the verdict and the checked beta are kept in the weight's entry, so
    # a warm call neither pairs the enclosed barycenter nor sums A - S
    si = _fresh("toric-bl1p2", 0)
    g = AffinePowerWeight(vec([F(1, 3), F(0)]), F(1), F(1, 2))
    v = si.candidates[0]
    ding, beta = ding_check(si, g), beta_g(si, v, g)
    assert not ding.exact and not beta.from_barycenter.is_exact
    calls = []
    monkeypatch.setattr(kstab.invariants, "_float_sum",
                        partial(_spied, kstab.invariants._float_sum, calls))
    assert ding_check(si, g) == ding
    assert calls == []
    assert beta_g(si, v, g) == beta
    assert calls == []


@pytest.mark.parametrize("g", [
    None,
    PolynomialWeight(Polynomial(2, {(1, 0): F(1), (0, 0): F(2)})),
    AffinePowerWeight(vec([F(1, 3), F(0)]), F(1), F(1, 2)),
], ids=["unweighted", "polynomial", "affine-1/2"])
def test_warm_beta_and_ding_read_their_kept_answers(monkeypatch, g):
    # one checked BetaResult per ray and one DingVerdict per weight are
    # kept in the weight's entry, so a warm call reads no moment and pairs
    # nothing, and returns the kept answer itself
    si = _fresh("toric-bl1p2", 0)

    def one_round(si):
        return [ding_check(si, g)] + [beta_g(si, v, g) for v in si.candidates]

    first = one_round(si)
    calls = []
    for name in ("_moment", "_pairing"):
        monkeypatch.setattr(kstab.invariants, name,
                            partial(_spied, getattr(kstab.invariants, name), calls))
    warm = one_round(si)
    assert calls == []
    assert all(w is f for w, f in zip(warm, first))
    # a ray given as a list of ints reads the entry of its vec
    assert beta_g(si, [int(c) for c in si.candidates[0]], g) is first[1]
    assert calls == []
    assert one_round(_fresh("toric-bl1p2", 0)) == first
    assert set(calls) == {"_moment", "_pairing"}  # the spies see a fresh input's calls


@pytest.mark.parametrize("name, seed", [*((name, 0) for name in BUILTIN_NAMES),
                                        ("random", 3), ("random-polarized", 5)])
def test_kept_beta_ding_and_reeb_answers_equal_a_fresh_inputs(name, seed):
    # beta along each candidate and the Ding verdict under every weight of
    # `_weights`, affine powers included, and the Reeb solve of a fresh
    # problem on a horospherical input
    build = partial(_fresh, name, seed)
    calls = [(label, call) for label, call in _ray_calls(build())
             if label == "reeb" or label[0] in ("ding", "beta")]
    fresh = {label: _outcome(call, build()) for label, call in calls}
    warm = build()
    kept = {label: _outcome(call, warm) for label, call in calls}
    assert kept == fresh
    for label, call in reversed(calls):
        assert _outcome(call, warm) == fresh[label], label


def test_refused_beta_and_ding_raise_on_every_call():
    si = _fresh("toric-bl1p2", 0)
    v = si.candidates[0]
    beta_g(si, v)  # a kept ray under the unit weight
    bad = AffinePowerWeight(vec([1, 0]), F(-1), 2)
    cases = [
        (lambda: beta_g(si, [0, 0]), InvariantError, "zero vector"),
        (lambda: beta_g(si, [1]), InvariantError, "has 1 coordinate"),
        # an invalid ray under an invalid weight is refused for the ray
        (lambda: beta_g(si, [0, 0], bad), InvariantError, "zero vector"),
        (lambda: beta_g(si, [1], bad), InvariantError, "has 1 coordinate"),
        (lambda: beta_g(si, v, bad), ValueError, "base not positive"),
        (lambda: ding_check(si, bad), ValueError, "base not positive"),
        (lambda: beta_g(_negative_values_input(), [1]), NegativeValuesError, "negative"),
    ]
    for call, error, message in cases:
        for _ in range(2):
            with pytest.raises(error, match=message):
                call()
    assert list(si.weight_entries) == [None]
    assert list(si.weight_entries[None].betas) == [v]


def test_kept_beta_and_ding_sit_in_the_anticanonical_entry():
    si = _fresh("random-polarized", 0)
    anticanonical = si.anticanonical
    assert anticanonical is not si
    delta_p(si, 1)  # builds the section's own unit-weight entry
    verdict = ding_check(si)
    betas = {v: beta_g(si, v) for v in si.candidates}
    entry = anticanonical.weight_entries[None]
    assert entry.ding is verdict and entry.betas == betas
    own = si.weight_entries[None]
    assert own.ding is None and own.betas == {}


def test_ding_witness_is_read_only():
    verdict = ding_check(_fresh("toric-bl1p2", 0))
    assert verdict.verdict == "unstable"
    witness = verdict.witness
    assert witness == {"kind": witness["kind"], "functional": witness["functional"],
                       "value": witness["value"]}
    with pytest.raises(TypeError, match="read-only"):
        witness["kind"] = "equality"
    for change in (lambda: witness.update(kind="equality"), lambda: witness.pop("kind"),
                   witness.clear):
        with pytest.raises(TypeError, match="read-only"):
            change()
    assert ding_check(_fresh("toric-bl1p2", 0)) == verdict


def _spied(fn, calls, *args, **kwargs):
    calls.append(fn.__name__)
    return fn(*args, **kwargs)


def test_integer_and_float_exponents_are_different_weights():
    """The exponents 2 and 2.0 compare equal, but only 2 expands: a warm
    input answers under 2.0 with the enclosed closed form of a power, as a
    fresh one does."""
    xi = vec([F(1, 3), F(0)])
    exact, power = AffinePowerWeight(xi, F(1), 2), AffinePowerWeight(xi, F(1), 2.0)
    assert exact != power and power == AffinePowerWeight(xi, F(1), 2.0)
    warm = _fresh("toric-bl1p2", 0)
    exact_bary = barycenter_g(warm, exact)
    assert all(b.is_exact for b in exact_bary)
    fresh = barycenter_g(_fresh("toric-bl1p2", 0), power)
    assert not any(b.is_exact for b in fresh)
    assert barycenter_g(warm, power) == fresh
    for b, e in zip(fresh, exact_bary):
        assert abs(b.value - float(e.exact)) <= b.error


@pytest.mark.parametrize("g, p, alias, other_p, other_g", [
    (None, F(3, 2), 1.5, F(5, 2), PolynomialWeight(Polynomial(2, {(1, 0): F(1), (0, 0): F(2)}))),
    (AffinePowerWeight(vec([F(1, 3), F(0)]), F(1), 0.5), 1, 1.0, 2,
     AffinePowerWeight(vec([F(1, 3), F(0)]), F(1), 1.5)),
], ids=["expansion", "power"])
def test_enclosed_s_p_kept_once_per_key(monkeypatch, g, p, alias, other_p, other_g):
    """Every enclosed S_p, under an expansion at non-integer p or under a
    weight that does not expand, is enclosed once per (ray, l(v), p)."""
    si = _fresh("toric-bl1p2", 0)
    v, w = si.candidates[:2]
    # an enclosure that is not tight enough is not kept: every call raises
    with monkeypatch.context() as m:
        m.setattr(kstab.quad, "PRECISIONS", (8,))
        for _ in range(2):
            with pytest.raises(kstab.quad.IntegrationError):
                S_p(si, v, p, g=g)
    barycenter_g(si, g)  # its enclosures are not counted below
    builds = []
    spy = partial(_spied, kstab.quad.enclose, builds)
    for module in (kstab.quad, kstab.invariants):
        monkeypatch.setattr(module, "enclose", spy)
    first = S_p(si, v, p, g=g)
    assert not first.is_exact and len(builds) == 1
    # p as given keys the entry: equal exponents of other types read it too
    assert S_p(si, v, alias, g=g) == S_p(si, v, p, g=g) == first
    # beta_g reads S_1 from the same entry
    direct = beta_g(si, v, g).from_integral
    assert p != 1 or direct.value == float(si.log_discrepancy(v)) - first.value
    assert len(builds) == 1
    # another exponent, ray or weight is another enclosure
    S_p(si, v, other_p, g=g)
    second = S_p(si, w, p, g=g)
    S_p(si, v, p, g=other_g)
    assert len(builds) == 4
    # delta_p reads both at the rays' integer coordinates, and builds the others
    table = delta_p(si, alias, g).table
    assert [row.ray for row in table[:2]] == [v, w] and [row.s_p for row in table[:2]] == [first, second]
    assert len(builds) == 2 + len(si.candidates)


def test_power_weight_with_a_nonpositive_base_is_refused_before_integrating(monkeypatch):
    si = _fresh("toric-bl1p2", 0)
    v = si.candidates[0]
    means = []
    mean = kstab.quad.PowerDensity.mean
    monkeypatch.setattr(kstab.quad.PowerDensity, "mean",
                        lambda self, factors: means.append(factors) or mean(self, factors))
    # a base negative on the whole polytope, and one that changes sign
    for a in (F(-100), F(-1)):
        g = AffinePowerWeight(vec([1, 0]), a, -1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="base not positive"):
                beta_g(si, v, g)
            with pytest.raises(ValueError, match="base not positive"):
                S_p(si.anticanonical, v, 2, g=g)
            with pytest.raises(ValueError, match="base not positive"):
                delta_p(si, 1, g)
    assert means == []


def _weighted_calls(si, g):
    """Every entry point that reads a weight, as (label, call)."""
    v = si.candidates[0]
    return [("S_1", lambda: S_p(si, v, 1, g=g)),
            ("S_3/2", lambda: S_p(si, v, F(3, 2), g=g)),
            *((f"delta_{p}", lambda p=p: delta_p(si, p, g)) for p in (1, 2, F(3, 2))),
            ("delta_g", lambda: delta_g(si, g)),
            ("barycenter_g", lambda: barycenter_g(si, g)),
            ("beta_g", lambda: beta_g(si, v, g)),
            ("ding_check", lambda: ding_check(si, g))]


def test_weight_not_positive_at_a_vertex_is_refused_by_every_entry_point():
    # g = x + 1/2 is negative at a vertex of the section polytope
    si = _fresh("toric-bl1p2", 0)
    g = PolynomialWeight(Polynomial(2, {(1, 0): F(1), (0, 0): F(1, 2)}))
    assert min(g.poly(x) for x in si.section_polytope.vertices) < 0
    for _ in range(2):
        for label, call in _weighted_calls(si, g):
            with pytest.raises(ValueError, match="^polynomial weight not positive at a vertex$"):
                call()
                pytest.fail(label)


@pytest.mark.parametrize("name, g", [
    ("pgl2", AffinePowerWeight(vec([F(1, 3)]), F(1), 2)),
    ("pgl2", PolynomialWeight(Polynomial(1, {(1,): F(1), (0,): F(3)}))),
    ("toric-bl1p2", AffinePowerWeight(vec([F(1, 3)]), F(5), 0.5)),
    ("toric-bl1p2", PolynomialWeight(Polynomial(3, {(0, 0, 1): F(1), (0, 0, 0): F(5)}))),
], ids=["pgl2-affine-2", "pgl2-polynomial", "bl1p2-affine-0.5", "bl1p2-polynomial"])
def test_weight_of_another_dimension_is_refused_by_every_entry_point(name, g):
    si = _fresh(name, 0)
    with pytest.raises(SchemaValidationError) as schema:
        check_weight_dimension(g, si.projection, "weight_fn")
    message = str(schema.value).removeprefix("weight_fn: ")
    calls = [*_weighted_calls(si, g), ("level_sum", lambda: si.level_sum(si.candidates[0], 1, 1, g))]
    for _ in range(2):
        for label, call in calls:
            with pytest.raises(ValueError) as refused:
                call()
                pytest.fail(label)
            assert str(refused.value) == message, label


def test_barycenter_under_a_power_weight_on_a_large_polytope():
    # the random surface of seed 1 has mass 1565; its weighted integrals
    # are enclosed to a tolerance relative to their size
    si = random_toric_input(random.Random(1))
    assert dh_moments(si.section_polytope, si.dh, None, si.projection).mass > 1500
    bary = barycenter_g(si, _weights(si)["affine-1/2"])
    assert len(bary) == 2
    for b in bary:
        assert not b.is_exact and 0 < b.error <= 1e-12 * max(1, abs(b.value))
    # a positive weight keeps the barycenter inside the polytope
    point = tuple(F(b.value) for b in bary)
    assert all(dot(d.rho, point) + d.coeff > 0 for d in si.divisors)
