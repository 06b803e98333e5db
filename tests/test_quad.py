"""Integration engines: exact polynomial route and adaptive cubature."""

import random
from fractions import Fraction as F
from functools import partial
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import affine_form, affine_power, eval_float
from kstab import geom
from kstab.geom import (
    AffineForm,
    Simplex,
    VPolytope,
    DegenerateInputError,
    matrix_rank,
    unit_vec,
    vec,
    vsub,
)
from kstab.quad import (
    AffinePowerWeight,
    ConstantWeight,
    DHDensity,
    DHFactor,
    Expansion,
    IntegrationError,
    Polynomial,
    PolynomialWeight,
    SingularIntegrandError,
    ZeroFactorError,
    density_expansion,
    dh_moments,
    expand_products,
    integral_inverse_power,
    integrate_numeric,
    integrate_poly,
)
from kstab.rootsys import RootSystem, dh_density

INTERVAL = VPolytope.from_inequalities(1, [affine_form([1], 1), affine_form([-1], 1)])
UNIT_SQUARE = VPolytope.from_inequalities(2, [affine_form([1, 0], 0), affine_form([-1, 0], 1),
                                              affine_form([0, 1], 0), affine_form([0, -1], 1)])


def std_simplex(d):
    pts = [vec([0] * d)]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        pts.append(vec(e))
    return Simplex(tuple(pts))


# ---------------------------------------------------------------------------
# monomials over simplices


def integrate_monomial_simplex(s: Simplex, exponent) -> F:
    """Exact integral of x^exponent over a full-dimensional simplex, by the
    barycentric kernel on that simplex alone."""
    factors = tuple((AffineForm(unit_vec(i, s.dim), F(0)), k) for i, k in enumerate(exponent) if k)
    return s.volume_factor * expand_products([(F(1), factors)], s.vertices).integral()


def test_monomial_area_of_standard_triangle():
    assert integrate_monomial_simplex(std_simplex(2), (0, 0)) == F(1, 2)


def test_monomial_x_over_standard_triangle():
    # factorial formula: 1! 0! / (2 + 1)! = 1/6
    assert integrate_monomial_simplex(std_simplex(2), (1, 0)) == F(1, 6)


def test_monomial_x2_over_interval():
    s = Simplex((vec([-1]), vec([1])))
    assert integrate_monomial_simplex(s, (2,)) == F(2, 3)


# ---------------------------------------------------------------------------
# exact polynomial integration


def test_poly_square_of_affine():
    p = affine_power(affine_form([1], 1), 2)
    assert integrate_poly(INTERVAL, p) == F(8, 3)


def test_poly_affine_square_times_x():
    p = affine_power(affine_form([1], 1), 2)
    assert integrate_poly(INTERVAL, p * Polynomial.coordinate(1, 0)) == F(4, 3)


def test_poly_xy_over_unit_square():
    xy = Polynomial.coordinate(2, 0) * Polynomial.coordinate(2, 1)
    assert integrate_poly(UNIT_SQUARE, xy) == F(1, 4)


def test_poly_refinement_invariance():
    # barycentric-style refinement: integrate over the two halves of the
    # square separately and compare with the whole
    p = Polynomial(2, {(2, 1): F(3), (0, 0): F(1), (1, 1): F(-2)})
    whole = integrate_poly(UNIT_SQUARE, p)
    left = VPolytope.from_inequalities(2, [affine_form([1, 0], 0), affine_form([-1, 0], F(1, 2)),
                                           affine_form([0, 1], 0), affine_form([0, -1], 1)])
    right = VPolytope.from_inequalities(2, [affine_form([1, 0], F(-1, 2)), affine_form([-1, 0], 1),
                                            affine_form([0, 1], 0), affine_form([0, -1], 1)])
    assert integrate_poly(left, p) + integrate_poly(right, p) == whole


def test_poly_affinity_under_unimodular_maps():
    rng = random.Random(23)
    p = Polynomial(2, {(2, 0): F(1), (1, 1): F(2), (0, 1): F(-1)})
    for _ in range(10):
        # random unimodular integer matrix from elementary operations
        a, b, c, d = 1, 0, 0, 1
        for _ in range(4):
            k = rng.randint(-2, 2)
            if rng.random() < 0.5:
                a, b = a + k * c, b + k * d
            else:
                c, d = c + k * a, d + k * b
        # A^{-1}(square): forms x -> form(Ax)
        forms = []
        for f in UNIT_SQUARE.hrep[0]:
            n0 = f.normal[0] * a + f.normal[1] * c
            n1 = f.normal[0] * b + f.normal[1] * d
            forms.append(affine_form([n0, n1], f.offset))
        preimage = VPolytope.from_inequalities(2, forms)
        composed = p.compose_affine(vec([0, 0]), [vec([a, c]), vec([b, d])])
        assert integrate_poly(preimage, composed) == integrate_poly(UNIT_SQUARE, p)


def test_poly_lower_dimensional_lattice_measure():
    # integrate_poly refuses a polytope of lower dimension than its ambient
    # space, such as a segment in the plane
    seg = VPolytope(2, [vec([0, 0]), vec([2, 2])])
    with pytest.raises(DegenerateInputError, match="affine dimension 1 < 2"):
        integrate_poly(seg, Polynomial.constant(2, 1))
    with pytest.raises(DegenerateInputError, match="affine dimension 1 < 2"):
        integrate_poly(seg, Polynomial.coordinate(2, 0))


def test_poly_zero_dimensional():
    pt = VPolytope(1, [vec([3])])
    with pytest.raises(DegenerateInputError, match="affine dimension 0 < 1"):
        integrate_poly(pt, Polynomial.coordinate(1, 0))


def test_triangulation_built_once(monkeypatch):
    calls = []
    real = geom.triangulate
    monkeypatch.setattr(geom, "triangulate", lambda v: calls.append(v) or real(v))
    square = VPolytope(2, [vec([0, 0]), vec([1, 0]), vec([0, 1]), vec([1, 1])])
    xy = Polynomial.coordinate(2, 0) * Polynomial.coordinate(2, 1)
    assert integrate_poly(square, xy) == F(1, 4)
    assert integrate_poly(square, xy) == F(1, 4)
    integrate_numeric(square, lambda pts: np.ones(len(pts)), tol=1e-12)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# barycentric kernel against the substitution route


def _substitution_route(vertices, products) -> F:
    """Integral over the simplex conv(vertices) by the substitution route:
    expand the integrand in x, compose onto the simplex's edge coordinates
    and integrate each monomial over the standard simplex."""
    n = len(vertices[0])
    f = Polynomial(n, {})
    for c, factors in products:
        term = Polynomial.constant(n, c)
        for form, k in factors:
            term = term * affine_power(form, k)
        f = f + term
    s = Simplex(tuple(vertices))
    g = f.compose_affine(s.vertices[0], s.edge_columns)
    return s.volume_factor * sum(
        (c * F(prod(factorial(a) for a in e), factorial(s.dim + sum(e)))
         for e, c in g.terms.items()), F(0))


_RAT = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _simplex_and_products(draw):
    n = draw(st.integers(1, 3))
    point = st.tuples(*[_RAT] * n)
    vertices = draw(st.lists(point, min_size=n + 1, max_size=n + 1, unique=True))
    form = st.builds(AffineForm, st.tuples(*[_RAT] * n), _RAT)
    factors = st.lists(st.tuples(form, st.integers(1, 3)), min_size=0, max_size=3)
    products = draw(st.lists(st.tuples(_RAT, factors.map(tuple)), min_size=1, max_size=3))
    return vertices, products


@settings(max_examples=60, deadline=None)
@given(_simplex_and_products())
def test_barycentric_kernel_matches_substitution_route(case):
    vertices, products = case
    n = len(vertices[0])
    assume(matrix_rank([vsub(v, vertices[0]) for v in vertices[1:]]) == len(vertices) - 1)
    simplex = VPolytope(n, vertices)
    assert Expansion(simplex, products).integral() == _substitution_route(vertices, products)


# ---------------------------------------------------------------------------
# closed forms for powers of one affine form


_SMALL = st.integers(-2, 2).map(F)


@st.composite
def _simplex_products_and_form(draw):
    """A simplex with small integer vertices, a density-like sum of
    products and a form whose values at the vertices tie and vanish often."""
    n = draw(st.integers(1, 3))
    vertices = draw(st.lists(st.tuples(*[_SMALL] * n), min_size=n + 1,
                             max_size=n + 1, unique=True))
    small_form = st.builds(AffineForm, st.tuples(*[st.sampled_from([F(-1), F(0), F(1)])] * n),
                           st.sampled_from([F(-1), F(0), F(1), F(2)]))
    factors = st.lists(st.tuples(small_form, st.integers(1, 2)), min_size=0, max_size=2)
    products = draw(st.lists(st.tuples(_RAT, factors.map(tuple)), min_size=1, max_size=2))
    return vertices, products, draw(small_form)


@settings(max_examples=60, deadline=None)
@given(_simplex_products_and_form(), st.integers(0, 3))
def test_integral_power_matches_exact_kernel_at_integer_exponents(case, s):
    vertices, products, form = case
    n = len(vertices[0])
    assume(matrix_rank([vsub(v, vertices[0]) for v in vertices[1:]]) == len(vertices) - 1)
    expansion = Expansion(VPolytope(n, vertices), products)
    values = [form(x) for x in expansion.vertices]
    exact = expansion.integral(((values, s),))
    enclosure = expansion.integral_power(values, s).enclosure(64)
    assert enclosure.lo <= exact * enclosure.den <= enclosure.hi
    assert enclosure.half_width <= 1e-15 * (1 + abs(float(exact)))


@st.composite
def _simplex_density_and_values(draw):
    """A simplex, a density whose squared factors give terms tau^a with
    several a_i > 0, so that nodes repeat, and values at the vertices that
    tie and vanish often: on a simplex every choice of vertex values is that
    of an affine form."""
    vertices, products, _ = draw(_simplex_products_and_form())
    values = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(-1)])
    return vertices, products, draw(st.lists(values, min_size=len(vertices), max_size=len(vertices)))


@settings(max_examples=80, deadline=None)
@given(_simplex_density_and_values(), st.integers(0, 3))
def test_power_integral_at_integer_exponents_is_the_exact_integral(case, s):
    vertices, products, values = case
    n = len(vertices[0])
    assume(matrix_rank([vsub(v, vertices[0]) for v in vertices[1:]]) == len(vertices) - 1)
    expansion = Expansion(VPolytope(n, vertices), products)
    exact = expansion.integral(((values, s),))
    total = expansion.integral_power(values, s)
    assert total.terms == () and F(total.constant, total.den) == exact
    enclosure = total.enclosure(64)
    assert enclosure.lo <= exact * enclosure.den <= enclosure.hi


@pytest.mark.parametrize("values, s", [
    ([F(-1), F(2)], F(3, 2)),   # a negative node at a non-integer exponent
    ([F(0), F(1)], F(-3, 2)),   # int_0 t^(-3/2) diverges
    ([F(0), F(1)], F(-1)),      # the logarithm at a zero node
    ([F(0), F(1)], F(-2)),
    ([F(-1), F(1)], F(-1)),     # the logarithm at a negative node
    ([F(-1), F(1)], F(-2)),     # l changes sign inside, no node is zero
    ([F(-1), F(3)], F(-3)),
])
def test_integral_power_singular_nodes_raise(values, s):
    expansion = Expansion(VPolytope(1, [vec([0]), vec([1])]), [(F(1), ())])
    with pytest.raises(SingularIntegrandError):
        expansion.integral_power(values, s)


def test_integral_power_integrable_zero_nodes():
    # int_0^1 t^(-1/2) dt = 2; 1 / l on a triangle where l vanishes at one
    # vertex only: int over the unit triangle of 1 / (x + y) = 1
    segment = Expansion(VPolytope(1, [vec([0]), vec([1])]), [(F(1), ())])
    triangle = Expansion(VPolytope(2, [vec([0, 0]), vec([1, 0]), vec([0, 1])]), [(F(1), ())])
    # int_(-2)^(-1) t^(-2) dt = 1/2: negative nodes of one sign are integrable
    for expansion, s, exact, shift in ((segment, F(-1, 2), 2, 0), (triangle, F(-1), 1, 0),
                                       (segment, F(-2), F(1, 2), -2)):
        values = [sum(x) + shift for x in expansion.vertices]
        enclosure = expansion.integral_power(values, s).enclosure(64)
        assert enclosure.lo <= exact * enclosure.den <= enclosure.hi
        assert enclosure.half_width <= 1e-18


def test_integral_power_rank1_against_mpmath_quad():
    import mpmath

    # density (x + 2)^2 on [-1, 3]; the forms vanish at an end point or not
    polytope = VPolytope(1, [vec([-1]), vec([3])])
    density = Expansion(polytope, [(F(1), ((AffineForm(vec([1]), F(2)), 2),))])
    cases = [(AffineForm(vec([1]), F(1)), F(5, 2)),     # zero node at -1
             (AffineForm(vec([-1]), F(3)), F(7, 3)),    # zero node at 3
             (AffineForm(vec([F(1, 2)]), F(1)), F(-3)),
             (AffineForm(vec([F(1, 4)]), F(2)), F(-1))]  # log branch
    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(40):
        for form, s in cases:
            a, b = mp(form.normal[0]), mp(form.offset)
            ref = mpmath.quad(lambda x: (x + 2) ** 2 * max(a * x + b, 0) ** mp(s), [-1, 3])
            values = [form(x) for x in density.vertices]
            value, err = density.integral_power(values, s).enclosure(64).float_with_error()
            assert err <= 1e-15 * abs(value)
            assert abs(value - float(ref)) <= err + 1e-15 * abs(value)


def test_inverse_power_closed_form_matches_enclosure():
    rng = random.Random(5)
    checked = 0
    while checked < 6:
        pts = [vec([rng.randint(-2, 2) for _ in range(2)]) for _ in range(5)]
        polytope = VPolytope(2, pts)
        if polytope.affine_dim < 2:
            continue
        factor = AffineForm(vec([rng.randint(-1, 1), rng.randint(-1, 1)]), F(3))
        expansion = Expansion(polytope, [(F(1), ((factor, rng.randint(0, 2)),))])
        # |xi_i| <= 1/7 keeps l = <xi, x> + 1 positive on [-2, 2]^2
        form = AffineForm(vec([F(rng.randint(-1, 1), 7), F(rng.randint(-1, 1), 7)]), F(1))
        values = [float(form(x)) for x in polytope.vertices]
        for k in range(5, 8):
            (value,), (err,) = integral_inverse_power(expansion.inverse_power_tables[0], values, k)
            enclosure = expansion.integral_power([form(x) for x in polytope.vertices], -k).enclosure(64)
            assert abs(value - enclosure.mid) <= err + enclosure.half_width
        checked += 1


def test_inverse_power_refuses_logarithmic_terms():
    expansion = Expansion(VPolytope(1, [vec([0]), vec([1])]), [(F(1), ())])
    with pytest.raises(IntegrationError):
        integral_inverse_power(expansion.inverse_power_tables[0], [1.0, 2.0], 1)


# ---------------------------------------------------------------------------
# integer powers of one affine form: the form F_p(w, c)


@settings(max_examples=60, deadline=None)
@given(_simplex_products_and_form(), st.integers(0, 4))
def test_power_form_matches_exact_kernel_on_simplices(case, p):
    vertices, products, form = case
    n = len(vertices[0])
    assume(matrix_rank([vsub(v, vertices[0]) for v in vertices[1:]]) == len(vertices) - 1)
    expansion = Expansion(VPolytope(n, vertices), products)
    assume(expansion.mass != 0)
    values = [form(x) for x in expansion.vertices]
    integral = expansion.power_mean(form.normal, form.offset, p) * expansion.mass
    assert integral == expansion.integral(((values, p),))


@st.composite
def _polytope_density_and_rays(draw):
    """A polytope of rank 1, 2 or 3 with rational vertices, whose
    triangulation may have several simplices, a density that is a product
    of affine forms, and random rays v, each with a rational value l(v):
    the forms <x, v> + l(v)."""
    n = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[_RAT] * n), min_size=n + 1, max_size=n + 4, unique=True))
    form = st.builds(AffineForm, st.tuples(*[st.integers(-2, 2).map(F)] * n), _RAT)
    factors = draw(st.lists(st.tuples(form, st.integers(1, 3)), max_size=3))
    rays = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * n), _RAT), min_size=1, max_size=3))
    return VPolytope(n, points), [(draw(_RAT), tuple(factors))], rays


@settings(max_examples=40, deadline=None)
@given(_polytope_density_and_rays())
def test_power_form_at_rays_matches_exact_kernel(case):
    polytope, products, rays = case
    assume(polytope.affine_dim == polytope.dim)
    expansion = Expansion(polytope, products)
    assume(expansion.mass != 0)
    for v, lv in rays:
        values = [sum(a * b for a, b in zip(x, v)) + lv for x in expansion.vertices]
        for p in range(5):
            assert expansion.power_mean(v, lv, p) * expansion.mass == expansion.integral(((values, p),))


@st.composite
def _polytope_with_wonderful_density(draw):
    """A polygon or 3-polytope whose triangulation has several simplices,
    the density of the wonderful A3 or B3 compactification read through a
    random embedding of its coordinates, and a form with rational
    values."""
    n = draw(st.sampled_from([2, 3]))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                           min_size=n + 2, max_size=n + 4, unique=True))
    embed = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n), min_size=3, max_size=3))
    rs = RootSystem(draw(st.sampled_from("AB")), 3)
    density = dh_density(rs, None, (1, 2, 1), embed, draw(st.booleans()))
    form = AffineForm(draw(st.tuples(*[_RAT] * n)), draw(_RAT))
    return VPolytope(n, points), density, form


@settings(max_examples=40, deadline=None)
@given(_polytope_with_wonderful_density(), st.integers(0, 4))
def test_power_form_matches_exact_kernel_on_polytopes(case, p):
    polytope, density, form = case
    assume(polytope.affine_dim == polytope.dim and len(polytope.triangulation) > 1)
    expansion = density_expansion(polytope, density, [(F(1), ())])
    assume(expansion.mass != 0)
    values = [form(x) for x in expansion.vertices]
    integral = expansion.power_mean(form.normal, form.offset, p) * expansion.mass
    assert integral == expansion.integral(((values, p),))


def test_power_form_built_once_per_exponent(monkeypatch):
    builds = []
    real = Expansion._power_form
    monkeypatch.setattr(Expansion, "_power_form",
                        lambda self, p: builds.append(p) or real(self, p))
    square = VPolytope(2, [vec([0, 0]), vec([2, 0]), vec([0, 2]), vec([2, 2])])
    expansion = Expansion(square, [(F(1), ((AffineForm(vec([1, 1]), F(1)), 2),))])
    for p in (2, 3, 2):
        for t in range(3):
            values = [F(x[0] - t, 3) + x[1] for x in expansion.vertices]
            value = expansion.power_mean((F(1, 3), F(1)), F(-t, 3), p) * expansion.mass
            assert value == expansion.integral(((values, p),))
    assert builds == [2, 3]


def test_moments_do_not_use_the_power_form(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("the power form was used")

    monkeypatch.setattr(Expansion, "power_mean", refuse)
    monkeypatch.setattr(Expansion, "_power_form", refuse)
    # (x + 1)(2 - x) is symmetric about x = 1/2
    density = DHDensity(2, (DHFactor(affine_form([1, 0], 1)), DHFactor(affine_form([-1, 0], 2))))
    m = dh_moments(UNIT_SQUARE, density, None, [vec([1, 0]), vec([0, 1])])
    assert m.exact and m.barycenter == (F(1, 2), F(1, 2))


# ---------------------------------------------------------------------------
# numeric cubature


def test_cubature_rules_are_built_once_per_degree(monkeypatch):
    from kstab import quad

    built = []
    rule = quad._gm_rule
    monkeypatch.setattr(quad, "_GM_CACHE", {})
    monkeypatch.setattr(quad, "_gm_rule", lambda n, s: built.append((n, s)) or rule(n, s))
    for _ in range(2):
        integrate_numeric(INTERVAL, lambda pts: np.ones(len(pts)), tol=1e-12)
    assert built == [(1, 3), (1, 4)]


def test_numeric_constant():
    q = integrate_numeric(INTERVAL, lambda pts: np.ones(len(pts)), tol=1e-12)
    assert q.converged
    assert abs(q.value - 2) <= 1e-12 + 1e-14


def test_numeric_inverse_square_of_affine():
    # antiderivative of (x/2+1)^(-2) is -2/(x/2+1); the integral is 8/3
    q = integrate_numeric(INTERVAL, lambda pts: (0.5 * pts[:, 0] + 1) ** -2,
                          tol=1e-10)
    assert q.converged
    assert abs(q.value - F(8, 3)) <= q.error_bound + 1e-12


def test_numeric_matches_exact_engine_on_random_polynomials():
    rng = random.Random(31)
    for _ in range(8):
        pts = [vec([rng.randint(-3, 3) for _ in range(3)]) for _ in range(7)]
        v = VPolytope(3, pts)
        if v.affine_dim < 3:
            continue
        terms = {tuple(rng.randint(0, 1) for _ in range(3)): F(rng.randint(-4, 4))
                 for _ in range(4)}
        poly = Polynomial(3, terms)
        exact = integrate_poly(v, poly)
        q = integrate_numeric(v, partial(eval_float, poly), tol=1e-9)
        assert abs(float(exact) - q.value) <= q.error_bound + 1e-9 * (1 + abs(float(exact)))


def test_numeric_singular_integrand_raises():
    def f(pts):
        with np.errstate(divide="ignore"):
            return 1.0 / (pts[:, 0] - 0.25)

    with pytest.raises(SingularIntegrandError):
        integrate_numeric(INTERVAL, f, tol=1e-8)


def test_numeric_budget_flag():
    # hard oscillatory integrand with a tiny budget: must flag, not lie
    q = integrate_numeric(UNIT_SQUARE,
                          lambda pts: np.sin(40 * pts[:, 0]) * np.cos(37 * pts[:, 1]),
                          tol=1e-14, max_subdivisions=5)
    assert not q.converged
    assert q.error_bound > 1e-14


def test_numeric_deterministic():
    f = lambda pts: np.exp(pts[:, 0])
    q1 = integrate_numeric(INTERVAL, f, tol=1e-11)
    q2 = integrate_numeric(INTERVAL, f, tol=1e-11)
    assert q1.value == q2.value and q1.error_bound == q2.error_bound


# ---------------------------------------------------------------------------
# DH moments


PGL2_DENSITY = DHDensity(1, (DHFactor(affine_form([1], 1), 2, F(1)),))


def test_dh_moments_pgl2():
    m = dh_moments(INTERVAL, PGL2_DENSITY, ConstantWeight(F(1)), [])
    assert m.exact
    assert m.mass == F(8, 3)
    assert m.first_moment == (F(4, 3),)
    assert m.barycenter == (F(1, 2),)


def test_dh_moments_constant_weight_cancels():
    m1 = dh_moments(INTERVAL, PGL2_DENSITY, ConstantWeight(F(1)), [])
    m7 = dh_moments(INTERVAL, PGL2_DENSITY, ConstantWeight(F(7)), [])
    assert m1.barycenter == m7.barycenter


def test_dh_moments_degenerate_affine_power_is_constant():
    g = AffinePowerWeight(vec([0]), F(1), 0)
    m = dh_moments(INTERVAL, PGL2_DENSITY, g, [vec([1])])
    assert m.exact and m.barycenter == (F(1, 2),)


def test_dh_moments_polynomial_weight_exact():
    g = PolynomialWeight(Polynomial(1, {(2,): F(1), (0,): F(1)}))
    m = dh_moments(INTERVAL, DHDensity(1, ()), g, [vec([1])])
    # int (x^2+1) dx = 8/3, int x(x^2+1) dx = 0 over [-1,1]
    assert m.exact and m.mass == F(8, 3) and m.first_moment == (F(0),)


def test_dh_moments_numeric_weight_certified():
    import mpmath

    g = AffinePowerWeight(vec([F(1, 2)]), F(1), 0.5)
    m = dh_moments(INTERVAL, DHDensity(1, ()), g, [vec([1])])
    assert not m.exact
    # closed forms via u = x/2 + 1 (dx = 2 du, x = 2(u - 1)):
    # mass = 2 int u^(1/2) du;  moment = 4 int (u - 1) u^(1/2) du
    with mpmath.workdps(40):
        hi, lo = mpmath.mpf(3) / 2, mpmath.mpf(1) / 2
        mass = mpmath.mpf(4) / 3 * (hi ** 1.5 - lo ** 1.5)
        mom = 4 * (mpmath.mpf(2) / 5 * (hi ** 2.5 - lo ** 2.5)
                   - mpmath.mpf(2) / 3 * (hi ** 1.5 - lo ** 1.5))
        # each enclosure contains the true value, and is tight
        for enclosure, value in ((m.mass, mass), (m.first_moment[0], mom),
                                 (m.barycenter[0], mom / mass)):
            assert mpmath.mpf(enclosure.lo) / enclosure.den <= value <= mpmath.mpf(enclosure.hi) / enclosure.den
            assert enclosure.half_width <= 1e-12 * max(1, abs(enclosure.mid))


@pytest.mark.parametrize("ends", [(1, 3), (-3, -1), (-1, 2)], ids=["positive", "negative", "mixed"])
def test_enclosure_quotient_is_the_interval_quotient(ends):
    from kstab.powers import Enclosure

    num, den = Enclosure(*ends, 2), Enclosure(3, 5, 4)
    q = num / den
    quotients = [F(x, 2) / F(y, 4) for x in ends for y in (3, 5)]
    assert (F(q.lo, q.den), F(q.hi, q.den)) == (min(quotients), max(quotients))


def test_dh_moments_kept_per_polytope_and_weight():
    seg = VPolytope(1, [vec([-1]), vec([1])])
    m = dh_moments(seg, PGL2_DENSITY, ConstantWeight(F(1)), [])
    assert dh_moments(seg, PGL2_DENSITY, ConstantWeight(F(3)), []) is m
    g = PolynomialWeight(Polynomial(1, {(1,): F(1), (0,): F(2)}))
    mg = dh_moments(seg, PGL2_DENSITY, g, [vec([1])])
    assert mg is not m and dh_moments(seg, PGL2_DENSITY, g, [vec([1])]) is mg


def test_dh_moments_positive_mass_required():
    bad = DHDensity(1, (DHFactor(affine_form([1], -2), 1),))
    with pytest.raises(ValueError):
        dh_moments(INTERVAL, bad, ConstantWeight(F(1)), [])


def test_dh_factor_vanishing_on_polytope_rejected():
    flat = DHDensity(1, (DHFactor(affine_form([0], 0), 1),))
    with pytest.raises(ZeroFactorError):
        flat.check_positive_on(INTERVAL.vertices)


def test_weight_constant_detection():
    assert ConstantWeight(F(3)).constant_value() == 3
    assert AffinePowerWeight(vec([0]), F(2), 3).constant_value() == 8
    assert AffinePowerWeight(vec([0]), F(1), -4.5).constant_value() == 1
    assert AffinePowerWeight(vec([1]), F(1), 0.5).constant_value() is None


# ---------------------------------------------------------------------------
# Monte Carlo consistency (seeded; exact engine vs sampling)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_monte_carlo_consistency_small(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    pts = [vec([rng.randint(-3, 3) for _ in range(dim)]) for _ in range(dim + 3)]
    v = VPolytope(dim, pts)
    if v.affine_dim < dim:
        return
    terms = {tuple(rng.randint(0, 2) for _ in range(dim)): F(rng.randint(-3, 3))
             for _ in range(3)}
    poly = Polynomial(dim, terms)
    exact = float(integrate_poly(v, poly))
    lo = np.array([min(float(p[i]) for p in v.vertices) for i in range(dim)])
    hi = np.array([max(float(p[i]) for p in v.vertices) for i in range(dim)])
    box_vol = float(np.prod(hi - lo))
    nprng = np.random.default_rng(seed)
    samples = nprng.uniform(lo, hi, size=(200_000, dim))
    forms, _ = v.hrep
    inside = np.ones(len(samples), dtype=bool)
    for f in forms:
        inside &= samples @ np.array([float(c) for c in f.normal]) + float(f.offset) >= 0
    vals = eval_float(poly, samples) * inside
    est = box_vol * vals.mean()
    se = box_vol * vals.std(ddof=1) / np.sqrt(len(samples))
    assert abs(est - exact) <= 4 * se + 1e-9
