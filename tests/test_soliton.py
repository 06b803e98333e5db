"""Reeb solver: functional derivatives, Newton convergence, certificates."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import toric_surface_input
from kstab import geom, soliton
from kstab.fixtures import builtin_document, builtin_spherical_input
from kstab.geom import VPolytope, solve_linear, unit_vec, vec
from kstab.invariants import ding_check
from kstab.quad import AffineForm, DHDensity, DHFactor, density_expansion, integral_inverse_power
from kstab.schema import parse_input_document
from kstab.soliton import (
    InfeasiblePointError,
    NonConvexDetectedError,
    NotHorosphericalError,
    ReebProblem,
    SolitonError,
    newton_step,
    reeb_functional,
    solve_reeb,
    symmetric_eigenpairs,
)

INTERVAL = VPolytope(1, [vec([-1]), vec([1])])
SQUARE = VPolytope(2, [vec([1, 1]), vec([1, -1]), vec([-1, 1]), vec([-1, -1])])
CONST1 = DHDensity(1, ())
CONST2 = DHDensity(2, ())


def stationarity_residual(prob: ReebProblem, xi) -> float:
    """Norm of int (<xi,x>+1)^(-m-2) x P dx at xi (zero at the minimizer)."""
    grad = reeb_functional(prob, xi)[1]
    return math.hypot(*(g / (prob.m + 1) for g in grad))


@pytest.fixture(scope="module")
def bl1p2_problem(toric_bl1p2):
    return ReebProblem.from_spherical(toric_bl1p2)


# ---------------------------------------------------------------------------
# functional values


def test_functional_at_origin_interval():
    prob = ReebProblem.from_polytope(INTERVAL, CONST1, 1)
    value, grad, hess, _ = reeb_functional(prob, [0.0])
    assert abs(value - 2.0) < 1e-12
    assert abs(grad[0]) < 1e-12
    assert hess[0][0] > 0


def test_functional_at_half_interval():
    # integral of (x/2 + 1)^(-2) over [-1, 1] is 8/3
    prob = ReebProblem.from_polytope(INTERVAL, CONST1, 1)
    value, _, _, err = reeb_functional(prob, [0.5])
    assert abs(value - 8.0 / 3.0) <= err + 1e-11


def test_functional_infeasible_point_rejected():
    prob = ReebProblem.from_polytope(INTERVAL, CONST1, 1)
    with pytest.raises(InfeasiblePointError):
        reeb_functional(prob, [1.5])


def test_gradient_matches_finite_differences(bl1p2_problem):
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 5:
        xi = rng.uniform(-0.25, 0.25, size=2)
        try:
            value, grad, _, _ = reeb_functional(bl1p2_problem, xi)
        except InfeasiblePointError:
            continue
        h = 1e-4
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fp = reeb_functional(bl1p2_problem, xi + e)[0]
            fm = reeb_functional(bl1p2_problem, xi - e)[0]
            fd[i] = (fp - fm) / (2 * h)
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
        assert rel <= 1e-5
        checked += 1


# ---------------------------------------------------------------------------
# Newton solves


def test_symmetric_interval_solution_is_origin():
    prob = ReebProblem.from_polytope(INTERVAL, CONST1, 1)
    sol = solve_reeb(prob)
    assert sol.converged and sol.iterations <= 10
    assert sol.gradient_norm <= 1e-10
    assert np.allclose(sol.xi, 0.0, atol=1e-10)


def test_symmetric_square_solution_is_origin():
    prob = ReebProblem.from_polytope(SQUARE, CONST2, 2)
    sol = solve_reeb(prob)
    assert sol.converged and sol.iterations <= 10
    assert np.allclose(sol.xi, 0.0, atol=1e-10)


def test_bl1p2_on_symmetry_axis(bl1p2_problem):
    sol = solve_reeb(bl1p2_problem)
    assert sol.converged
    assert abs(sol.xi[0] - sol.xi[1]) <= 1e-9
    assert np.linalg.norm(sol.xi) > 0.05


def test_monotone_descent_and_convexity_certificates(bl1p2_problem):
    sol = solve_reeb(bl1p2_problem)
    values = [t[0] for t in sol.trace]
    # non-increasing up to one unit of float resolution at the noise floor
    assert all(b <= a + 8e-16 * abs(a) for a, b in zip(values, values[1:]))
    # strict decrease away from the noise floor
    assert values[1] < values[0]
    assert sol.hessian_min_eigval > 0


def test_stationarity_certificate(bl1p2_problem):
    sol = solve_reeb(bl1p2_problem)
    res = stationarity_residual(bl1p2_problem, sol.xi)
    m = bl1p2_problem.m
    assert res <= 1e-10 / (m + 1) * (1 + np.linalg.norm(sol.xi)) + 1e-11


def test_solution_keeps_the_functional_error_bound(bl1p2_problem):
    sol = solve_reeb(bl1p2_problem)
    assert sol.functional_error > 0
    assert sol.functional_error == reeb_functional(bl1p2_problem, sol.xi)[3]


def test_symmetry_equivariance(toric_bl1p2):
    # the coordinate swap preserves the polytope and density, so it must
    # fix the solution; a global sign flip negates it
    prob = ReebProblem.from_spherical(toric_bl1p2)
    sol = solve_reeb(prob)
    swapped = VPolytope(2, [vec([v[1], v[0]]) for v in prob.delta.vertices])
    sol_swapped = solve_reeb(ReebProblem.from_polytope(swapped, CONST2, 2))
    assert np.allclose(sol.xi[::-1], sol_swapped.xi, atol=1e-9)
    reflected = VPolytope(2, [vec([-v[0], -v[1]]) for v in prob.delta.vertices])
    sol_reflected = solve_reeb(ReebProblem.from_polytope(reflected, CONST2, 2))
    assert np.allclose([-c for c in sol.xi], sol_reflected.xi, atol=1e-9)


def test_properness_along_random_rays():
    # the feasible set is {xi : <xi, x> + 1 > 0 at every vertex x}; along
    # each ray it ends where the first vertex value reaches zero, and the
    # functional grows without bound there
    prob = ReebProblem.from_polytope(SQUARE, CONST2, 2)
    rng = np.random.default_rng(7)
    base_value, _, _, _ = reeb_functional(prob, [0.0, 0.0])
    vertices = np.array([[float(c) for c in v] for v in prob.delta.vertices])
    for _ in range(10):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        # boundary crossing parameter along the ray
        denom = vertices @ d
        with np.errstate(divide="ignore"):
            ts = np.where(denom < 0, -1.0 / denom, np.inf)
        t_star = float(np.min(ts))
        assert np.isfinite(t_star)
        with pytest.raises(InfeasiblePointError):
            reeb_functional(prob, 1.0001 * t_star * d)
        grew = False
        for frac in (0.9, 0.99, 0.999, 0.9999):
            value, _, _, _ = reeb_functional(prob, frac * t_star * d)
            if value > base_value:
                grew = True
                break
        assert grew


def test_density_weighted_problem():
    # asymmetric density shifts the minimizer off the origin; its degree 1
    # is m - dim, as for a horospherical variety of dimension 2 and rank 1
    density = DHDensity(1, (DHFactor(AffineForm(vec([1]), F(2)), 1, F(1)),))
    prob = ReebProblem.from_polytope(INTERVAL, density, 2)
    sol = solve_reeb(prob)
    assert sol.converged
    assert abs(sol.xi[0]) > 1e-3
    # stationarity: int (xi x + 1)^(-4) x (x + 2) dx = 0 at the solution
    res = stationarity_residual(prob, sol.xi)
    assert res < 1e-9


def test_density_of_degree_above_m_minus_dim_refused():
    # no horospherical variety has it: its Duistermaat-Heckman density has
    # degree dim_x - rank exactly
    density = DHDensity(1, (DHFactor(AffineForm(vec([1]), F(2)), 1, F(1)),))
    with pytest.raises(SolitonError, match=r"density degree 1 exceeds dim_x - rank = 1 - 1"):
        ReebProblem.from_polytope(INTERVAL, density, 1)


@pytest.mark.parametrize("rays", [
    [(-3, -2), (-1, -3), (1, -3), (3, -1), (2, 1), (0, 1), (-3, -1)],
    [(-3, -1), (-2, -3), (1, -3), (1, 0), (-3, 2)],
    [(-1, 0), (2, -1), (3, -1), (3, 2), (1, 3), (-1, 2)],
])
def test_skewed_polygons_converge_at_default_tol(rays):
    # far from symmetric: the minimizer lies near the feasible set's boundary
    prob = ReebProblem.from_spherical(toric_surface_input(rays))
    sol = solve_reeb(prob)
    assert sol.converged
    assert sol.gradient_norm <= 1e-10
    assert stationarity_residual(prob, sol.xi) <= 1e-10


# ---------------------------------------------------------------------------
# scope and verdict glue


def test_not_horospherical_refused(pgl2):
    with pytest.raises(NotHorosphericalError):
        ReebProblem.from_spherical(pgl2)


def test_degenerate_polytope_refused():
    seg = VPolytope(2, [vec([0, 0]), vec([1, 1])])
    with pytest.raises(SolitonError):
        ReebProblem.from_polytope(seg, CONST2, 2)


@pytest.mark.parametrize("points", [
    [[F(1, 2)], [2]],  # the origin outside
    [[0], [2]],  # the origin an endpoint
    [[0, 0], [1, 0], [0, 1]],  # the origin a vertex
])
def test_origin_not_interior_refused(points):
    # the functional has no minimizer: it decreases without end as xi
    # grows along a direction that is nonnegative on the polytope
    delta = VPolytope(len(points[0]), [vec(p) for p in points])
    with pytest.raises(SolitonError, match="origin is not interior"):
        ReebProblem.from_polytope(delta, DHDensity(delta.dim, ()), delta.dim)


@pytest.mark.parametrize("name", ["toric-p1", "toric-bl1p2"])
def test_fresh_problem_makes_no_double_description(monkeypatch, name):
    # the parse holds the section polytope's inequalities, whose offsets
    # decide that the origin is interior
    si, _ = builtin_spherical_input(name)
    calls = []
    double_description = geom.double_description
    monkeypatch.setattr(geom, "double_description",
                        lambda *args: calls.append(args) or double_description(*args))
    ReebProblem.from_spherical(si)
    assert calls == []


def test_divisor_with_zero_rho_bounds_nothing(toric_p1):
    # 0 >= 0 holds everywhere, so it does not put the origin on the boundary
    doc = builtin_document("toric-p1")
    for key in ("divisors", "anticanonical_divisors"):
        doc["variety"][key].append({"name": "C", "rho": ["0"], "coeff": "0", "is_color": True})
    si, _ = parse_input_document(doc)
    expected = solve_reeb(ReebProblem.from_spherical(toric_p1))
    assert solve_reeb(ReebProblem.from_spherical(si)) == expected


def test_pgl2_wonderful_check_polystable(pgl2):
    verdict = ding_check(pgl2)
    assert verdict.polystable


def test_grid_search_oracle_agreement(bl1p2_problem):
    """Independent route: fixed Gauss-Legendre/Duffy quadrature per triangle
    plus coarse grid search and local refinement."""
    from scipy.optimize import minimize

    verts = np.array([[float(c) for c in v] for v in bl1p2_problem.delta.vertices])
    # fan triangulation of the quadrilateral around its lexicographic root
    hull_order = [0, 1, 3, 2]  # (-1,0), (-1,2), (2,-1), (0,-1) -> ccw walk
    pts_ccw = verts[np.argsort(np.arctan2(verts[:, 1] - verts[:, 1].mean(),
                                          verts[:, 0] - verts[:, 0].mean()))]
    tris = [np.array([pts_ccw[0], pts_ccw[i], pts_ccw[i + 1]])
            for i in range(1, len(pts_ccw) - 1)]
    # Duffy transform of a tensor Gauss-Legendre grid
    nodes_1d, w_1d = np.polynomial.legendre.leggauss(24)
    u = (nodes_1d + 1) / 2
    wu = w_1d / 2
    U, V = np.meshgrid(u, u)
    WU = np.outer(wu, wu) * U  # Jacobian of the Duffy map
    bary_a = (1 - U).ravel()
    bary_b = (U * (1 - V)).ravel()
    bary_c = (U * V).ravel()
    wts = WU.ravel()

    def oracle_value(xi):
        total = 0.0
        for tri in tris:
            pts = np.outer(bary_a, tri[0]) + np.outer(bary_b, tri[1]) \
                + np.outer(bary_c, tri[2])
            area2 = abs(np.linalg.det(np.array([tri[1] - tri[0],
                                                tri[2] - tri[0]])))
            base = pts @ xi + 1.0
            if np.min(base) <= 0:
                return np.inf
            total += area2 * float(wts @ base ** -3)
        return total

    # coarse grid over the feasible set, then local refinement
    grid = np.linspace(-0.9, 0.9, 37)
    best, best_val = None, np.inf
    for a in grid:
        for b in grid:
            val = oracle_value(np.array([a, b]))
            if val < best_val:
                best, best_val = np.array([a, b]), val
    refined = minimize(oracle_value, best, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14,
                                "maxiter": 2000})
    sol = solve_reeb(bl1p2_problem)
    assert np.linalg.norm(sol.xi - refined.x) <= 1e-6


# ---------------------------------------------------------------------------
# the answer against its closed form, and the float algebra against numpy


def test_bl1p2_reeb_vector_matches_its_closed_form(bl1p2_problem):
    # the minimizer is t (1, 1) with 3 t^2 - 8 t + 1 = 0, t = (4 - sqrt 13) / 3
    # (the cone over dP1, Y^{2,1}); decided exactly: the quadratic changes
    # sign between x - 1e-12 and x + 1e-12 for each component x
    sol = solve_reeb(bl1p2_problem)
    eps = F(1, 10 ** 12)

    def q(t):
        return 3 * t * t - 8 * t + 1

    for x in sol.xi:
        assert q(F(x) - eps) > 0 > q(F(x) + eps)


def test_p2_reeb_vector_is_the_origin_without_a_step():
    triangle = VPolytope(2, [vec([-1, -1]), vec([2, -1]), vec([-1, 2])])
    sol = solve_reeb(ReebProblem.from_polytope(triangle, CONST2, 2))
    assert sol.xi == (0.0, 0.0)
    assert sol.iterations == 0 and sol.converged


def _seeded_symmetric(n, definite, seed):
    # positive definite, or with a negative diagonal entry, hence a
    # negative eigenvalue (indefinite for n > 1)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if definite:
        return a @ a.T + 0.1 * np.eye(n)
    a = a + a.T
    a[0, 0] = -1 - abs(a[0, 0])
    return a


@pytest.mark.parametrize("definite", [True, False])
@pytest.mark.parametrize("n", range(1, 9))
def test_jacobi_eigenvalues_match_eigvalsh(n, definite):
    rng = np.random.default_rng(n)
    for seed in range(5):
        a = _seeded_symmetric(n, definite, 100 * n + seed)
        got, vectors = symmetric_eigenpairs(a.tolist())
        scale = np.linalg.norm(a, 2)
        assert np.allclose(got, np.linalg.eigvalsh(a), rtol=0, atol=1e-13 * scale)
        assert (got[0] > 0) == definite
        if not definite:
            continue
        v = np.array(vectors).T  # the eigenvectors as columns
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-13
        for lam, vk in zip(got, vectors):
            assert np.linalg.norm(a @ vk - lam * np.array(vk)) <= 1e-13 * scale
        # the step from the eigenpairs against the exact solution of the
        # same float system
        g = rng.normal(size=n).tolist()
        step = newton_step((got, vectors), g)
        exact = solve_linear([tuple(map(F, row)) for row in a.tolist()], [F(-x) for x in g])
        assert max(abs(F(x) - e) for x, e in zip(step, exact)) \
            <= F(1e-12) * max(abs(e) for e in exact)


def test_indefinite_hessian_is_refused(monkeypatch, bl1p2_problem):
    value, grad, _hess, err = reeb_functional(bl1p2_problem, [0.0, 0.0])
    monkeypatch.setattr(soliton, "reeb_functional",
                        lambda prob, xi: (value, grad, [[1.0, 2.0], [2.0, 1.0]], err))
    with pytest.raises(NonConvexDetectedError, match="min eigenvalue -1"):
        solve_reeb(bl1p2_problem)


def _seeded_polygon(seed):
    """Rays of a seeded complete toric surface, counter-clockwise."""
    rng = random.Random(seed)
    rays = {(1, 0), (0, 1), (-1, -1)}
    while len(rays) < 6:
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        if math.gcd(x, y) == 1:
            rays.add((x, y))
    return sorted(rays, key=lambda r: math.atan2(r[1], r[0]))


@pytest.mark.parametrize("name, rays", [
    ("toric-bl1p2", None),
    ("P2", [(1, 0), (0, 1), (-1, -1)]),
    ("dP7", [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)]),
    ("seeded", _seeded_polygon(4)),
])
def test_merged_kernel_within_its_bound_of_the_exact_integrals(name, rays):
    # each column of the gradient's and the Hessian's tables against the
    # exact integral of its own expansion, x_i P or x_i x_j P, at the same
    # vertex values: a rational xi, and no logarithmic node
    si = builtin_spherical_input(name)[0] if rays is None else toric_surface_input(rays)
    prob = ReebProblem.from_spherical(si)
    n, m = prob.dim, prob.m
    xi = (F(3, 64), F(-5, 128))
    floats = [float(sum(a * b for a, b in zip(xi, x)) + 1) for x in prob.delta.vertices]
    values = [F(t) for t in floats]
    x = [AffineForm(unit_vec(i, n), F(0)) for i in range(n)]
    columns = ([(x[i],) for i in range(n)],
               [(x[i], x[j]) for i in range(n) for j in range(i, n)])
    for table, factors, k in zip(prob.expansion.inverse_power_tables[1:], columns, (m + 2, m + 3)):
        totals, bounds = integral_inverse_power(table, floats, k)
        assert len(totals) == len(factors)
        for total, bound, forms in zip(totals, bounds, factors):
            product = (F(1), tuple((f, 1) for f in forms))
            exact = density_expansion(prob.delta, prob.dh, [product]).integral_power(values, -k)
            assert exact.terms == ()
            assert abs(F(total) - F(exact.constant, exact.den)) <= F(bound)
