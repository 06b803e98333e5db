"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import random
import time
from fractions import Fraction as F
from functools import partial

import numpy as np

from conftest import eval_float, random_spherical_input
from kstab.geom import Cone, VPolytope, vec
from kstab.invariants import alpha, barycenter_g, delta_p, ding_check
from kstab.quad import (
    AffineForm,
    ConstantWeight,
    DHDensity,
    DHFactor,
    Polynomial,
    dh_moments,
    integrate_numeric,
    integrate_poly,
)
from kstab.rootsys import RootSystem
from kstab.soliton import ReebProblem, reeb_functional, solve_reeb
from kstab.spherical import ColoredConeData, DivisorRecord, SphericalInput


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------------


def test_acceptance_1_pgl2_delta_p(pgl2):
    started = time.perf_counter()
    rep1 = delta_p(pgl2, 1)
    assert rep1.value.exact == 2
    rep2 = delta_p(pgl2, 2)
    assert abs(rep2.value.value - math.sqrt(10) / 2) <= 1e-12
    rep3 = delta_p(pgl2, 3)
    assert abs(rep3.value.value - 0.5 * 20 ** (1 / 3)) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"delta^(1)=2 exact, delta^(2)=sqrt(10)/2 and "
               f"delta^(3)=20^(1/3)/2 within 1e-12 ({elapsed * 1000:.0f} ms)")


def test_acceptance_2_pgl2_alpha(pgl2):
    started = time.perf_counter()
    rep = alpha(pgl2)
    assert rep.value.exact == F(1, 2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"alpha = 1/2 exactly ({elapsed * 1000:.0f} ms)")


def test_acceptance_3_level_sums(pgl2):
    _s1, d1, _t1 = pgl2.level_sum(vec([-1]), 1, 1)
    assert d1 == 35
    errors = {}
    for k in (8, 16, 32, 64):
        s, _d, _t = pgl2.level_sum(vec([-1]), k, 1)
        err = abs(s - F(1, 2))
        assert err <= F(2, k)
        errors[k] = float(err)
    _report(3, "level-1 dimension 35; S_k errors " +
            ", ".join(f"k={k}: {e:.4f} <= {2 / k:.4f}" for k, e in errors.items()))


def test_acceptance_4_wonderful_alpha(wonderful_a1, wonderful_a2):
    # closed form: min_i 1 / (1 + <2 rho, v_i>) in root-lattice coordinates
    for si, rs in ((wonderful_a1, RootSystem("A", 1)),
                   (wonderful_a2, RootSystem("A", 2))):
        closed = min(F(1) / (1 + c) for c in rs.two_rho_alpha_coords)
        assert alpha(si).value.exact == closed
    assert alpha(wonderful_a1).value.exact == F(1, 2)
    assert alpha(wonderful_a2).value.exact == F(1, 3)
    _report(4, "wonderful alpha: A1 = 1/2 and A2 = 1/3, both matching the "
               "closed form exactly")


def test_acceptance_5_barycenter_shift(pgl2, wonderful_a1, wonderful_a2):
    cases = [("pgl2", pgl2, (F(1),)),
             ("wonderful-a1", wonderful_a1, (F(1),)),
             ("wonderful-a2", wonderful_a2, (F(2), F(2)))]
    for name, si, chi in cases:
        base = tuple(b.exact for b in barycenter_g(si))
        moved = dh_moments(si.section_polytope_v.translated(chi),
                           si.dh.translated(chi), ConstantWeight(F(1)),
                           si.projection)
        assert moved.exact
        assert base == tuple(c - t for c, t in zip(moved.barycenter, chi))
    _report(5, "bar(Delta) = bar(Delta + chi) - chi exactly on pgl2 and both "
               "wonderful fixtures")


def test_acceptance_6_ding_verdicts(pgl2, toric_p1, toric_bl1p2):
    v1 = ding_check(pgl2)
    assert v1.exact and v1.verdict == "polystable"
    # reflected synthetic fixture: density mirrored, barycenter -1/2
    recs = (DivisorRecord("X1", vec([-1]), F(1), False),
            DivisorRecord("D1", vec([2]), F(2), True))
    reflected = SphericalInput(
        rank=1, dim_x=3,
        divisors=recs, anticanonical_divisors=recs,
        fan=(ColoredConeData((vec([-1]),), ("X1",)),),
        valuation_cone=Cone(1, [vec([-1])]),
        dh=DHDensity(1, (DHFactor(AffineForm(vec([-2]), F(2)), 2, F(1)),), F(1)),
        projection=(),
    )
    v2 = ding_check(reflected)
    assert v2.exact and v2.verdict == "unstable"
    # horospherical: polystable iff the barycenter is exactly zero
    v3 = ding_check(toric_p1)
    assert v3.exact and v3.verdict == "polystable"
    assert all(b.exact == 0 for b in v3.barycenter)
    v4 = ding_check(toric_bl1p2)
    assert v4.exact and v4.verdict == "unstable"
    assert any(b.exact != 0 for b in v4.barycenter)
    _report(6, "pgl2 polystable, reflected fixture unstable, horospherical "
               "verdicts by exact zero test of the barycenter")


def test_acceptance_7_reeb_solver(toric_bl1p2):
    started = time.perf_counter()
    # symmetric fixtures reach the origin immediately
    for delta, m in ((VPolytope(1, [vec([-1]), vec([1])]), 1),
                     (VPolytope(2, [vec([1, 1]), vec([1, -1]),
                                    vec([-1, 1]), vec([-1, -1])]), 2)):
        prob = ReebProblem.from_polytope(delta, DHDensity(delta.dim, ()), m)
        sol = solve_reeb(prob)
        assert sol.converged and sol.iterations <= 10
        assert sol.gradient_norm <= 1e-10
        assert np.allclose(sol.xi, 0.0, atol=1e-9)

    prob = ReebProblem.from_spherical(toric_bl1p2)
    sol = solve_reeb(prob)

    # independent oracle: Gauss-Legendre/Duffy quadrature, grid search at
    # resolution 1e-3 near the solver's basin, then local refinement
    from scipy.optimize import minimize
    verts = np.array([[float(c) for c in v] for v in prob.delta.vertices])
    center = verts.mean(axis=0)
    order = np.argsort(np.arctan2(verts[:, 1] - center[1],
                                  verts[:, 0] - center[0]))
    pts_ccw = verts[order]
    tris = [np.array([pts_ccw[0], pts_ccw[i], pts_ccw[i + 1]])
            for i in range(1, len(pts_ccw) - 1)]
    nodes_1d, w_1d = np.polynomial.legendre.leggauss(24)
    u = (nodes_1d + 1) / 2
    wu = w_1d / 2
    U, V = np.meshgrid(u, u)
    wts = (np.outer(wu, wu) * U).ravel()
    bary = np.stack([(1 - U).ravel(), (U * (1 - V)).ravel(),
                     (U * V).ravel()], axis=1)

    def oracle(xi):
        total = 0.0
        for tri in tris:
            pts = bary @ tri
            area2 = abs(np.linalg.det(np.array([tri[1] - tri[0],
                                                tri[2] - tri[0]])))
            base = pts @ xi + 1.0
            if np.min(base) <= 0:
                return np.inf
            total += area2 * float(wts @ base ** -3)
        return total

    grid = np.arange(-0.05, 0.35, 1e-3)
    best, best_val = None, np.inf
    vals_by_cell = {}
    for a in grid:
        xi = np.array([a, a])  # scan the symmetry axis at full resolution
        val = oracle(xi)
        if val < best_val:
            best, best_val = xi, val
    # confirm the axis is a valley by a 2d sweep at coarser resolution
    for a in np.arange(-0.1, 0.4, 0.01):
        for b in np.arange(-0.1, 0.4, 0.01):
            val = oracle(np.array([a, b]))
            if val < best_val:
                best, best_val = np.array([a, b]), val
    refined = minimize(oracle, best, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    assert np.linalg.norm(sol.xi - refined.x) <= 1e-6

    # gradient against central finite differences at random feasible points;
    # h = 1e-4 balances truncation against the certified quadrature error
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 5:
        xi = rng.uniform(-0.25, 0.25, size=2)
        try:
            _value, grad, _hess, _err = reeb_functional(prob, xi)
        except Exception:
            continue
        h = 1e-4
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (reeb_functional(prob, xi + e)[0]
                     - reeb_functional(prob, xi - e)[0]) / (2 * h)
        assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) <= 1e-5
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(7, f"symmetric solves at origin (grad <= 1e-10, <= 10 iters); "
               f"blow-up fixture xi = {[round(c, 8) for c in sol.xi]} matches the "
               f"grid+refinement oracle to 1e-6; gradients match finite "
               f"differences to 1e-5 ({elapsed:.1f} s)")


def test_acceptance_8_integration_oracles():
    rng = random.Random(20260810)
    nprng = np.random.default_rng(20260810)
    checked = 0
    max_z = 0.0
    while checked < 100:
        dim = rng.randint(1, 3)
        pts = [vec([rng.randint(-3, 3) for _ in range(dim)])
               for _ in range(dim + 3)]
        v = VPolytope(dim, pts)
        if v.affine_dim < dim:
            continue
        terms = {tuple(rng.randint(0, 2) for _ in range(dim)):
                 F(rng.randint(-4, 4)) for _ in range(4)}
        poly = Polynomial(dim, terms)
        exact = float(integrate_poly(v, poly))

        # Monte Carlo oracle, 10^6 samples in the bounding box
        lo = np.array([min(float(p[i]) for p in v.vertices) for i in range(dim)])
        hi = np.array([max(float(p[i]) for p in v.vertices) for i in range(dim)])
        box_vol = float(np.prod(hi - lo))
        samples = nprng.uniform(lo, hi, size=(1_000_000, dim))
        inside = np.ones(len(samples), dtype=bool)
        forms, _ = v.hrep
        for f in forms:
            inside &= (samples @ np.array([float(c) for c in f.normal])
                       + float(f.offset)) >= 0
        vals = eval_float(poly, samples) * inside
        est = box_vol * vals.mean()
        se = box_vol * vals.std(ddof=1) / math.sqrt(len(samples))
        z = abs(est - exact) / se if se > 0 else 0.0
        max_z = max(max_z, z)
        assert abs(est - exact) <= 3 * se + 1e-12

        # numeric cubature against the exact engine, within its own bound
        q = integrate_numeric(v, partial(eval_float, poly), tol=1e-9)
        assert abs(q.value - exact) <= q.error_bound + 1e-9 * (1 + abs(exact))
        checked += 1
    _report(8, f"100 random polytope integrals within 3 standard errors of "
               f"10^6-sample Monte Carlo (max |z| = {max_z:.2f}); cubature "
               f"agrees with the exact engine within its reported bound")


def test_acceptance_9_property_suite(all_builtins):
    from test_properties import _run_battery
    rng = random.Random(99)
    for si in all_builtins.values():
        _run_battery(si, rng)
    for seed in range(50):
        rng2 = random.Random(5000 + seed)
        si = random_spherical_input(rng2)
        _run_battery(si, rng2)
    _report(9, "power-mean monotonicity, ray-scaling invariance, "
               "alpha <= delta^(1), Minkowski subadditivity, and two-route "
               "beta equality on all builtins plus 50 random inputs")
