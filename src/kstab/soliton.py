"""Reeb-vector solver for horospherical cone data.

Minimizes the strictly convex functional
``xi |-> int_Delta (<xi, x> + 1)^(-m-1) P(x) dx``
over the xi at which every vertex value ``<xi, x> + 1`` of the section
polytope Delta of -K_X is positive, by a damped Newton iteration with a
fraction-to-boundary line search; feasibility and the line search read
those vertex values, and the float route integrates with them.  The origin
must be interior to Delta: otherwise the functional has no minimizer, and
`ReebProblem.from_polytope` raises `SolitonError` (exit 3).  At the minimizer
the first moment ``int (<xi, x> + 1)^(-m-2) x P dx`` vanishes, which is the
combinatorial certificate that the punctured canonical cone carries a
Ricci-flat Kaehler cone structure.

The functional, its gradient and its Hessian are integrals of P, x_i P and
x_i x_j P against powers -(m+1), -(m+2) and -(m+3) of one affine form, so
they have closed forms: the generalized Hermite-Genocchi identity, whose
P = 1 case is the volume function of Martelli, Sparks and Yau.  The
expansion of P is the one that the unweighted invariants read, kept once
in the section polytope's memo (`quad.density_expansion`), and with it
one float table per derivative order
(`quad.Expansion.inverse_power_tables`), so that a functional call is one
float pass per order (`quad.integral_inverse_power`) and a fresh problem
on a warm input expands nothing.  That form needs deg P <= m - dim, which
a horospherical density meets with equality (Brion, Duke Math. J. 58,
1989), so `ReebProblem` refuses a density of higher degree (exit 3).

The Newton algebra is plain Python on floats, dim <= 8: cyclic Jacobi
gives the Hessian's eigenpairs, whose least eigenvalue must be positive,
and the same decomposition gives the Newton step -V diag(1/lambda) V^T g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .geom import VPolytope
from .quad import (
    _UNIT_PRODUCTS,
    DHDensity,
    Expansion,
    density_expansion,
    integral_inverse_power,
)
from .spherical import SphericalInput


class SolitonError(Exception):
    pass


class NotHorosphericalError(SolitonError):
    pass


class InfeasiblePointError(SolitonError):
    pass


class NonConvexDetectedError(SolitonError):
    pass


class MaxIterationsError(SolitonError):
    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


MAX_NEWTON_ITERATIONS = 200
BOUNDARY_FRACTION = 0.05
GRADIENT_TOL = 1e-10

Vector = tuple[float, ...]


@dataclass(frozen=True)
class ReebProblem:
    """Section polytope, density, and complex dimension of the variety."""

    delta: VPolytope
    dh: DHDensity
    m: int

    @classmethod
    def from_polytope(cls, delta: VPolytope, dh: DHDensity, m: int) -> "ReebProblem":
        """`SolitonError` unless delta is full-dimensional with the origin
        in its interior (every facet offset positive), and a ValueError
        unless dh is positive on it."""
        problem = cls._checked(delta, (f.offset for f in delta.hrep[0]), dh, m)
        dh.check_positive_on(delta.vertices)
        return problem

    @classmethod
    def from_spherical(cls, si: SphericalInput) -> "ReebProblem":
        """The problem of a horospherical input on -K_X's section polytope
        (`si.anticanonical`), whose parse has checked the density there;
        the origin is interior when every inequality of that polytope
        holds strictly there, that is when the anticanonical coefficient
        of every divisor with rho(D) != 0 is positive (one with rho(D) = 0
        bounds nothing)."""
        if not si.is_horospherical:
            raise NotHorosphericalError(
                "Reeb solver requires the valuation cone to be the whole space")
        si = si.anticanonical
        offsets = (d.coeff for d in si.divisors if any(d.rho))
        return cls._checked(si.section_polytope, offsets, si.dh, si.dim_x)

    @classmethod
    def _checked(cls, delta: VPolytope, offsets, dh: DHDensity, m: int) -> "ReebProblem":
        """`SolitonError` unless delta is full-dimensional, dh has degree
        at most m - dim and every offset of its inequalities (their values
        at the origin) is positive."""
        if delta.affine_dim < delta.dim:
            raise SolitonError("section polytope must be full-dimensional")
        if delta.dim + dh.degree > m:
            raise SolitonError(f"density degree {dh.degree} exceeds dim_x - rank = {m} - {delta.dim}")
        if not all(offset > 0 for offset in offsets):
            raise SolitonError("the origin is not interior to the section polytope, "
                               "so the Reeb functional has no minimizer")
        return cls(delta=delta, dh=dh, m=m)

    @property
    def dim(self) -> int:
        return self.delta.dim

    @cached_property
    def vertex_array(self) -> tuple[Vector, ...]:
        return tuple(tuple(map(float, v)) for v in self.delta.vertices)

    @cached_property
    def expansion(self) -> Expansion:
        """P expanded on the triangulation of the section polytope: the
        unit-weight expansion that `quad.density_expansion` keeps in the
        polytope's memo, with its float tables."""
        return density_expansion(self.delta, self.dh, _UNIT_PRODUCTS)


@dataclass(frozen=True)
class ReebSolution:
    xi: Vector
    functional_value: float
    functional_error: float  # bound on |functional_value - F(xi)|, from `reeb_functional`
    gradient_norm: float
    hessian_min_eigval: float
    iterations: int
    converged: bool
    trace: tuple[tuple[float, float, float], ...] = ()  # (value, |grad|, step)


def _vertex_values(prob: ReebProblem, xi: Vector) -> list[float]:
    """<xi, x> + 1 at the vertices x of the section polytope."""
    return [sum(map(mul, v, xi)) + 1.0 for v in prob.vertex_array]


def reeb_functional(prob: ReebProblem, xi):
    """(value, gradient, hessian, error bound of the value) at a xi whose
    vertex values are all positive, in closed form."""
    xi = tuple(map(float, xi))
    n, m = prob.dim, prob.m
    t = _vertex_values(prob, xi)
    if not all(v > 0 for v in t):
        raise InfeasiblePointError(f"xi={xi} makes <xi, x> + 1 nonpositive at a vertex")
    one, first, second = prob.expansion.inverse_power_tables
    (value,), (err,) = integral_inverse_power(one, t, m + 1)
    grad = integral_inverse_power(first, t, m + 2)[0]
    hess_entries = integral_inverse_power(second, t, m + 3)[0]
    hess = [[0.0] * n for _ in range(n)]
    pairs = ((i, j) for i in range(n) for j in range(i, n))
    for (i, j), v in zip(pairs, hess_entries):
        hess[i][j] = hess[j][i] = (m + 1) * (m + 2) * v
    return value, tuple(-(m + 1) * g for g in grad), hess, err


def symmetric_eigenpairs(a) -> tuple[list[float], list[list[float]]]:
    """Ascending eigenvalues of a small symmetric matrix and orthonormal
    eigenvectors in the same order, by cyclic Jacobi rotations (Golub and
    Van Loan, Matrix Computations, 8.5) accumulated into V = J_1 J_2 ...,
    whose columns are the eigenvectors; an entry at most 2^-53
    sqrt|a_pp a_qq| is left, which moves no eigenvalue by more than a
    unit of roundoff."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _sweep in range(50):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 2.0 ** -53 * math.sqrt(abs(a[p][p])) * math.sqrt(abs(a[q][q])):
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                app, aqq = a[p][p] - t * apq, a[q][q] + t * apq
                for row in (*a, *v):
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                a[p][p], a[q][q], a[p][q], a[q][p] = app, aqq, 0.0, 0.0
        if not rotated:
            break
    order = sorted(range(n), key=lambda i: a[i][i])
    return [a[i][i] for i in order], [[row[i] for row in v] for i in order]


def _checked_eigenpairs(hess) -> tuple[list[float], list[list[float]]]:
    """The eigenpairs of a Hessian, refused unless its least eigenvalue is
    positive."""
    eigen = symmetric_eigenpairs(hess)
    min_eig = eigen[0][0]
    if not min_eig > 0:
        raise NonConvexDetectedError(f"Hessian not positive definite (min eigenvalue {min_eig})")
    return eigen


def newton_step(eigen: tuple[list[float], list[list[float]]], grad: Vector) -> Vector:
    """-H^-1 g = -sum_k <v_k, g> / lambda_k v_k from the eigenpairs
    (lambda_k, v_k) of H (`symmetric_eigenpairs`)."""
    step = [0.0] * len(grad)
    for lam, vk in zip(*eigen):
        c = sum(map(mul, vk, grad)) / lam
        for i, x in enumerate(vk):
            step[i] -= c * x
    return tuple(step)


def solve_reeb(prob: ReebProblem) -> ReebSolution:
    """Damped Newton minimization from xi = 0 (always strictly feasible)
    until the gradient norm is at most `GRADIENT_TOL`.

    Steps are shrunk until every vertex value <xi, x> + 1 keeps at least
    `BOUNDARY_FRACTION` of its pre-step value and the functional strictly
    decreases.
    """
    xi = (0.0,) * prob.dim
    value, grad, hess, err = reeb_functional(prob, xi)
    eigen = _checked_eigenpairs(hess)
    trace: list[tuple[float, float, float]] = [(value, math.hypot(*grad), 0.0)]

    def solution(iterations: int, converged: bool) -> ReebSolution:
        return ReebSolution(xi=xi, functional_value=value, functional_error=err,
                            gradient_norm=math.hypot(*grad),
                            hessian_min_eigval=eigen[0][0], iterations=iterations,
                            converged=converged, trace=tuple(trace))

    for iteration in range(MAX_NEWTON_ITERATIONS):
        gnorm = math.hypot(*grad)
        if gnorm <= GRADIENT_TOL:
            return solution(iteration, True)
        step = newton_step(eigen, grad)
        values_before = _vertex_values(prob, xi)
        t = 1.0
        for _ in range(80):
            candidate = tuple(x + t * d for x, d in zip(xi, step))
            values_after = _vertex_values(prob, candidate)
            if all(a >= BOUNDARY_FRACTION * b for a, b in zip(values_after, values_before)):
                break
            t *= 0.5
        else:
            raise SolitonError("line search failed to stay interior")
        for _ in range(60):
            candidate = tuple(x + t * d for x, d in zip(xi, step))
            cand = reeb_functional(prob, candidate)
            # strict descent; once value differences drop below float
            # resolution the gradient norm is the meaningful progress measure
            at_noise_floor = abs(cand[0] - value) <= 8e-16 * abs(value)
            if cand[0] < value or (at_noise_floor and math.hypot(*cand[1]) < gnorm):
                break
            t *= 0.5
        else:
            # stagnation at rounding noise: report the current iterate
            return solution(iteration, False)
        xi = candidate
        value, grad, hess, err = cand
        eigen = _checked_eigenpairs(hess)
        trace.append((value, math.hypot(*grad), t))
    raise MaxIterationsError(
        f"no convergence after {MAX_NEWTON_ITERATIONS} Newton steps",
        solution(MAX_NEWTON_ITERATIONS, False))

