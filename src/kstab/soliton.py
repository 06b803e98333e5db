"""Reeb-vector solver for horospherical cone data.

Minimizes the strictly convex functional
``xi |-> int_Delta (<xi, x> + 1)^(-m-1) P(x) dx``
over the interior of the dual body of the section polytope by a damped
Newton iteration with a fraction-to-boundary line search.  At the minimizer
the first moment ``int (<xi, x> + 1)^(-m-2) x P dx`` vanishes, which is the
combinatorial certificate that the punctured canonical cone carries a
Ricci-flat Kaehler cone structure.

The functional, its gradient and its Hessian are integrals of P, x_i P and
x_i x_j P against powers -(m+1), -(m+2) and -(m+3) of one affine form, so
they have closed forms (`quad.Expansion.integral_inverse_power`): the
generalized Hermite-Genocchi identity, whose P = 1 case is the volume
function of Martelli, Sparks and Yau.  When m + 1 <= dim + deg P, which
only a raw user density can give, the closed form carries logarithms: it
is reduced exactly to rational multiples of log t at the vertex values t,
and only those logarithms are enclosed.

The Newton algebra is plain Python on floats, dim <= 8: each step solves
its system exactly (`geom.solve_linear`), and cyclic Jacobi gives the
Hessian's least eigenvalue, which must be positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .geom import AffineForm, DualPolytope, VPolytope, solve_linear, unit_vec
from .quad import (
    DHDensity,
    Expansion,
    density_expansion,
    enclose,
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
    dual: DualPolytope

    @classmethod
    def from_polytope(cls, delta: VPolytope, dh: DHDensity, m: int) -> "ReebProblem":
        if delta.affine_dim < delta.dim:
            raise SolitonError("section polytope must be full-dimensional")
        dh.check_positive_on(delta.vertices)
        return cls(delta=delta, dh=dh, m=m, dual=delta.dual)

    @classmethod
    def from_spherical(cls, si: SphericalInput) -> "ReebProblem":
        if not si.is_horospherical:
            raise NotHorosphericalError(
                "Reeb solver requires the valuation cone to be the whole space")
        return cls.from_polytope(si.section_polytope_v, si.dh, si.dim_x)

    @property
    def dim(self) -> int:
        return self.delta.dim

    @cached_property
    def vertex_array(self) -> tuple[Vector, ...]:
        return tuple(tuple(map(float, v)) for v in self.delta.vertices)

    @cached_property
    def dual_form_arrays(self) -> tuple[tuple[Vector, ...], Vector]:
        return (tuple(tuple(map(float, f.normal)) for f in self.dual.forms),
                tuple(float(f.offset) for f in self.dual.forms))

    @cached_property
    def expansions(self) -> tuple[Expansion, tuple[Expansion, ...], dict[tuple[int, int], Expansion]]:
        """P, x_i P and x_i x_j P (i <= j) expanded on the triangulation
        of the section polytope, built once (and kept in its memo)."""
        n = self.dim
        x = [AffineForm(unit_vec(i, n), Fraction(0)) for i in range(n)]

        def expand(*factors):
            return density_expansion(self.delta, self.dh, [(Fraction(1), factors)])

        return (expand(),
                tuple(expand((x[i], 1)) for i in range(n)),
                {(i, j): expand((x[i], 1), (x[j], 1)) for i in range(n) for j in range(i, n)})


@dataclass(frozen=True)
class ReebSolution:
    xi: Vector
    functional_value: float
    gradient_norm: float
    hessian_min_eigval: float
    iterations: int
    converged: bool
    trace: tuple[tuple[float, float, float], ...] = ()  # (value, |grad|, step)


def _dual_form_values(prob: ReebProblem, xi: Vector) -> list[float]:
    normals, offsets = prob.dual_form_arrays
    return [sum(map(mul, normal, xi)) + c for normal, c in zip(normals, offsets)]


def reeb_functional(prob: ReebProblem, xi):
    """(value, gradient, hessian, error bound of the value) at a strictly
    interior point of the dual body, in closed form."""
    xi = tuple(map(float, xi))
    n, m = prob.dim, prob.m
    if not all(v > 0 for v in _dual_form_values(prob, xi)):
        raise InfeasiblePointError(f"xi={xi} is not interior to the dual body")
    one, first, second = prob.expansions
    if prob.dim + prob.dh.degree <= m:
        t = [sum(map(mul, v, xi)) + 1.0 for v in prob.vertex_array]
        value, err = one.integral_inverse_power(t, m + 1)
        grad = [e.integral_inverse_power(t, m + 2)[0] for e in first]
        hess_entries = [e.integral_inverse_power(t, m + 3)[0] for e in second.values()]
    else:
        value, err, grad, hess_entries = _enclosed_functional(prob, xi)
    hess = [[0.0] * n for _ in range(n)]
    for (i, j), v in zip(second, hess_entries):
        hess[i][j] = hess[j][i] = (m + 1) * (m + 2) * v
    return value, tuple(-(m + 1) * g for g in grad), hess, err


def _enclosed_functional(prob: ReebProblem, xi: Vector):
    """The integrals of `reeb_functional` (value with its error bound,
    then the unscaled gradient and Hessian entries) from interval
    enclosures, for densities whose degree leaves no reciprocal-power form.

    Each entry is tight to 2^-52 of its natural scale: with R the largest
    coordinate size on the polytope and t_min the least value of
    l = <xi, x> + 1 there, |int x^a P l^(-m-1-|a|)| <= (R / t_min)^|a| V,
    V the value."""
    m = prob.m
    one, first, second = prob.expansions
    form = AffineForm(tuple(Fraction(c) for c in xi), Fraction(1))
    values = [form(x) for x in prob.delta.vertices]
    jobs = [(one, m + 1, 0)] + [(e, m + 2, 1) for e in first] \
        + [(e, m + 3, 2) for e in second.values()]
    ratio = max(abs(c) for v in prob.vertex_array for c in v) / float(min(values))

    def accept(entries):
        scale = 2.0 ** -52 * abs(entries[0].mid)
        return all(e.half_width <= scale * ratio ** order
                   for e, (_, _, order) in zip(entries, jobs))

    totals = [e.integral_power(values, -k) for e, k, _ in jobs]
    entries = enclose(lambda prec: [total.enclosure(prec) for total in totals], accept)
    value, err = entries[0].float_with_error()
    rest = [e.mid for e in entries[1:]]
    return value, err, rest[:len(first)], rest[len(first):]


def symmetric_eigenvalues(a) -> list[float]:
    """Ascending eigenvalues of a small symmetric matrix by cyclic Jacobi
    rotations (Golub and Van Loan, Matrix Computations, 8.5); an entry at
    most 2^-53 sqrt|a_pp a_qq| is left, which moves no eigenvalue by more
    than a unit of roundoff."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
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
                for row in a:
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                a[p][p], a[q][q], a[p][q], a[q][p] = app, aqq, 0.0, 0.0
        if not rotated:
            break
    return sorted(a[i][i] for i in range(n))


def _checked_min_eigenvalue(hess) -> float:
    """The least eigenvalue of a Hessian, refused unless positive."""
    min_eig = symmetric_eigenvalues(hess)[0]
    if not min_eig > 0:
        raise NonConvexDetectedError(f"Hessian not positive definite (min eigenvalue {min_eig})")
    return min_eig


def solve_reeb(prob: ReebProblem) -> ReebSolution:
    """Damped Newton minimization from xi = 0 (always strictly feasible)
    until the gradient norm is at most `GRADIENT_TOL`.

    Steps are shrunk until every dual form keeps at least
    `BOUNDARY_FRACTION` of its pre-step value and the functional strictly
    decreases.
    """
    xi = (0.0,) * prob.dim
    value, grad, hess, _err = reeb_functional(prob, xi)
    min_eig = _checked_min_eigenvalue(hess)
    trace: list[tuple[float, float, float]] = [(value, math.hypot(*grad), 0.0)]

    def solution(iterations: int, converged: bool) -> ReebSolution:
        return ReebSolution(xi=xi, functional_value=value, gradient_norm=math.hypot(*grad),
                            hessian_min_eigval=min_eig, iterations=iterations,
                            converged=converged, trace=tuple(trace))

    for iteration in range(MAX_NEWTON_ITERATIONS):
        gnorm = math.hypot(*grad)
        if gnorm <= GRADIENT_TOL:
            return solution(iteration, True)
        step = tuple(map(float, solve_linear([tuple(map(Fraction, row)) for row in hess],
                                             [Fraction(-g) for g in grad])))
        forms_before = _dual_form_values(prob, xi)
        t = 1.0
        for _ in range(80):
            candidate = tuple(x + t * d for x, d in zip(xi, step))
            forms_after = _dual_form_values(prob, candidate)
            if all(a >= BOUNDARY_FRACTION * b for a, b in zip(forms_after, forms_before)):
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
        value, grad, hess, _err = cand
        min_eig = _checked_min_eigenvalue(hess)
        trace.append((value, math.hypot(*grad), t))
    raise MaxIterationsError(
        f"no convergence after {MAX_NEWTON_ITERATIONS} Newton steps",
        solution(MAX_NEWTON_ITERATIONS, False))


def stationarity_residual(prob: ReebProblem, xi) -> float:
    """Norm of int (<xi,x>+1)^(-m-2) x P dx at xi (zero at the minimizer)."""
    _value, grad, _hess, _err = reeb_functional(prob, xi)
    return math.hypot(*(g / (prob.m + 1) for g in grad))
