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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .geom import AffineForm, DualPolytope, VPolytope, unit_vec
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
    def vertex_array(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(c) for c in v] for v in self.delta.vertices])

    @cached_property
    def dual_form_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        normals = np.array([[float(c) for c in f.normal] for f in self.dual.forms])
        offsets = np.array([float(f.offset) for f in self.dual.forms])
        return normals, offsets

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
    xi: np.ndarray
    functional_value: float
    gradient_norm: float
    hessian_min_eigval: float
    iterations: int
    converged: bool
    trace: tuple[tuple[float, float, float], ...] = ()  # (value, |grad|, step)


def _dual_form_values(prob: ReebProblem, xi: np.ndarray) -> np.ndarray:
    normals, offsets = prob.dual_form_arrays
    return normals @ xi + offsets


def reeb_functional(prob: ReebProblem, xi):
    """(value, gradient, hessian, error bound of the value) at a strictly
    interior point of the dual body, in closed form."""
    import numpy as np

    xi = np.asarray(xi, dtype=float)
    n, m = prob.dim, prob.m
    if np.min(_dual_form_values(prob, xi)) <= 0:
        raise InfeasiblePointError(f"xi={xi} is not interior to the dual body")
    one, first, second = prob.expansions
    if prob.dim + prob.dh.degree <= m:
        t = prob.vertex_array @ xi + 1.0
        value, err = one.integral_inverse_power(t, m + 1)
        grad = [e.integral_inverse_power(t, m + 2)[0] for e in first]
        hess_entries = [e.integral_inverse_power(t, m + 3)[0] for e in second.values()]
    else:
        value, err, grad, hess_entries = _enclosed_functional(prob, xi)
    hess = np.zeros((n, n))
    for (i, j), v in zip(second, hess_entries):
        hess[i, j] = hess[j, i] = (m + 1) * (m + 2) * v
    return value, -(m + 1) * np.array(grad), hess, err


def _enclosed_functional(prob: ReebProblem, xi: np.ndarray):
    """The integrals of `reeb_functional` (value with its error bound,
    then the unscaled gradient and Hessian entries) from interval
    enclosures, for densities whose degree leaves no reciprocal-power form.

    Each entry is tight to 2^-52 of its natural scale: with R the largest
    coordinate size on the polytope and t_min the least value of
    l = <xi, x> + 1 there, |int x^a P l^(-m-1-|a|)| <= (R / t_min)^|a| V,
    V the value."""
    import numpy as np

    m = prob.m
    one, first, second = prob.expansions
    form = AffineForm(tuple(Fraction(c) for c in xi), Fraction(1))
    values = [form(x) for x in prob.delta.vertices]
    jobs = [(one, m + 1, 0)] + [(e, m + 2, 1) for e in first] \
        + [(e, m + 3, 2) for e in second.values()]
    ratio = float(np.max(np.abs(prob.vertex_array))) / float(min(values))

    def accept(entries):
        scale = 2.0 ** -52 * abs(entries[0].mid)
        return all(e.half_width <= scale * ratio ** order
                   for e, (_, _, order) in zip(entries, jobs))

    totals = [e.integral_power(values, -k) for e, k, _ in jobs]
    entries = enclose(lambda prec: [total.enclosure(prec) for total in totals], accept)
    value, err = entries[0].float_with_error()
    rest = [e.mid for e in entries[1:]]
    return value, err, rest[:len(first)], rest[len(first):]


def solve_reeb(prob: ReebProblem, tol: float = 1e-10) -> ReebSolution:
    """Damped Newton minimization from xi = 0 (always strictly feasible).

    Steps are shrunk until every dual form keeps at least
    `BOUNDARY_FRACTION` of its pre-step value and the functional strictly
    decreases.
    """
    import numpy as np

    n = prob.dim
    xi = np.zeros(n)
    value, grad, hess, _err = reeb_functional(prob, xi)
    trace: list[tuple[float, float, float]] = [(value, float(np.linalg.norm(grad)), 0.0)]
    min_eig = float(np.min(np.linalg.eigvalsh(hess)))
    if min_eig <= 0:
        raise NonConvexDetectedError(
            f"Hessian not positive definite (min eigenvalue {min_eig})")
    for iteration in range(MAX_NEWTON_ITERATIONS):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return ReebSolution(xi=xi, functional_value=value, gradient_norm=gnorm,
                                hessian_min_eigval=min_eig, iterations=iteration,
                                converged=True, trace=tuple(trace))
        step = np.linalg.solve(hess, -grad)
        forms_before = _dual_form_values(prob, xi)
        t = 1.0
        for _ in range(80):
            candidate = xi + t * step
            forms_after = _dual_form_values(prob, candidate)
            if np.all(forms_after >= BOUNDARY_FRACTION * forms_before):
                break
            t *= 0.5
        else:
            raise SolitonError("line search failed to stay interior")
        accepted = None
        for _ in range(60):
            candidate = xi + t * step
            cand_value, cand_grad, cand_hess, _err = reeb_functional(prob, candidate)
            # strict descent; once value differences drop below float
            # resolution the gradient norm is the meaningful progress measure
            at_noise_floor = abs(cand_value - value) <= 8e-16 * abs(value)
            if cand_value < value or (
                    at_noise_floor and float(np.linalg.norm(cand_grad)) < gnorm):
                accepted = (candidate, cand_value, cand_grad, cand_hess)
                break
            t *= 0.5
        if accepted is None:
            # stagnation at rounding noise: report the current iterate
            gnorm = float(np.linalg.norm(grad))
            return ReebSolution(xi=xi, functional_value=value, gradient_norm=gnorm,
                                hessian_min_eigval=min_eig,
                                iterations=iteration, converged=gnorm <= tol,
                                trace=tuple(trace))
        xi, value, grad, hess = accepted
        min_eig = float(np.min(np.linalg.eigvalsh(hess)))
        if min_eig <= 0:
            raise NonConvexDetectedError(
                f"Hessian not positive definite (min eigenvalue {min_eig})")
        trace.append((value, float(np.linalg.norm(grad)), t))
    gnorm = float(np.linalg.norm(grad))
    solution = ReebSolution(xi=xi, functional_value=value, gradient_norm=gnorm,
                            hessian_min_eigval=min_eig,
                            iterations=MAX_NEWTON_ITERATIONS, converged=False,
                            trace=tuple(trace))
    raise MaxIterationsError(
        f"no convergence after {MAX_NEWTON_ITERATIONS} Newton steps", solution)


def stationarity_residual(prob: ReebProblem, xi) -> float:
    """Norm of int (<xi,x>+1)^(-m-2) x P dx at xi (zero at the minimizer)."""
    import numpy as np

    _value, grad, _hess, _err = reeb_functional(prob, xi)
    return float(np.linalg.norm(grad / (prob.m + 1)))
