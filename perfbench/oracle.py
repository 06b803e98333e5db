"""Correctness checks for every op the benchmark times.

A check raises `OracleError` with the cause; the op then counts as failed.
Exact answers are checked with rational arithmetic against identities that
kstab does not use to produce them, and against closed forms; numeric
answers must lie within their reported error bounds of an independent
route or reference.  Every input here is anticanonically polarized, so the
section support function equals the log discrepancy A.
"""

from __future__ import annotations

import math
from fractions import Fraction

# closed forms for builtin fixtures
DELTA1_BL1P2 = Fraction(6, 7)

# largest error bound accepted on a numeric answer, relative to its size
MAX_REL_ERROR = 1e-6


class OracleError(Exception):
    pass


class NotConverged(OracleError):
    """A numeric routine reported that it did not converge: a failed op,
    but not a wrong answer."""


def _dot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def require(cond: bool, cause: str):
    if not cond:
        raise OracleError(cause)


def _check_num(num, what: str):
    """A numeric answer carries a finite, nonnegative, small error bound."""
    require(math.isfinite(num.value), f"{what}: value {num.value} not finite")
    require(math.isfinite(num.error) and num.error >= 0,
            f"{what}: bad error bound {num.error}")
    require(num.error <= MAX_REL_ERROR * max(1.0, abs(num.value)),
            f"{what}: error bound {num.error} too loose")


def _close(a: float, b: float, slack: float) -> bool:
    return abs(a - b) <= slack + 1e-12 * max(abs(a), abs(b))


def expected_verdict(bary, valuation_gens) -> str:
    """Ding verdict from an exact barycenter b: semistable iff b lies in the
    dual of the negated valuation cone, i.e. <g, b> <= 0 for every
    generator g (b = 0 when the cone is the whole space); polystable iff
    in its relative interior.  Generators are linearly independent here."""
    if valuation_gens is None:
        return "polystable" if all(c == 0 for c in bary) else "unstable"
    pairings = [-_dot(g, bary) for g in valuation_gens]
    if any(s < 0 for s in pairings):
        return "unstable"
    return "semistable" if any(s == 0 for s in pairings) else "polystable"


# ---------------------------------------------------------------------------
# exact ops


def check_barycenter(item, bary):
    require(all(b.is_exact for b in bary), "barycenter not exact")
    b = tuple(x.exact for x in bary)
    if item.vertices is not None and item.rank == 2:
        ref = polygon_centroid(item.vertices)
        require(b == ref, f"barycenter {b} != polygon centroid {ref}")
    return b


def check_delta(item, p: int, report, answers):
    rows = report.table
    require(len(rows) > 0, "empty ray table")
    for r in rows:
        require(r.s_p.is_exact and r.s_p.exact > 0, f"S_{p}({r.ray}) not exact positive")
    bary = answers.get("barycenter")
    if p == 1:
        for r in rows:
            if bary is not None:
                want = _dot(bary, r.ray) + r.log_discrepancy
                require(r.s_p.exact == want,
                        f"S_1({r.ray}) = {r.s_p.exact} != <bar, v> + l(v) = {want}")
        best = min(r.log_discrepancy / r.s_p.exact for r in rows)
        require(report.value.exact == best, f"delta^(1) {report.value.exact} != {best}")
        if item.name == "toric-bl1p2":
            require(report.value.exact == DELTA1_BL1P2,
                    f"delta^(1)(toric-bl1p2) = {report.value.exact}, expected 6/7")
    else:
        best = min(float(r.log_discrepancy) / float(r.s_p.exact) ** (1.0 / p)
                   for r in rows)
        require(_close(report.value.value, best, 0.0),
                f"delta^({p}) {report.value.value} != {best}")
        lower = answers.get(f"S{p - 1}")
        if lower is not None:
            # moments of a nonnegative variable: S_2 >= S_1^2, S_1 S_3 >= S_2^2
            s1 = answers.get("S1")
            for r in rows:
                if p == 2:
                    require(r.s_p.exact >= lower[r.ray] ** 2, f"S_2 < S_1^2 at {r.ray}")
                elif s1 is not None:
                    require(r.s_p.exact * s1[r.ray] >= lower[r.ray] ** 2,
                            f"S_1 S_3 < S_2^2 at {r.ray}")
    answers[f"S{p}"] = {r.ray: r.s_p.exact for r in rows}


def check_alpha(item, report):
    best = None
    for r in report.table:
        require(r.t_max > 0 and r.ratio_alpha == r.log_discrepancy / r.t_max,
                f"alpha ratio at {r.ray} is not A/T")
        if item.vertices is not None:
            t = max(_dot(x, r.ray) for x in item.vertices) + r.log_discrepancy
            require(r.t_max == t, f"T({r.ray}) = {r.t_max}, vertices give {t}")
        best = r.ratio_alpha if best is None else min(best, r.ratio_alpha)
    require(report.value.exact == best, f"alpha {report.value.exact} != {best}")


def check_ding(item, verdict, answers):
    require(verdict.exact, "Ding verdict not exact")
    b = tuple(x.exact for x in verdict.barycenter)
    bary = answers.get("barycenter")
    if bary is not None:
        require(b == bary, "Ding barycenter differs from barycenter_g")
    want = expected_verdict(b, item.valuation_gens)
    require(verdict.verdict == want, f"verdict {verdict.verdict}, barycenter gives {want}")
    if item.name == "pgl2":
        require(verdict.verdict == "polystable", "pgl2 is not polystable")


def check_beta(item, v, res, answers):
    require(res.from_integral.is_exact and res.from_barycenter.is_exact,
            f"beta({v}) not exact")
    require(res.from_integral.exact == res.from_barycenter.exact,
            f"beta({v}) routes disagree")
    bary = answers.get("barycenter")
    if bary is not None:
        require(res.from_barycenter.exact == -_dot(bary, v),
                f"beta({v}) != -<bar, v>")


# ---------------------------------------------------------------------------
# numeric ops


def check_barycenter_num(item, bary, answers):
    for i, b in enumerate(bary):
        _check_num(b, f"barycenter[{i}]")
    answers["barycenter_g"] = bary


def check_ding_num(item, verdict, answers):
    bary = answers.get("barycenter_g")
    for i, b in enumerate(verdict.barycenter):
        _check_num(b, f"ding barycenter[{i}]")
        if bary is not None:
            require(_close(b.value, bary[i].value, b.error + bary[i].error),
                    f"ding barycenter[{i}] outside the error bounds of barycenter_g")
    # whole-space valuation cone: any coordinate certified nonzero is unstable
    certified = any(abs(b.value) > b.error for b in verdict.barycenter)
    want = "unstable" if certified else "indeterminate"
    require(verdict.verdict == want, f"verdict {verdict.verdict}, enclosure gives {want}")


def check_delta_g(item, report, answers):
    bary = answers.get("barycenter_g")
    _check_num(report.value, "delta_g")
    if bary is None:
        return
    best = None
    for r in report.table:
        a = float(r.log_discrepancy)
        denom = a + sum(b.value * float(c) for b, c in zip(bary, r.ray))
        derr = sum(b.error * abs(float(c)) for b, c in zip(bary, r.ray))
        ratio, err = a / denom, a * derr / (denom * (denom - derr))
        if best is None or ratio < best[0]:
            best = (ratio, err)
    require(_close(report.value.value, best[0], report.value.error + best[1]),
            f"delta_g {report.value.value} != {best[0]} within error bounds")


def check_beta_num(item, v, res, answers):
    _check_num(res.from_integral, f"beta({v}) integral")
    _check_num(res.from_barycenter, f"beta({v}) pairing")
    require(_close(res.from_integral.value, res.from_barycenter.value,
                    res.from_integral.error + res.from_barycenter.error),
            f"beta({v}) routes differ beyond their error bounds")


def check_delta_frac(item, p: float, report, reference):
    """Each S_p row against a reference: for rank 1 an independent adaptive
    quadrature, within both error estimates; for rank 2 the exact moments
    S_k at integer k, by log-convexity of p -> log S_p."""
    for r in report.table:
        _check_num(r.s_p, f"S_{p}({r.ray})")
        ref = reference(r.ray, r.log_discrepancy)
        if ref[0] == "value":
            _, value, err = ref
            require(_close(r.s_p.value, value, r.s_p.error + 4 * err),
                    f"S_{p}({r.ray}) = {r.s_p.value}, reference {value}")
        else:
            _, lo, hi = ref
            slack = r.s_p.error + 1e-12 * hi
            require(lo - slack <= r.s_p.value <= hi + slack,
                    f"S_{p}({r.ray}) = {r.s_p.value} outside [{lo}, {hi}]")
    best = min(float(r.log_discrepancy) / r.s_p.value ** (1.0 / p) for r in report.table)
    require(_close(report.value.value, best, report.value.error),
            f"delta^({p}) {report.value.value} != {best}")


def check_reeb(item, sol, tol: float):
    if not sol.converged:
        raise NotConverged(f"Reeb solve did not converge (|grad| {sol.gradient_norm:.3g})")
    require(sol.gradient_norm <= tol, f"|grad| {sol.gradient_norm} > tol {tol}")
    require(sol.hessian_min_eigval > 0, "Hessian not positive definite")
    for x in item.vertices or ():
        require(sum(float(c) * t for c, t in zip(x, sol.xi)) + 1 > 0,
                "xi outside the dual body")


# ---------------------------------------------------------------------------
# references


def polygon_centroid(vertices) -> tuple[Fraction, Fraction]:
    """Exact centroid of a polygon from its counter-clockwise vertices."""
    area = cx = cy = Fraction(0)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        cross = x0 * y1 - x1 * y0
        area += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    return cx / (3 * area), cy / (3 * area)


def interval_moment(lo: float, hi: float, density, v: float, a: float, p: float):
    """(S_p, error estimate) on [lo, hi] by tanh-sinh quadrature in 30-digit
    arithmetic, which copes with the t^p endpoint singularity."""
    import mpmath

    with mpmath.workdps(30):
        def num(x):
            return density(x) * mpmath.power(max(x * v + a, 0), p)

        n, n_err = mpmath.quad(num, [lo, hi], error=True)
        d, d_err = mpmath.quad(density, [lo, hi], error=True)
        s = n / d
        return float(s), float(abs(s) * (n_err / abs(n) + d_err / abs(d)))


def log_convex_bounds(p: float, s_lo: Fraction, s_hi: Fraction, k: int):
    """Bounds on S_p for k < p < k + 1 from exact S_k and S_(k+1):
    S_k^(p/k) <= S_p <= S_k^(k+1-p) S_(k+1)^(p-k)."""
    lo = float(s_lo) ** (p / k)
    hi = float(s_lo) ** (k + 1 - p) * float(s_hi) ** (p - k)
    return lo, hi
