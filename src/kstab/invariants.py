"""Stability thresholds from polytope data.

Every invariant here is a minimum over the finite candidate ray set of the
valuation cone: the p-th-moment threshold delta^(p), the tangency threshold
alpha, their weighted variants, and the Ding-type verdicts obtained by
testing the weighted barycenter against the dual of the negated valuation
cone.  delta^(p), alpha, S, T and the barycenter read the input's own
section; the Ding check, beta^g and delta^g are statements about X, and
read the input of its anticanonical section
(`SphericalInput.anticanonical`), which is the input itself when the
document's section is the canonical one.  Rational inputs give exact
rational answers; every other answer reads closed forms enclosed with
directed rounding, and its error bound adds theirs and a bound on the
rounding of the float arithmetic after them.  No numeric path decides a
boundary question by float comparison.

Each of them reads, per ray v, one `RayRecord` built on first use and kept
on the input (`SphericalInput.ray_records`): l(v) for the section's
support function l, the values of <x, v> + l(v) at the section polytope's
vertices (checked nonnegative when the record is built) and their maximum
T; the vertex values serve T, non-integer p and the weights that do not
expand.  delta^(p), alpha and delta^g iterate the input's candidate table
(`SphericalInput.candidate_table`), one `CandidateRow` per candidate ray,
in candidate order: the ray, its primitive integer coordinates, A(v), its
record and A(v) / T.  So a warm input runs no cone search and evaluates
no form again.

Everything read under a weight g is kept in one `WeightEntry` per weight
(`SphericalInput.weight_entries`, None for the unit weight): the weighted
density, the barycenter, read once from the density's moments
(`quad.dh_moments`), its pairings shift + <bar, f> with the rays and
facet normals that alpha, delta^g, beta^g and the Ding check read, by
(f, shift), every S^(p), exact or enclosed, by (ray, l(v), p), and the
rows of delta^(p), alpha and delta^g by (kind, p): the per-ray table, the
minimum, the minimizing rays and delta^g's notes, which depend only on
the input, the weight, the rays and p.  So a warm call builds only its
report, whose p is the one asked, and an entry grows by one row set per
distinct p asked.
The density is `quad.weighted_density`, which refuses with a ValueError,
before the entry exists, a weight that does not read one coordinate per
projection row, that is not positive at a vertex of the section polytope,
or whose expanded mass is not positive; so S^(p), delta^(p) and every
other invariant under g run the same checks.  Each call looks its entry up
once, and each part is built on first use; a failure is not kept.  At
integer p under a weight that expands, S^(p) is one Fraction, F_p(v,
l(v)) / mass, with F_p(w, c) = int g(xbar) P (<x, w> + c)^p a form in
(w, c) built once per expansion and p and 1 / mass folded into its scale
(`quad.Expansion.power_mean`); the moments behind the barycenter are
integrated separately, so the two routes of `beta_g` stay independent.
Under a weight that does not expand (`quad.PowerDensity`), S^(p) at
non-integer p has no closed form and is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geom import Vec, dot, vec, vneg
from .quad import (
    Expansion,
    WeightFn,
    dh_moments,
    enclose,
    tight,
    weighted_density,
)
from .spherical import SphericalInput, _is_integer


class InvariantError(Exception):
    pass


class KltViolationError(InvariantError):
    pass


class NegativeValuesError(InvariantError):
    pass


class InternalInconsistencyError(InvariantError):
    pass


# ---------------------------------------------------------------------------
# numbers that remember whether they are exact


@dataclass(frozen=True)
class Num:
    """A real number, either exact rational or a float with an error bound."""

    value: float
    exact: Fraction | None = None
    error: float = 0.0

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Num":
        """f itself, with its float by integer division (as float(f))."""
        return cls(f.numerator / f.denominator, f)

    @classmethod
    def from_float(cls, v: float, error: float) -> "Num":
        return cls(value=float(v), exact=None, error=float(error))

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


_INFINITE = Num(math.inf)
_UNIT = 2.0 ** -53  # the unit roundoff of a float


# ---------------------------------------------------------------------------
# S^(p) and T


@dataclass(frozen=True, slots=True)
class RayRecord:
    """What the invariants read about a ray v under the section's support
    function l: l(v), the values of <x, v> + l(v) at the vertices of the
    section polytope, in its vertex order, and their maximum T."""

    value: Fraction
    vertex_values: tuple[Fraction, ...]
    t_max: Fraction


def _ray(si: SphericalInput, v: Vec) -> RayRecord:
    """The record of ray v, built on first use and kept in
    `SphericalInput.ray_records`.  `InvariantError` unless v has `si.rank`
    coordinates, and `NegativeValuesError` unless <x, v> + l(v) is
    nonnegative on the section polytope; a failure is not kept, so every
    call raises it."""
    records = si.ray_records
    record = records.get(v)
    if record is None:
        if len(v) != si.rank:
            raise InvariantError(f"ray ({', '.join(map(str, v))}) has {len(v)} coordinate(s), "
                                 f"the input has rank {si.rank}")
        lv = si.section_support(v)
        values = tuple(dot(x, v) + lv for x in si.section_polytope.vertices)
        if min(values) < 0:
            raise NegativeValuesError(
                f"<x, v> + l(v) negative on the section polytope for v={v}")
        record = records[v] = RayRecord(lv, values, max(values))
    return record


def _check_exponent(p):
    """`InvariantError` unless the moment exponent p is a finite number
    at least 1, the range in which delta^(p) is defined, that a float
    holds."""
    try:
        x = float(p)
    except OverflowError:
        raise InvariantError(f"the moment exponent p = {p} is too large for a float") from None
    if not 1 <= x < math.inf:
        raise InvariantError(f"the moment exponent p must be finite and at least 1, not {p}")


@dataclass(frozen=True, slots=True)
class CandidateRow:
    """A candidate ray v as the invariants read it: v, its primitive
    integer coordinates, A(v) (checked positive), the `RayRecord` of v and
    A(v) / T, where T > 0: the values are nonnegative on the
    full-dimensional section polytope, on which no nonzero v is
    constant."""

    ray: Vec
    ints: tuple[int, ...]
    a: Fraction
    record: RayRecord
    ratio_alpha: Fraction


def _candidate_rows(si: SphericalInput):
    """The rows of the candidates, in candidate order, built on first use
    and kept in `SphericalInput.candidate_table` by ray; each ray is
    checked for A(v) > 0 and then for its record, in order, and a failure
    is not kept, so the table holds the rows of a prefix of the
    candidates."""
    table = si.candidate_table
    if len(table) < len(si.candidates):
        for v in si.candidates[len(table):]:
            table[v] = _candidate_row(si, v)
    return table.values()


def _candidate_row(si: SphericalInput, v: Vec) -> CandidateRow:
    a = si.log_discrepancy(v)
    if a <= 0:
        raise KltViolationError(f"log discrepancy {a} <= 0 at ray {v}")
    record = _ray(si, v)
    return CandidateRow(v, tuple(x.numerator for x in v), a, record, a / record.t_max)


def T_max(si: SphericalInput, v) -> Fraction:
    """max over the section polytope of <x, v> + l(v), exact, for the
    section's support function l."""
    return _ray(si, vec(v)).t_max


def S_p(si: SphericalInput, v, p, g: WeightFn | None = None) -> Num:
    """p-th moment of the expected vanishing order along v:
    int g(xbar) P (<x, v> + l(v))^p / int g(xbar) P over the section
    polytope, for the section's support function l.

    Exact for integer p and exact weights: S is F_p(v, l(v)) / mass, with
    F_p(v, l(v)) = int g(xbar) P (<x, v> + l(v))^p read off the form in
    (v, l(v)) that `quad.Expansion.power_mean` builds once per p.  For
    non-integer p with a constant or polynomial weight the numerator is
    first written exactly as sum_t R_t t^p over the ray's distinct vertex
    values (`quad.Expansion.integral_power`); only those powers are
    enclosed, at a precision raised until the enclosure over the exact mass
    is tight to 1e-12 * max(1, |S|), and the error bounds the distance of
    the reported float from the true value.  Under an affine-power weight
    that does not expand, S at integer p is the quotient of two closed
    forms of its power, enclosed the same way; at non-integer p it is
    refused (`InvariantError`).  Every S, exact or enclosed, is kept in the
    input's entry for the weight, by (v, l(v), p), so 2 and 2.0, or 1.5
    and Fraction(3, 2), read one value.  `InvariantError` unless
    1 <= p < inf, and a ValueError for a weight that
    `quad.weighted_density` refuses."""
    _check_exponent(p)
    v = vec(v)
    record = _ray(si, v)
    return _moment(v, record, p, _weighted(si, g))


class WeightEntry:
    """What the invariants read of an input under one weight g (None is
    the unit weight), kept in `SphericalInput.weight_entries`: the
    weighted density over the section polytope (`quad.weighted_density`,
    whose checks of the weight pass before the entry exists), the
    barycenter as `Num`s, its pairings shift + <bar, f> by (f, shift)
    (`_pairing`), every S_p by (ray, l(v), p) (`_moment`), and the rows
    of `delta_p`, `alpha` and `delta_g` by (kind, p) (`_rows`).  The
    moments behind the barycenter stay in the density (`quad.dh_moments`).
    Each part is built on first use; a failure is not kept, so every call
    raises it again."""

    __slots__ = ("g", "density", "barycenter", "pairings", "means", "rows")

    def __init__(self, si: SphericalInput, g: WeightFn | None):
        self.g = g
        self.density = weighted_density(si.section_polytope, si.dh, g, si.projection)
        self.barycenter = None
        self.pairings: dict[tuple, Num] = {}
        self.means: dict[tuple, Num] = {}
        self.rows: dict[tuple, tuple] = {}


def _weighted(si: SphericalInput, g: WeightFn | None) -> WeightEntry:
    entry = si.weight_entries.get(g)
    if entry is None:
        entry = si.weight_entries[g] = WeightEntry(si, g)
    return entry


def _moment(v, ray: RayRecord, p, entry: WeightEntry) -> Num:
    """`S_p` along v (rational or integer), whose record is ray, under the
    entry's weight; p is checked by the caller.  Every S_p, exact or
    enclosed, is computed once and kept in the entry by (v, l(v), p), p as
    given."""
    key = (v, ray.value, p)
    s = entry.means.get(key)
    if s is None:
        s = entry.means[key] = _mean(v, ray, p, entry)
    return s


def _mean(v, ray: RayRecord, p, entry: WeightEntry) -> Num:
    density = entry.density
    expands = isinstance(density, Expansion)
    if expands and _is_integer(p):
        try:
            return Num.from_fraction(density.power_mean(v, ray.value, int(p)))
        except OverflowError as e:
            raise InvariantError(f"the moment exponent p = {p} is too large: {e}") from None
    if expands:
        total = density.integral_power(ray.vertex_values, p)
        mass = density.mass
        mean = enclose(lambda prec: total.enclosure(prec) / mass, tight)
    elif not _is_integer(p):
        raise InvariantError(
            f"S_p at the non-integer p = {p} under an affine-power weight of exponent "
            f"{entry.g.exponent}: two powers of different affine forms have no closed form")
    else:
        mean = density.mean(((ray.vertex_values, int(p)),))
    return Num.from_float(*mean.float_with_error())


# ---------------------------------------------------------------------------
# report structures


@dataclass(frozen=True)
class RayEvaluation:
    ray: Vec
    log_discrepancy: Fraction      # A = h(v)
    s_p: Num
    t_max: Fraction
    ratio_delta: Num               # A / S^(1/p)
    ratio_alpha: Fraction          # A / T
    anomalies: tuple[str, ...] = ()


@dataclass(frozen=True)
class InvariantReport:
    kind: str                      # "delta" | "alpha" | "delta_g"
    p: float | int | Fraction
    value: Num
    minimizing_rays: tuple[Vec, ...]
    table: tuple[RayEvaluation, ...]
    barycenter: tuple[Num, ...] | None = None
    notes: tuple[str, ...] = ()


def _root_ratio(a: Fraction, s: Num, p) -> Num:
    """A / S^(1/p) with the exactness that p permits; for an inexact S the
    error also covers the rounding of the float evaluation."""
    if s.is_exact:
        if s.exact == 0:
            return _INFINITE
        if _is_integer(p) and int(p) == 1:
            return Num.from_fraction(a / s.exact)
        val = float(a) / s.value ** (1.0 / float(p))
        return Num.from_float(val, 1e-14 * (1.0 + abs(val)))
    if s.value <= 0:
        return _INFINITE
    val = float(a) / s.value ** (1.0 / float(p))
    lo = float(a) / (s.value + s.error) ** (1.0 / float(p))
    hi = float(a) / max(s.value - s.error, 1e-300) ** (1.0 / float(p))
    # each of the three is off by a few units of 2^-53 from its own rounding,
    # and by |log S| units from the rounding of the exponent 1/p
    rounding = 8 * 2.0 ** -53 * (1.0 + abs(math.log(s.value))) * abs(hi)
    return Num.from_float(val, max(hi - val, val - lo) + rounding)


def _argmin_ratios(ratios: Sequence[tuple[Vec, Num, Fraction | None]]):
    """Minimum of per-ray ratios; uses p-th-power exact comparison keys when
    available (third component), float values otherwise."""
    finite = [(ray, num, key) for ray, num, key in ratios if num.value != math.inf]
    if not finite:
        raise InvariantError("no finite candidate ratios")
    if all(key is not None for _, _, key in finite):
        best = min(key for _, _, key in finite)
        mins = [ray for ray, _, key in finite if key == best]
        val = min((num for _, num, key in finite if key == best),
                  key=lambda n: n.value)
        return val, tuple(mins)
    best = min(num.value for _, num, _ in finite)
    mins = [ray for ray, num, _ in finite if num.value == best]
    val = min((num for _, num, _ in finite if num.value == best),
              key=lambda n: n.error)
    return val, tuple(mins)


def _rows(entry: WeightEntry, kind: str, p, build):
    """The (table, minimum, minimizing rays, notes) of `kind` at p under
    the entry's weight, kept in the entry by (kind, p): on first use build()
    gives the per-ray table, the (ray, ratio, exact key) of each ray that
    competes (`_argmin_ratios`) and the notes."""
    key = (kind, p)
    kept = entry.rows.get(key)
    if kept is None:
        table, ratios, notes = build()
        kept = entry.rows[key] = (table, *_argmin_ratios(ratios), notes)
    return kept


def delta_p(si: SphericalInput, p, g: WeightFn | None = None) -> InvariantReport:
    """min over candidate rays of A(v) / S^(p)(v)^(1/p), with the per-ray
    evaluation table, both kept in the weight's entry by p, so 2, 2.0 and
    Fraction(2) read one table and each report keeps the p it was asked.
    `InvariantError` unless 1 <= p < inf."""
    _check_exponent(p)
    candidates = _candidate_rows(si)
    entry = _weighted(si, g)
    table, value, mins, _ = _rows(entry, "delta", p, lambda: _delta_rows(candidates, p, entry))
    return InvariantReport(kind="delta", p=p, value=value, minimizing_rays=mins, table=table)


def _delta_rows(candidates, p, entry: WeightEntry):
    n = int(p) if _is_integer(p) else None
    rows = []
    keys = []
    for row in candidates:
        ray, a, t = row.ray, row.a, row.record.t_max
        s = _moment(row.ints, row.record, p, entry)
        # exact comparison key: A^p / S when S is exact and positive and p
        # integral; at p = 1 it is the ratio itself
        key = None
        if n is not None and s.is_exact and s.exact > 0:
            key = a ** n / s.exact
        ratio = Num.from_fraction(key) if n == 1 and key is not None else _root_ratio(a, s, p)
        rows.append(RayEvaluation(ray, a, s, t, ratio, row.ratio_alpha))
        keys.append((ray, ratio, key))
    return tuple(rows), keys, ()


def alpha(si: SphericalInput) -> InvariantReport:
    """min over candidate rays and over the polytope of A(v)/(<m,v>+l(v)),
    exact rational, with the per-ray table, both kept in the unit weight's
    entry."""
    entry = _weighted(si, None)
    table, value, mins, _ = _rows(entry, "alpha", 1, lambda: _alpha_rows(si, entry))
    return InvariantReport(kind="alpha", p=1, value=value, minimizing_rays=mins, table=table)


def _alpha_rows(si: SphericalInput, entry: WeightEntry):
    rows = []
    ratios = []
    _barycenter(si, entry)
    for row in _candidate_rows(si):
        ray, a, t = row.ray, row.a, row.record.t_max
        # S_1(v) = <bar, v> + l(v), exactly
        s = _pairing(entry, row.ints, row.record.value)
        ratio = row.ratio_alpha
        rows.append(RayEvaluation(ray, a, s, t, _root_ratio(a, s, 1), ratio))
        ratios.append((ray, Num.from_fraction(ratio), ratio))
    return tuple(rows), ratios, ()


# ---------------------------------------------------------------------------
# weighted barycenters, delta^g, beta^g


def barycenter_g(si: SphericalInput, g: WeightFn | None = None) -> tuple[Num, ...]:
    """Weighted barycenter int g(xbar) P x / int g(xbar) P of the section
    polytope."""
    return _barycenter(si, _weighted(si, g))


def _barycenter(si: SphericalInput, entry: WeightEntry) -> tuple[Num, ...]:
    """The entry's barycenter, from the moments of `quad.dh_moments`: exact
    when they are, else the floats of their enclosures with error bounds."""
    if entry.barycenter is None:
        m = dh_moments(si.section_polytope, si.dh, entry.g, si.projection)
        entry.barycenter = tuple(Num.from_fraction(c) if m.exact
                                 else Num.from_float(*c.float_with_error()) for c in m.barycenter)
    return entry.barycenter


def _float_sum(terms: list[float], error: float) -> Num:
    """The float sum of terms, each within two units of 2^-53 of an exact
    value (a rounded conversion or product), as an enclosure of the sum of
    those values: error plus the rounding.  To first order the rounding is
    at most n + 1 units of the terms' magnitudes for n terms (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, ch. 3); twice
    that, and the widening of the whole by 2n + 4 units, covers the higher
    orders and the rounding of the bound itself, and 2^-1074 per term any
    underflow."""
    n = len(terms)
    rounding = 2 * (n + 1) * _UNIT * sum(map(abs, terms)) + n * 2.0 ** -1074
    return Num(sum(terms), None, (error + rounding) * (1 + (2 * n + 4) * _UNIT))


def _pairing(entry: WeightEntry, f: Vec, shift: Fraction | int = 0) -> Num:
    """shift + <bar, f> for a rational or integer shift and functional f
    and the entry's barycenter bar, which the caller has built; kept in
    the entry by (f, shift).  Exact when bar is; otherwise a float with
    error sum |f_i| err_i plus the rounding (`_float_sum`)."""
    key = (f, shift)
    s = entry.pairings.get(key)
    if s is None:
        bar = entry.barycenter
        if all(b.is_exact for b in bar):
            s = Num.from_fraction(sum((b.exact * c for b, c in zip(bar, f)), Fraction(shift)))
        else:
            ff = [float(c) for c in f]
            s = _float_sum([float(shift)] + [b.value * c for b, c in zip(bar, ff)],
                           sum(b.error * abs(c) for b, c in zip(bar, ff)))
        entry.pairings[key] = s
    return s


def delta_g(si: SphericalInput, g: WeightFn | None = None) -> InvariantReport:
    """Weighted threshold min over rays of A / (A + <bar, v>), with bar the
    weighted barycenter of -K_X's section polytope (`si.anticanonical`).
    The per-ray table, the minimum and the notes depend only on the input,
    the weight and the rays, so they are built once and kept in the
    weight's entry."""
    si = si.anticanonical
    entry = _weighted(si, g)
    bary = _barycenter(si, entry)
    table, value, mins, notes = _rows(entry, "delta_g", 1, lambda: _delta_g_rows(si, entry))
    return InvariantReport(kind="delta_g", p=1, value=value, minimizing_rays=mins,
                           table=table, barycenter=bary, notes=notes)


def _delta_g_rows(si: SphericalInput, entry: WeightEntry):
    """The rows of `delta_g` under the entry's weight, whose barycenter is
    built: the evaluations, the (ray, ratio, exact key) of each ray with a
    positive denominator, and a note per ray without one."""
    rows = []
    ratios = []
    notes: list[str] = []
    for row in _candidate_rows(si):
        ray, a, t = row.ray, row.a, row.record.t_max
        s = _pairing(entry, row.ints, a)
        if s.is_exact:
            positive, note = s.exact > 0, f"nonpositive weighted mean {s.exact}"
            if not positive:
                s = Num.from_fraction(Fraction(0))
        else:
            positive, note = s.value - s.error > 0, "weighted mean not certifiably positive"
        if not positive:
            notes.append(f"ray {ray}: {note}")
            rows.append(RayEvaluation(ray, a, s, t, _INFINITE, row.ratio_alpha,
                                      ("nonpositive-denominator",)))
            continue
        key = a / s.exact if s.is_exact else None
        ratio = _root_ratio(a, s, 1) if key is None else Num.from_fraction(key)
        rows.append(RayEvaluation(ray, a, s, t, ratio, row.ratio_alpha))
        ratios.append((ray, ratio, key))
    return tuple(rows), tuple(ratios), tuple(notes)


@dataclass(frozen=True)
class BetaResult:
    ray: Vec
    from_integral: Num     # A - S^g(v) by direct integration
    from_barycenter: Num   # -<bar^g, v>


BETA_CONSISTENCY_TOL = 1e-8


def beta_g(si: SphericalInput, v, g: WeightFn | None = None) -> BetaResult:
    """Ding slope A(v) - S^g(v) on -K_X's section polytope
    (`si.anticanonical`), computed along two independent routes which must
    agree: direct integration, and pairing the weighted barycenter.
    `InvariantError` for the zero vector, which is no valuation ray."""
    v = vec(v)
    if not any(v):
        raise InvariantError("beta: the zero vector is not a valuation ray")
    si = si.anticanonical
    record = _ray(si, v)
    a = record.value
    entry = _weighted(si, g)
    s = _moment(v, record, 1, entry)
    if s.is_exact:
        direct = Num.from_fraction(a - s.exact)
    else:
        direct = _float_sum([float(a), -s.value], s.error)
    _barycenter(si, entry)
    mean = _pairing(entry, v)
    pairing = Num.from_fraction(-mean.exact) if mean.is_exact else Num(-mean.value, None, mean.error)
    if direct.is_exact and pairing.is_exact:
        if direct.exact != pairing.exact:
            raise InternalInconsistencyError(
                f"beta routes disagree exactly: {direct.exact} vs {pairing.exact}")
    else:
        tol = BETA_CONSISTENCY_TOL + direct.error + pairing.error
        if abs(direct.value - pairing.value) > tol:
            raise InternalInconsistencyError(
                f"beta routes disagree: {direct.value} vs {pairing.value}")
    return BetaResult(ray=v, from_integral=direct, from_barycenter=pairing)


# ---------------------------------------------------------------------------
# Ding verdicts


@dataclass(frozen=True)
class DingVerdict:
    barycenter: tuple[Num, ...]
    semistable: bool | None
    polystable: bool | None
    witness: dict | None = None
    exact: bool = True

    @property
    def verdict(self) -> str:
        if self.semistable is None or self.polystable is None:
            return "indeterminate"
        if self.polystable:
            return "polystable"
        if self.semistable:
            return "semistable"
        return "unstable"


def ding_check(si: SphericalInput, g: WeightFn | None = None) -> DingVerdict:
    """Stability verdict from the membership of the weighted barycenter of
    -K_X's section polytope (`si.anticanonical`) in the dual cone of the
    negated valuation cone -V.

    With exact barycenters the verdict is exact.  A barycenter under a
    weight that does not expand is only judged through the intervals its
    enclosures give, each pairing widened by the coordinates' error
    bounds and by its own rounding; if an interval touches a facet the
    verdict is indeterminate rather than guessed.
    """
    si = si.anticanonical
    entry = _weighted(si, g)
    bary = _barycenter(si, entry)
    exact = all(b.is_exact for b in bary)
    cone = si.valuation_cone

    def enclosure(functional: Vec) -> tuple:
        s = _pairing(entry, functional)
        return (s.exact, s.exact) if exact else (s.value - s.error, s.value + s.error)

    # the dual cone's facet functionals are the rays of -V, V's rays
    # negated, and its must-vanish functionals V's lineality.  A
    # certified violation decides "unstable" regardless of other
    # ambiguity; otherwise a pairing that touches a boundary rules out
    # polystability when exact and leaves the verdict open when not
    boundary = None
    for kind, functionals in (("equality", cone.lineality),
                              ("facet", sorted(vneg(r) for r in cone.rays))):
        for f in functionals:
            lo, hi = enclosure(f)
            if hi < 0 or (kind == "equality" and lo > 0):
                witness = {"kind": kind, "functional": f, "value": lo if exact else (lo + hi) / 2}
                return DingVerdict(bary, False, False, witness, exact)
            if boundary is None and lo <= 0 and not (kind == "equality" and lo == hi == 0):
                boundary = {"kind": "boundary-facet", "functional": f, "value": lo} if exact \
                    else {"kind": kind, "functional": f, "enclosure": (lo, hi)}
    if boundary is None:
        return DingVerdict(bary, True, True, None, exact)
    if exact:
        return DingVerdict(bary, True, False, boundary, True)
    return DingVerdict(bary, None, None, boundary, False)
