"""Combinatorial model of a polarized spherical variety.

The input is the boundary-divisor data of a chosen eigensection, a colored
fan, and the valuation cone.  From it we build the section polytope, the
piecewise-linear function of the section on the pieces of the fan in the
valuation cone, checked on their walls, the finite candidate ray set over
which the stability thresholds are minimized, and the level-k truncations
of the expected vanishing order.  The anticanonical section gives a second
input over the same fan (`SphericalInput.anticanonical`), whose section
function is the log discrepancy; it is the input itself when both sections
give every divisor the same coefficient.  The minimum over the candidates
is the paper's minimum only when the fan covers the valuation cone, which
every input is checked for exactly, with no two of its pieces overlapping
there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .geom import (
    AffineForm,
    Cone,
    EmptyPolytopeError,
    UnboundedPolytopeError,
    Vec,
    VPolytope,
    dot,
    rowspace_solution,
    vec,
    vneg,
    vsub,
)
from .quad import UNIT_WEIGHT, DHDensity, WeightFn, eval_products


class SphericalDataError(Exception):
    pass


class NotQCartierError(SphericalDataError):
    pass


class TooManyPointsError(SphericalDataError):
    pass


class OutsideFanSupportError(SphericalDataError):
    pass


LATTICE_POINT_LIMIT = 10 ** 7


@dataclass(frozen=True)
class DivisorRecord:
    """A B-stable prime divisor: its image rho(D) in N and its coefficient
    in the divisor of the chosen section."""

    name: str
    rho: Vec
    coeff: Fraction
    is_color: bool = False


@dataclass(frozen=True)
class ColoredConeData:
    """One cone of the colored fan.

    ``generators`` are the valuation-cone generators; color images are added
    from the referenced records.  ``divisor_names`` lists exactly the
    B-stable divisors containing the orbit (incidence is input data, not
    inferred).
    """

    generators: tuple[Vec, ...]
    divisor_names: tuple[str, ...]


@dataclass(frozen=True)
class PLPiece:
    cone: Cone
    linear: Vec  # element of M tensor Q defining the function on the cone


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function on the valuation cone, one piece per
    full-dimensional meet of a fan cone with it."""

    pieces: tuple[PLPiece, ...]

    def __call__(self, v: Vec) -> Fraction:
        v = vec(v)
        for piece in self.pieces:
            if piece.cone.contains(v):
                return dot(piece.linear, v)
        raise OutsideFanSupportError(f"{_span([v])} lies outside the valuation cone")


def section_polytope(divisors: Sequence[DivisorRecord]) -> VPolytope:
    """{m : <rho(D), m> + n_D >= 0 for every B-stable divisor D}, refused
    unless it is a nonempty polytope of dimension the rank: S(v) and delta
    are normalized by its volume, vol(L), which is zero for a line bundle
    that is not big."""
    if not divisors:
        raise SphericalDataError("no divisor records")
    dim = len(divisors[0].rho)
    forms = [AffineForm(d.rho, d.coeff) for d in divisors]
    try:
        polytope = VPolytope.from_inequalities(dim, forms)
    except EmptyPolytopeError as e:
        raise SphericalDataError(f"section polytope is empty: {e}") from e
    except UnboundedPolytopeError as e:
        raise SphericalDataError(
            f"section polytope is unbounded (bundle not ample?): {e}") from e
    if polytope.affine_dim < dim:
        raise SphericalDataError(
            f"section polytope has dimension {polytope.affine_dim} < rank {dim}: "
            "the line bundle is not big")
    return polytope


def colored_generators(cone_data: ColoredConeData,
                       divisors: Sequence[DivisorRecord]) -> list[Vec]:
    """Generators of a colored cone: its valuation-cone generators and the
    images of its colors among ``divisors``, which list every name."""
    by_name = {d.name: d for d in divisors}
    return list(cone_data.generators) + [
        by_name[n].rho for n in cone_data.divisor_names if by_name[n].is_color]


def build_pl_function(divisors: Sequence[DivisorRecord],
                      fan: Sequence[ColoredConeData],
                      cones: Sequence[Cone]) -> PLFunction:
    """Per-cone linear forms m_Y with <rho(D), m_Y> = n_D for every incident
    divisor; underdetermined directions are set to zero (row-space solution).
    ``cones[i]`` is the cone of ``fan[i]``, on which its piece is read.
    Continuity is the caller's to check (`SphericalInput.section_support`).
    """
    by_name = {d.name: d for d in divisors}
    pieces = []
    for cone_data, cone in zip(fan, cones, strict=True):
        incident = [by_name[name] for name in cone_data.divisor_names]
        if not incident:
            raise SphericalDataError("colored cone with no incident divisors")
        rows = [d.rho for d in incident]
        rhs = [d.coeff for d in incident]
        sol = rowspace_solution(rows, rhs)
        if sol is None:
            raise NotQCartierError(
                "inconsistent per-cone system: no piecewise-linear function "
                "interpolates the divisor coefficients")
        pieces.append(PLPiece(cone, sol))
    return PLFunction(tuple(pieces))


def candidate_set_E(meets: Sequence[Cone]) -> list[Vec]:
    """Primitive generators of the extreme rays of every fan cone met with
    the valuation cone (``meets``), each pointed since its fan cone is."""
    rays: set[Vec] = set()
    for piece in meets:
        rays.update(piece.rays)
    return sorted(rays)


def _span(rays) -> str:
    return ", ".join("(" + ", ".join(map(str, r)) + ")" for r in sorted(rays)) or "0"


def _is_integer(p) -> bool:
    """Whether a moment exponent is an integer, of whichever number type:
    2, Fraction(2) and 2.0 read the same exact moment."""
    if isinstance(p, int):
        return True
    if isinstance(p, Fraction):
        return p.denominator == 1
    if isinstance(p, float):
        return p.is_integer()
    return False


def lattice_points(p: VPolytope, k: int) -> list[Vec]:
    """Integer points of the dilate k*p, in lexicographic order: the points
    m of the box around k times the vertices with m / k in p."""
    if k < 1:
        raise ValueError("dilation level must be >= 1")
    n = p.dim
    lo = [k * min(v[i] for v in p.vertices) for i in range(n)]
    hi = [k * max(v[i] for v in p.vertices) for i in range(n)]
    ranges = []
    count = 1
    for i in range(n):
        a = math.ceil(lo[i])
        b = math.floor(hi[i])
        if b < a:
            return []
        count *= (b - a + 1)
        if count > LATTICE_POINT_LIMIT:
            raise TooManyPointsError(f"more than {LATTICE_POINT_LIMIT} candidates")
        ranges.append(range(a, b + 1))
    return [vec(m) for m in itertools.product(*ranges)
            if p.contains(tuple(Fraction(c, k) for c in m))]


@dataclass
class SphericalInput:
    """Validated combinatorial description of a polarized spherical variety.

    The valuation cone must be full-dimensional and the fan must cover it
    without overlap (`_check_completeness`, an exact decision), the two
    sections must list the same B-stable prime divisors
    (`_check_anticanonical`), and the input of the anticanonical section
    (`anticanonical`) is built and checked with the input, so that a
    refusal of either section is a refusal of the document."""

    rank: int
    dim_x: int
    divisors: tuple[DivisorRecord, ...]
    anticanonical_divisors: tuple[DivisorRecord, ...]
    fan: tuple[ColoredConeData, ...]
    valuation_cone: Cone
    dh: DHDensity
    projection: tuple[Vec, ...] = ()

    def __post_init__(self):
        if self.dh.dim != self.rank:
            raise SphericalDataError("density dimension does not match rank")
        self._check_anticanonical()
        self._validate_fan()
        self.dh.check_positive_on(self.section_polytope.vertices)
        self._pieces, self._walls = self._check_completeness()
        self.anticanonical  # built and checked now, or refused

    # -- derived geometry ----------------------------------------------------

    @cached_property
    def section_polytope(self) -> VPolytope:
        """`section_polytope` of the divisors; its memo keeps the integrals."""
        return section_polytope(self.divisors)

    @cached_property
    def fan_cones(self) -> tuple[Cone, ...]:
        """The cone of each colored cone of the fan, with its colors from
        the section's divisors; built once."""
        return tuple(Cone(self.rank, colored_generators(c, self.divisors))
                     for c in self.fan)

    @cached_property
    def fan_meets(self) -> tuple[Cone, ...]:
        """Each of `fan_cones` met with the valuation cone: the cone itself
        when the valuation cone is the whole space."""
        if self.is_horospherical:
            return self.fan_cones
        return tuple(c.intersect(self.valuation_cone) for c in self.fan_cones)

    @cached_property
    def section_support(self) -> PLFunction:
        """PL function of the chosen section of the polarization:
        `build_pl_function` on the pieces, refused unless the two pieces at
        each wall inside V agree on the wall's rays."""
        pl = build_pl_function(self.divisors, [self.fan[k] for k in self._pieces.values()],
                               list(self._pieces))
        linear = {piece.cone: piece.linear for piece in pl.pieces}
        for a, b, wall in self._walls:
            if any(dot(vsub(linear[a], linear[b]), r) for r in wall):
                raise SphericalDataError(
                    f"piecewise-linear pieces disagree on the wall spanned by {_span(wall)}")
        return pl

    @cached_property
    def anticanonical(self) -> SphericalInput:
        """The input of the anticanonical section, over the same fan and
        density: the input itself when both sections give every divisor
        the same coefficient, else the input whose ``divisors`` are the
        ``anticanonical_divisors``, built and checked when the input is;
        its refusals name that list."""
        coeff = {d.name: d.coeff for d in self.divisors}
        if all(d.coeff == coeff[d.name] for d in self.anticanonical_divisors):
            return self
        try:
            return replace(self, divisors=self.anticanonical_divisors)
        except (SphericalDataError, ValueError) as e:
            raise type(e)(f"anticanonical_divisors: {e}") from e

    @property
    def log_discrepancy(self) -> PLFunction:
        """The log discrepancy A: the PL function of the anticanonical
        section, `anticanonical.section_support`."""
        return self.anticanonical.section_support

    @cached_property
    def candidates(self) -> list[Vec]:
        return candidate_set_E(self.fan_meets)

    @cached_property
    def ray_records(self) -> dict:
        """Per ray, the `invariants.RayRecord` of the section that every
        invariant reads, filled as the invariants build them."""
        return {}

    @cached_property
    def weight_entries(self) -> dict:
        """Per weight (None for the unit weight), the
        `invariants.WeightEntry` of everything the invariants read under
        it, filled as they build it."""
        return {}

    @cached_property
    def candidate_table(self) -> dict:
        """Per candidate ray, its `invariants.CandidateRow`, in candidate
        order: the table that delta^(p), alpha and delta^g iterate, filled
        as the invariants build it."""
        return {}

    @property
    def is_horospherical(self) -> bool:
        return self.valuation_cone.is_full_space

    # -- validation ----------------------------------------------------------

    def _check_anticanonical(self):
        """Both sections list every B-stable prime divisor D, so they must
        name the same divisors with the same rho(D) and color flag; only the
        coefficients may differ."""
        own = {d.name: (d.rho, d.is_color) for d in self.divisors}
        anti = {d.name: (d.rho, d.is_color) for d in self.anticanonical_divisors}
        for name in [*own, *anti]:
            if own.get(name) != anti.get(name):
                raise SphericalDataError(
                    f"divisor {name!r} is not listed with the same rho and "
                    "is_color in divisors and in anticanonical_divisors")

    def _validate_fan(self):
        by_name = {d.name: d for d in self.divisors}
        for name in (n for cone_data in self.fan for n in cone_data.divisor_names):
            if name not in by_name:
                raise SphericalDataError(f"fan references unknown divisor {name!r}")
            if by_name[name].is_color and all(c == 0 for c in by_name[name].rho):
                raise SphericalDataError(f"color {name!r} has rho = 0 inside a colored cone")
        for i, cone in enumerate(self.fan_cones):
            if not cone.is_strictly_convex:
                raise SphericalDataError("colored cone is not strictly convex")
            probe = self.fan_meets[i].relative_interior_point()
            if not cone.in_relative_interior(probe):
                raise SphericalDataError(
                    "relative interior of a colored cone misses the valuation cone")

    def _check_completeness(self) -> tuple[dict, list]:
        """Exact decision that the fan covers the valuation cone V, which
        must be full-dimensional, by pieces (fan cones met with V that are
        full-dimensional) no two of which overlap.  Fan cones may overlap
        outside V: a colored fan only asks that each point of V lie in the
        relative interior of at most one cone (Knop, "The Luna-Vust theory
        of spherical embeddings", 1991).  A pair is intersected only when
        no facet hyperplane of one piece leaves the other on its far side.

        Once each generator of V is found in some fan cone (a quick refusal
        with a pointed message), every wall (facet) of a piece must lie in
        a facet of V or have another piece on its other side that contains
        it.  A point of V that no piece covers would be reached from inside
        a piece across the relative interior of a wall, so when every wall
        passes the pieces cover V; when the cones meet in common faces, as
        in a fan, a wall that fails marks a region of V left uncovered.

        Returns the pieces, each to its fan index, and the walls inside V as
        (piece, piece across, wall rays); pieces that share a point of V are
        linked through walls containing it, which is all continuity needs."""
        vcone = self.valuation_cone
        if vcone.span_equations:
            raise SphericalDataError(
                "the valuation cone is not full-dimensional; the valuation "
                "cone of a spherical variety always is")
        for r in vcone.generators:
            if not any(c.contains(r) for c in self.fan_cones):
                raise SphericalDataError(
                    f"valuation cone generator {r} is not covered by the fan")
        # each piece -> the index of its fan cone
        pieces = {m: k for k, m in enumerate(self.fan_meets) if not m.span_equations}
        if not pieces:
            raise SphericalDataError(
                "no cone of the fan meets the valuation cone in a full-dimensional cone")
        # facet normals and rays of each piece, primitive, as ints
        ints = {m: ([tuple(x.numerator for x in n) for n in m.facet_normals],
                    [tuple(x.numerator for x in r) for r in m.rays]) for m in pieces}
        for a, b in itertools.combinations(pieces, 2):
            if any(all(sum(map(mul, n, r)) <= 0 for r in ints[q][1])
                   for p, q in ((a, b), (b, a)) for n in ints[p][0]):
                continue
            if not a.intersect(b).span_equations:
                raise SphericalDataError(
                    f"the cones spanned by {_span(self.fan_cones[pieces[a]].rays)} and by "
                    f"{_span(self.fan_cones[pieces[b]].rays)} overlap inside the valuation cone")
        # (facet normal, rays of the wall) -> its piece
        walls = {(n, frozenset(r for r in m.rays if dot(n, r) == 0)): m
                 for m in pieces for n in m.facet_normals}
        pairs = []
        for (n, wall), m in walls.items():
            if any(all(dot(u, r) == 0 for r in wall) for u in vcone.facet_normals):
                continue
            twin = vneg(n)
            q = walls.get((twin, wall)) or next((q for q in pieces if twin in q.facet_normals
                                                 and all(q.contains(r) for r in wall)), None)
            if q is None:
                raise SphericalDataError(
                    f"no cone of the fan lies across the wall spanned by {_span(wall)} of "
                    f"the cone spanned by {_span(m.rays)}: the fan misses part of the "
                    f"valuation cone there, or its cones do not meet in common faces")
            pairs.append((m, q, wall))
        return pieces, pairs

    # -- level-k sums ----------------------------------------------------------

    def module_dimension(self, m: Vec, k: int) -> Fraction:
        """dim of the level-k module attached to lattice point m, from the
        density factors: prod ((k*f(m/k) + rho_pair) / rho_pair)^mult."""
        if not self.dh.supports_dimension_counts:
            raise SphericalDataError(
                "density lacks root data; dimension counts unavailable")
        total = Fraction(1)
        for f in self.dh.factors:
            val = dot(f.form.normal, m) + k * f.form.offset
            total *= ((val + f.rho_pair) / f.rho_pair) ** f.multiplicity
        return total

    def level_sum(self, v: Vec, k: int, p, g: WeightFn | None = None) -> tuple[Fraction, Fraction, Fraction]:
        """Finite level-k truncation (S_k, d_k, T_k) of the expected
        vanishing order along v.

        S_k is the (g-weighted) mean of ((<m, v> + k l(v)) / k)^p over the
        lattice points of the dilated polytope, each weighted by its module
        dimension; d_k is the total (unweighted) dimension; T_k the maximum
        value, with l the section's support function, so that S_k tends
        to `invariants.S_p` and T_k to `invariants.T_max`.  ValueError
        unless g reads one coordinate per projection row
        (`WeightFn.check_dimension`).
        """
        g = g or UNIT_WEIGHT
        g.check_dimension(self.projection)
        v = vec(v)
        k = int(k)
        lv = self.section_support(v)
        pts = lattice_points(self.section_polytope, k)
        g_exact = g.products(self.projection, self.rank)
        power = None if g_exact is not None else g.power(self.projection, self.rank)
        s_num = Fraction(0) if power is None else 0.0
        s_den = Fraction(0) if power is None else 0.0
        d_k = Fraction(0)
        t_k = None
        for m in pts:
            dim_m = self.module_dimension(m, k)
            d_k += dim_m
            value = (dot(m, v) + k * lv) / k
            if t_k is None or value > t_k:
                t_k = value
            if g_exact is not None:
                w = eval_products(g_exact, tuple(c / k for c in m)) * dim_m
            else:
                base, s = power
                w = float(base(tuple(c / k for c in m))) ** float(s) * float(dim_m)
            if _is_integer(p):
                term = w * value ** int(p)
            else:
                term = float(w) * float(value) ** float(p)
                s_num = float(s_num)
                s_den = float(s_den)
            s_num += term
            s_den += w
        if s_den == 0:
            raise SphericalDataError("empty lattice point set at this level")
        return s_num / s_den, d_k, t_k if t_k is not None else Fraction(0)
