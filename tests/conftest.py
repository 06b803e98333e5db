"""Shared builders for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from kstab.fixtures import builtin_spherical_input
from kstab.geom import Cone, DegenerateInputError, VPolytope, _rref, dot, vadd, vec, vscale, vsub
from kstab.quad import AffineForm, DHDensity, DHFactor, Polynomial
from kstab.spherical import ColoredConeData, DivisorRecord, SphericalInput


def eval_float(poly, pts):
    """A `Polynomial` evaluated on an (k, dim) float array, for the float
    references of the exact integrals."""
    import numpy as np

    out = np.zeros(len(pts))
    for e, c in poly.terms.items():
        t = np.full(len(pts), float(c))
        for i, ei in enumerate(e):
            if ei:
                t = t * pts[:, i] ** ei
        out += t
    return out


def affine_form(normal, offset) -> AffineForm:
    return AffineForm(vec(normal), F(offset))


def translated_polytope(vp: VPolytope, t) -> VPolytope:
    """The polytope vp + t."""
    return VPolytope(vp.dim, [vadd(v, t) for v in vp.vertices])


def translated_density(dh: DHDensity, t) -> DHDensity:
    """The density on the polytope translated by +t, with the same values
    pointwise: new(x) = old(x - t)."""
    return DHDensity(dh.dim, tuple(
        DHFactor(AffineForm(f.form.normal, f.form.offset - dot(f.form.normal, t)),
                 f.multiplicity, f.rho_pair) for f in dh.factors), dh.normalization)


def invert_matrix(rows) -> list:
    """Exact inverse of a square matrix given as rows, by one reduction of
    ``[A | I]``."""
    n = len(rows)
    m = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    if len(_rref(m, n)) < n:
        raise DegenerateInputError("singular matrix")
    return [tuple(r[n:]) for r in m]


def affine_power(form: AffineForm, k: int) -> Polynomial:
    """``form ** k`` as a `Polynomial`, for an integer k >= 0."""
    n = len(form.normal)
    linear = Polynomial.constant(n, form.offset)
    for i, c in enumerate(form.normal):
        linear = linear + Polynomial.coordinate(n, i).scale(c)
    power = Polynomial.constant(n, 1)
    for _ in range(k):
        power = power * linear
    return power


# ---------------------------------------------------------------------------
# root-system oracles: weights in fundamental-weight coordinates


def weyl_dim(rs, lam_fw) -> F:
    """Weyl's product formula for the dimension of the module with highest
    weight ``lam_fw``; a positive integer for dominant integral weights,
    the rational product value in general."""
    shifted = tuple(x + 1 for x in vec(lam_fw))  # lam + rho
    total = F(1)
    for cov, rp in zip(rs.coroot_covectors, rs.rho_pairings):
        total *= dot(cov, shifted) / rp
    return total


def weyl_orbit(rs, lam_fw) -> list:
    """Orbit of a weight under the simple reflections, in lexicographic
    order."""
    lam = vec(lam_fw)
    cm = rs.cartan_matrix
    columns = [tuple(F(cm[i][j]) for i in range(rs.rank)) for j in range(rs.rank)]
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rs.rank):
                refl = vsub(mu, vscale(columns[i], mu[i]))
                if refl not in seen:
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
    return sorted(seen)


def two_rho_alpha_coords(rs) -> tuple:
    """2 rho written over the simple roots (root-lattice coordinates)."""
    inv = invert_matrix([vec(row) for row in rs.cartan_matrix])
    two = (F(2),) * rs.rank
    return tuple(dot(inv[i], two) for i in range(rs.rank))


def wonderful_moment_polytope(rs) -> VPolytope:
    """Moment polytope of the canonical compactification of the adjoint
    group, in root-lattice coordinates: {x dominant : x_i <= (2 rho)_i +
    1}, which is the Weyl-orbit hull of 2 rho + sum(alpha_i) met with the
    dominant chamber."""
    n = rs.rank
    cm = rs.cartan_matrix
    forms = [AffineForm(vec(cm[i]), F(0)) for i in range(n)]
    for i, c in enumerate(two_rho_alpha_coords(rs)):
        forms.append(AffineForm(tuple(F(-1 if j == i else 0) for j in range(n)), c + 1))
    return VPolytope.from_inequalities(n, forms)


@pytest.fixture(scope="session")
def pgl2():
    si, _ = builtin_spherical_input("pgl2")
    return si


@pytest.fixture(scope="session")
def wonderful_a1():
    si, _ = builtin_spherical_input("wonderful-a1")
    return si


@pytest.fixture(scope="session")
def wonderful_a2():
    si, _ = builtin_spherical_input("wonderful-a2")
    return si


@pytest.fixture(scope="session")
def toric_p1():
    si, _ = builtin_spherical_input("toric-p1")
    return si


@pytest.fixture(scope="session")
def toric_bl1p2():
    si, _ = builtin_spherical_input("toric-bl1p2")
    return si


@pytest.fixture(scope="session")
def all_builtins(pgl2, wonderful_a1, wonderful_a2, toric_p1, toric_bl1p2):
    return {
        "pgl2": pgl2,
        "wonderful-a1": wonderful_a1,
        "wonderful-a2": wonderful_a2,
        "toric-p1": toric_p1,
        "toric-bl1p2": toric_bl1p2,
    }


def _primitive_int(x: int, y: int) -> tuple[int, int]:
    g = math.gcd(abs(x), abs(y))
    return (x // g, y // g)


def toric_surface_input(rays, coeffs=None) -> SphericalInput:
    """Complete toric surface from its primitive rays in counter-clockwise
    order, polarized by the divisor with these coefficients (all 1, the
    anticanonical one, by default)."""
    coeffs = coeffs or [1] * len(rays)
    records = tuple(DivisorRecord(f"D{i}", vec(r), F(c), False)
                    for i, (r, c) in enumerate(zip(rays, coeffs)))
    cones = tuple(
        ColoredConeData((records[i].rho, records[(i + 1) % len(rays)].rho),
                        (records[i].name, records[(i + 1) % len(rays)].name))
        for i in range(len(rays)))
    return SphericalInput(
        rank=2, dim_x=2,
        divisors=records, anticanonical_divisors=records,
        fan=cones, valuation_cone=Cone.full_space(2),
        dh=DHDensity(2, ()),
        projection=(vec([1, 0]), vec([0, 1])),
    )


def random_toric_input(rng: random.Random) -> SphericalInput:
    """Random complete rank-2 toric datum with an anticanonical-style
    polarization and an optional polynomial density."""
    rays = {(1, 0), (0, 1), (-1, -1)}
    for _ in range(rng.randint(0, 3)):
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        if (x, y) != (0, 0):
            rays.add(_primitive_int(x, y))
    ordered = sorted(rays, key=lambda r: math.atan2(r[1], r[0]))
    base = toric_surface_input(ordered, [rng.randint(1, 3) for _ in ordered])
    if rng.random() < 0.5:
        return base
    records, cones = base.divisors, base.fan
    factors = []
    verts = base.section_polytope.vertices
    for _ in range(rng.randint(1, 2)):
        normal = vec([rng.randint(-2, 2), rng.randint(-2, 2)])
        low = min(normal[0] * v[0] + normal[1] * v[1] for v in verts)
        offset = F(1) - low
        factors.append(DHFactor(AffineForm(normal, offset), rng.randint(1, 2)))
    return SphericalInput(
        rank=2, dim_x=2,
        divisors=records, anticanonical_divisors=records,
        fan=cones, valuation_cone=Cone.full_space(2),
        dh=DHDensity(2, tuple(factors)),
        projection=(vec([1, 0]), vec([0, 1])),
    )


def random_rank1_input(rng: random.Random) -> SphericalInput:
    """Random rank-1 datum with a strictly convex valuation cone and one
    color, in the style of a group compactification."""
    a = rng.randint(1, 3)      # G-stable coefficient
    c = rng.randint(1, 3)      # color image
    b = rng.randint(1, 3) * c  # color coefficient (keeps -b/c integral often)
    records = (
        DivisorRecord("X", vec([-1]), F(a), False),
        DivisorRecord("D", vec([c]), F(b), True),
    )
    fan = (ColoredConeData((vec([-1]),), ("X",)),)
    vcone = Cone(1, [vec([-1])])
    factors = []
    lo = F(-b, c)
    hi = F(a)
    for _ in range(rng.randint(0, 2)):
        n = rng.randint(-2, 2)
        low = min(n * lo, n * hi)
        factors.append(DHFactor(AffineForm(vec([n]), F(1) - low),
                                rng.randint(1, 2)))
    return SphericalInput(
        rank=1, dim_x=3,
        divisors=records, anticanonical_divisors=records,
        fan=fan, valuation_cone=vcone,
        dh=DHDensity(1, tuple(factors)),
        projection=(),
    )


def random_spherical_input(rng: random.Random) -> SphericalInput:
    if rng.random() < 0.5:
        return random_toric_input(rng)
    return random_rank1_input(rng)


def fan_input(rays, cones, valuation_cone=None):
    """Toric-style datum: one divisor (coefficient 1) per ray in ``rays``,
    one colored cone per tuple of rays in ``cones``."""
    rank = len(rays[0])
    recs = tuple(DivisorRecord(f"D{i}", vec(r), F(1)) for i, r in enumerate(rays))
    name = {tuple(r): rec.name for r, rec in zip(rays, recs)}
    fan = tuple(ColoredConeData(tuple(vec(r) for r in c), tuple(name[tuple(r)] for r in c))
                for c in cones)
    return SphericalInput(
        rank=rank, dim_x=rank,
        divisors=recs, anticanonical_divisors=recs,
        fan=fan, valuation_cone=valuation_cone or Cone.full_space(rank),
        dh=DHDensity(rank, ()),
    )


def _primitive_vec(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


@st.composite
def complete_fans(draw, ranks=(2, 3)):
    """A complete simplicial fan of a rank in ``ranks``, from the fan of
    projective space by stellar subdivisions at random interior rays, and a
    full-dimensional valuation cone: the whole space (None), a half-space or
    a random simplicial cone.  Returns its rays, the cones whose interiors
    meet the valuation cone (the others are no cones of this fan) and the
    valuation cone."""
    rank = draw(st.sampled_from(ranks))
    rays = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays.append((-1,) * rank)
    cones = [tuple(r for r in rays if r != skip) for skip in rays]
    for _ in range(draw(st.integers(0, 4))):
        cone = cones.pop(draw(st.integers(0, len(cones) - 1)))
        coeffs = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
        ray = _primitive_vec([sum(c * r[j] for c, r in zip(coeffs, cone)) for j in range(rank)])
        rays.append(ray)
        cones += [cone[:j] + (ray,) + cone[j + 1:] for j in range(rank)]
    kind = draw(st.sampled_from(["all", "half-space", "simplicial"]))
    if kind == "all":
        return rays, cones, None
    if kind == "half-space":
        gens = [tuple(-int(i == 0) for i in range(rank))]
        gens += [tuple(s * int(i == j) for i in range(rank)) for j in range(1, rank) for s in (1, -1)]
    else:
        gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=rank, max_size=rank))
    vcone = Cone(rank, [vec(g) for g in gens])
    if vcone.span_equations:  # not full-dimensional: whole space instead
        return rays, cones, None
    cones = [c for c in cones if not Cone(rank, [vec(r) for r in c]).intersect(vcone).span_equations]
    return rays, cones, vcone
