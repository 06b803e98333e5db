"""Shared builders for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from kstab.fixtures import builtin_spherical_input
from kstab.geom import Cone, vec
from kstab.quad import AffineForm, DHDensity, DHFactor
from kstab.spherical import ColoredConeData, DivisorRecord, SphericalInput


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
    verts = base.section_polytope_v.vertices
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
