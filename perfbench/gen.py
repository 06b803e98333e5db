"""Seeded input documents for the benchmark.

Everything here is plain Python over `fractions.Fraction`; kstab is never
imported, so the program under test receives only the JSON documents.  The
same seed gives byte-identical documents (see `dumps`).

Toric inputs are anticanonically polarized, so that beta slopes and Ding
verdicts apply: each facet {<u, m> + 1 = 0} of the section polytope, with
primitive inward normal u, becomes a divisor (rho = u, coeff = 1), and
every facet is irredundant, so the polarization is ample by construction.
Every generated polytope has the origin strictly inside and is not
centrally symmetric.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

# Cartan matrices of the types used here; entry (i, j) pairs alpha_j with
# the i-th simple coroot, as in kstab's root-lattice coordinates.
CARTAN = {
    ("A", 2): ((2, -1), (-1, 2)),
    ("B", 2): ((2, -1), (-2, 2)),
    ("G", 2): ((2, -3), (-1, 2)),
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("C", 3): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
}
POSITIVE_ROOTS = {("A", 2): 3, ("B", 2): 4, ("G", 2): 6,
                  ("A", 3): 6, ("B", 3): 9, ("C", 3): 9}


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def dumps(doc: dict) -> str:
    """Canonical text of a document: the bytes a seed must reproduce."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# root-system inputs


def wonderful_document(letter: str, rank: int, active="all",
                       squared: bool = True) -> dict:
    """Wonderful compactification of the adjoint group of the given type,
    anticanonically polarized, in root-lattice coordinates.  ``active``
    selects the density factors ("all" or a list of positive-root indices)."""
    cm = CARTAN[(letter, rank)]
    n = rank
    divisors = []
    for i in range(n):
        rho = ["0"] * n
        rho[i] = "-1"
        divisors.append({"name": f"X{i + 1}", "rho": rho, "coeff": "1",
                         "is_color": False})
    for i in range(n):
        divisors.append({"name": f"D{i + 1}", "rho": [str(c) for c in cm[i]],
                         "coeff": "2", "is_color": True})
    gens = [["-1" if j == i else "0" for j in range(n)] for i in range(n)]
    return {
        "schema_version": "1",
        "variety": {
            "rank": n,
            "dim_x": n + 2 * POSITIVE_ROOTS[(letter, rank)],
            "divisors": divisors,
            "anticanonical_divisors": [dict(d) for d in divisors],
            "fan": [{"generators": gens,
                     "divisors": [f"X{i + 1}" for i in range(n)]}],
            "valuation_cone": {"generators": gens},
            "projection": [],
        },
        "root_system": {
            "type": letter,
            "rank": rank,
            "active_roots": active,
            "chi": ["2"] * n,
            "embed": [[str(c) for c in row] for row in cm],
            "squared": squared,
        },
    }


def rank3_root_document(rng: random.Random, letter: str) -> dict:
    """Rank-3 root-system input with a seeded subset of 3 to 6 active
    roots, unsquared."""
    k = rng.randint(3, 6)
    active = sorted(rng.sample(range(POSITIVE_ROOTS[(letter, 3)]), k))
    return wonderful_document(letter, 3, active=active, squared=False)


# ---------------------------------------------------------------------------
# polytopes


def _primitive(v) -> tuple[int, ...]:
    g = 0
    for c in v:
        g = math.gcd(g, int(c))
    return tuple(int(c) // g for c in v)


def _hull_2d(points) -> list[tuple[int, int]]:
    """Counter-clockwise convex hull without collinear points."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _centrally_symmetric(vertices) -> bool:
    vs = set(vertices)
    return all(tuple(-c for c in v) in vs for v in vs)


def fano_polygon(rng: random.Random, n_vertices: int, radius: int = 3):
    """Vertices, counter-clockwise, of a random lattice polygon with exactly
    ``n_vertices`` primitive vertices, the origin strictly inside, not
    centrally symmetric."""
    while True:
        pts = [(rng.randint(-radius, radius), rng.randint(-radius, radius))
               for _ in range(n_vertices + 3)]
        hull = _hull_2d(pts)
        # origin strictly left of every counter-clockwise edge
        if (len(hull) == n_vertices and not _centrally_symmetric(hull)
                and all(a[0] * b[1] - a[1] * b[0] > 0
                        for a, b in zip(hull, hull[1:] + hull[:1]))
                and all(_primitive(v) == v for v in hull)):
            return hull


def _solve3(rows, rhs):
    """Cramer's rule over Fractions; None when singular."""
    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(rows)
    if d == 0:
        return None
    out = []
    for j in range(3):
        m = [list(r) for r in rows]
        for i in range(3):
            m[i][j] = rhs[i]
        out.append(Fraction(det(m), d))
    return tuple(out)


def _vertices_3d(facets):
    """Vertices of {<u, m> + c >= 0}, each with the facets through it."""
    verts: dict[tuple, set[int]] = {}
    for idx in itertools.combinations(range(len(facets)), 3):
        x = _solve3([facets[i][0] for i in idx], [-facets[i][1] for i in idx])
        if x is None:
            continue
        if all(sum(a * b for a, b in zip(u, x)) + c >= 0 for u, c in facets):
            verts.setdefault(x, set()).update(idx)
    return verts


_CUT_NORMALS = [n for n in itertools.product((-2, -1, 0, 1, 2), repeat=3)
                if sum(1 for c in n if c) >= 2 and _primitive(n) == n]


def simple_3_polytope(rng: random.Random, n_cuts: int):
    """Primitive facet normals u of a simple 3-polytope {<u, m> + 1 >= 0}:
    the cube [-1, 1]^3 with ``n_cuts`` seeded cuts, every facet irredundant,
    not centrally symmetric; returned with its vertices and the facets
    through each."""
    cube = [tuple(s if j == i else 0 for j in range(3))
            for i in range(3) for s in (1, -1)]
    while True:
        normals = cube + rng.sample(_CUT_NORMALS, n_cuts)
        verts = _vertices_3d([(u, 1) for u in normals])
        simple = all(len(fs) == 3 for fs in verts.values())
        used = set().union(*verts.values())
        if (simple and len(used) == len(normals)
                and not _centrally_symmetric(verts)):
            return normals, verts


def toric_document(normals, cones, dim: int) -> dict:
    """Anticanonically polarized toric input: one divisor per primitive ray
    u with coefficient 1, and maximal cones given by ray indices."""
    names = [f"F{i}" for i in range(len(normals))]
    divisors = [{"name": nm, "rho": [str(x) for x in u], "coeff": "1",
                 "is_color": False} for nm, u in zip(names, normals)]
    fan = [{"generators": [[str(x) for x in normals[i]] for i in cone],
            "divisors": [names[i] for i in cone]} for cone in cones]
    return {
        "schema_version": "1",
        "variety": {
            "rank": dim,
            "dim_x": dim,
            "divisors": divisors,
            "anticanonical_divisors": [dict(d) for d in divisors],
            "fan": fan,
            "valuation_cone": "all",
            "projection": [[("1" if i == j else "0") for j in range(dim)]
                           for i in range(dim)],
        },
    }


# classical toric del Pezzo surfaces, rays counter-clockwise
SURFACES = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "dP7": ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)),
}


def toric_surface_document(rays) -> tuple[dict, list]:
    """Toric surface with the given counter-clockwise primitive rays;
    returned with the vertices of its section polytope."""
    k = len(rays)
    cones = [((i - 1) % k, i) for i in range(k)]
    verts = []
    for i, j in cones:  # <u_i, m> = <u_j, m> = -1
        (a, b), (c, d) = rays[i], rays[j]
        det = a * d - b * c
        verts.append((Fraction(-d + b, det), Fraction(-a + c, det)))
    return toric_document(rays, cones, 2), verts


def toric_polygon_document(rng: random.Random, n_vertices: int) -> tuple[dict, list]:
    """Toric surface whose fan rays are the vertices of a seeded lattice
    polygon; returned with the vertices of its section polytope."""
    return toric_surface_document(fano_polygon(rng, n_vertices))


def toric_3_polytope_document(rng: random.Random, n_cuts: int) -> tuple[dict, list]:
    """Toric threefold whose section polytope is a seeded simple
    3-polytope; returned with that polytope's vertices."""
    normals, verts = simple_3_polytope(rng, n_cuts)
    cones = sorted(tuple(sorted(fs)) for fs in verts.values())
    return toric_document(normals, cones, 3), sorted(verts)


# ---------------------------------------------------------------------------
# weights


def affine_power_weight(rng: random.Random, vertices) -> dict:
    """(<xi, x> + a)^e with a seeded non-integer exponent 0.5 <= |e| <= 1.5,
    and a base between 3/2 and about 5/2 on the polytope with the given
    vertices (projection is the identity).  The narrow family keeps the
    cubature effort of one seed close to another's."""
    dim = len(vertices[0])
    xi = [Fraction(rng.randint(-1, 1), 8) for _ in range(dim)]
    low = min(sum(a * b for a, b in zip(xi, v)) for v in vertices)
    a = Fraction(3, 2) - low
    exponent = rng.choice((-1, 1)) * round(rng.uniform(0.5, 1.5), 3)
    if exponent == int(exponent):
        exponent += 0.125
    return {"affine_power": {"xi": [frac_str(c) for c in xi], "a": frac_str(a),
                             "exponent": exponent}}
