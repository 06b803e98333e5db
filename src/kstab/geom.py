"""Exact rational convex geometry.

Vertex/facet conversion by the double description method, polyhedral cone
duality and triangulation of full-dimensional polytopes.  One elimination,
`_rref`, answers every linear-algebra question (solutions, kernels, ranks
and the canonical lineality basis), and each hull or intersection is one
double description.  Coordinates are `fractions.Fraction` throughout and
nothing in this module rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


class GeometryError(Exception):
    """Base class for geometric failures."""


class EmptyPolytopeError(GeometryError):
    pass


class UnboundedPolytopeError(GeometryError):
    pass


class DegenerateInputError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# vector helpers


def vec(coords: Iterable) -> Vec:
    """coords as a `Vec`: a tuple of Fractions is returned as it is."""
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        return coords
    return tuple(Fraction(c) for c in coords)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(i: int, n: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(a: Vec, b: Vec) -> Fraction:
    s = Fraction(0)
    for x, y in zip(a, b, strict=True):
        s += x * y
    return s


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(a: Vec, c) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def primitive(v: Vec) -> Vec:
    """Scale a nonzero rational vector by a positive factor to a primitive
    integer vector (coprime integer entries, same direction)."""
    if is_zero_vec(v):
        raise ValueError("zero vector has no primitive representative")
    return tuple(map(Fraction, _integral(v)))


def _integral(v) -> tuple[int, ...]:
    """`primitive` of a nonzero vector of rationals or integers, as ints."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(k // g for k in ints)


# ---------------------------------------------------------------------------
# exact linear algebra


def _rref(m: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce the rows of m in place to reduced row echelon form in their
    first ``ncols`` columns; row i then has its pivot, 1, in the i-th
    returned column, and the rows below the pivots are zero there."""
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pivval = m[row][col]
        m[row] = [x / pivval for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
    return pivots


def solve_linear(rows: Sequence[Vec], rhs: Sequence[Fraction]) -> Vec | None:
    """One solution of ``rows . x = rhs`` or None if inconsistent."""
    m = [list(r) + [Fraction(b)] for r, b in zip(rows, rhs, strict=True)]
    n = len(rows[0]) if rows else 0
    pivots = _rref(m, n)
    if any(m[i][n] != 0 for i in range(len(pivots), len(m))):
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = m[r][n]
    return tuple(x)


def kernel_basis(rows: Sequence[Vec], n: int) -> list[Vec]:
    """Rational basis of {x : rows . x = 0}."""
    m = [list(r) for r in rows]
    pivots = _rref(m, n)
    basis = []
    for fcol in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            v[pcol] = -m[r][fcol]
        basis.append(tuple(v))
    return basis


def rowspace_solution(rows: Sequence[Vec], rhs: Sequence[Fraction]) -> Vec | None:
    """The unique solution of ``rows . x = rhs`` lying in the row space of
    ``rows``, that is orthogonal to their kernel, or None if inconsistent."""
    ker = kernel_basis(rows, len(rows[0]))
    return solve_linear(list(rows) + ker, list(rhs) + [Fraction(0)] * len(ker))


def matrix_rank(rows: Sequence[Vec]) -> int:
    return len(_rref([list(r) for r in rows], len(rows[0]))) if rows else 0


# ---------------------------------------------------------------------------
# double description


def _canonical_lineality(vectors: Sequence[Vec]) -> tuple[Vec, ...]:
    """A basis of the span of ``vectors`` that depends on the span alone:
    its reduced row echelon rows, each scaled to primitive integers, sorted."""
    if not vectors:
        return ()
    m = [list(v) for v in vectors]
    rank = len(_rref(m, len(m[0])))
    return tuple(sorted(primitive(r) for r in m[:rank]))


def double_description(halfspaces: Sequence[Vec], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Minimal generators of the cone {y : <h, y> >= 0 for all h}.

    Returns (rays, lineality): primitive extreme rays modulo the lineality
    space, and the canonical basis of the lineality space, which depends on
    the space alone (`_canonical_lineality`).  Both are sorted
    lexicographically.  Rays are kept as primitive integer tuples and the
    halfspaces scaled to integers (Fukuda and Prodon, "Double description
    method revisited", 1996), each ray with the bit set of the processed
    halfspaces it lies on; the lineality basis stays rational.
    """
    lineality: list[Vec] = [unit_vec(i, dim) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    zsets: list[int] = []
    bit = 1  # the bit of the halfspace being processed
    for h in halfspaces:
        if is_zero_vec(h):
            continue
        h = _integral(h)
        pivot_idx = next((i for i, l in enumerate(lineality) if dot(h, l) != 0), None)
        if pivot_idx is not None:
            piv = lineality[pivot_idx]
            l0 = vscale(piv, Fraction(1) / dot(h, piv))  # <h, l0> = 1
            lineality = [vsub(l, vscale(l0, dot(h, l)))
                         for i, l in enumerate(lineality) if i != pivot_idx]
            # each ray moves onto h = 0 and keeps its zero set; l0 lies on
            # every processed halfspace but h.  No ray lies in the lineality
            # space, so none becomes zero.
            rays = [_integral(vsub(r, vscale(l0, sum(map(mul, h, r))))) for r in rays]
            rays.append(_integral(l0))
            zsets = [z | bit for z in zsets] + [bit - 1]
        else:
            vals = [sum(map(mul, h, r)) for r in rays]
            minus = [i for i, s in enumerate(vals) if s < 0]
            if minus:
                plus = [i for i, s in enumerate(vals) if s > 0]
                kept = plus + [i for i, s in enumerate(vals) if s == 0]
                merged = [rays[i] for i in kept]
                merged_z = [zsets[i] | (bit if vals[i] == 0 else 0) for i in kept]
                seen = set(merged)
                for ip in plus:
                    for im in minus:
                        common = zsets[ip] & zsets[im]
                        if any(z & common == common for i, z in enumerate(zsets)
                               if i != ip and i != im):
                            continue  # not adjacent
                        # a positive combination: nonzero, as the cone
                        # modulo its lineality space is pointed
                        r = _integral([vals[ip] * a - vals[im] * b
                                       for a, b in zip(rays[im], rays[ip])])
                        if r not in seen:
                            seen.add(r)
                            merged.append(r)
                            merged_z.append(common | bit)
                rays, zsets = merged, merged_z
            else:
                zsets = [z | bit if s == 0 else z for z, s in zip(zsets, vals)]
        bit <<= 1

    out = tuple(tuple(map(Fraction, r)) for r in sorted(set(rays)))
    return out, _canonical_lineality(lineality)


# ---------------------------------------------------------------------------
# affine forms and polytopes


@dataclass(frozen=True)
class AffineForm:
    """x |-> <normal, x> + offset, used as the inequality form >= 0."""

    normal: Vec
    offset: Fraction

    def __call__(self, x: Vec) -> Fraction:
        return dot(self.normal, x) + self.offset


def _raw_facets(points: Sequence[Vec], dim: int) -> tuple[list[AffineForm], list[AffineForm]]:
    """(inequality forms, equality forms) describing conv(points) exactly,
    with irredundant inequalities."""
    gens = [(Fraction(1),) + p for p in points]
    frays, flin = double_description(gens, dim + 1)
    forms = [AffineForm(r[1:], r[0]) for r in frays if not is_zero_vec(r[1:])]
    eqs = [AffineForm(l[1:], l[0]) for l in flin if not is_zero_vec(l[1:])]
    return forms, eqs


class VPolytope:
    """The convex hull of finitely many points, or by `from_inequalities`
    an intersection of halfspaces: its extreme points, and on first use
    its facets (`hrep`)."""

    def __init__(self, dim: int, points: Sequence[Vec]):
        self.dim = dim
        pts = sorted({vec(p) for p in points})
        if not pts:
            raise DegenerateInputError("no points")
        # a point is a vertex where its tight facets and the equations have
        # rank dim
        forms, eqs = _raw_facets(pts, dim)
        normals = [e.normal for e in eqs]
        self.vertices = tuple(
            p for p in pts
            if matrix_rank(normals + [f.normal for f in forms if f(p) == 0]) == dim)

    @classmethod
    def from_inequalities(cls, dim: int, forms: Sequence[AffineForm]) -> "VPolytope":
        """The polytope {x : form(x) >= 0 for every form}, by one double
        description; `EmptyPolytopeError` when it is empty and
        `UnboundedPolytopeError` when it is unbounded."""
        halfspaces = [(Fraction(1),) + zero_vec(dim)]
        halfspaces += [(f.offset,) + f.normal for f in forms]
        rays, lineality = double_description(halfspaces, dim + 1)
        verts = [tuple(x / r[0] for x in r[1:]) for r in rays if r[0] > 0]
        if not verts:
            raise EmptyPolytopeError("no feasible point")
        if lineality or any(r[0] == 0 for r in rays):
            raise UnboundedPolytopeError("nontrivial recession cone")
        return cls._trusted(dim, verts)

    @classmethod
    def _trusted(cls, dim: int, vertices: Sequence[Vec]) -> "VPolytope":
        obj = cls.__new__(cls)
        obj.dim = dim
        obj.vertices = tuple(sorted(vertices))
        return obj

    @cached_property
    def hrep(self) -> tuple[tuple[AffineForm, ...], tuple[AffineForm, ...]]:
        forms, eqs = _raw_facets(self.vertices, self.dim)
        return tuple(forms), tuple(eqs)

    def contains(self, x: Vec) -> bool:
        forms, eqs = self.hrep
        return all(f(x) >= 0 for f in forms) and all(e(x) == 0 for e in eqs)

    @cached_property
    def affine_dim(self) -> int:
        if len(self.vertices) <= 1:
            return 0
        dirs = [vsub(v, self.vertices[0]) for v in self.vertices[1:]]
        return matrix_rank(dirs)

    @cached_property
    def triangulation(self) -> tuple[Simplex, ...]:
        """`triangulate`, built on first use and kept."""
        return tuple(triangulate(self))

    @cached_property
    def memo(self) -> dict:
        """Integrals over this polytope that `quad` keeps once computed."""
        return {}

    def __repr__(self):
        return f"VPolytope(dim={self.dim}, vertices={len(self.vertices)})"


# ---------------------------------------------------------------------------
# simplices and triangulation


@dataclass(frozen=True)
class Simplex:
    """d+1 affinely independent vertices in ambient dimension d."""

    vertices: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @cached_property
    def edge_columns(self) -> tuple[Vec, ...]:
        v0 = self.vertices[0]
        return tuple(vsub(v, v0) for v in self.vertices[1:])

    @cached_property
    def volume_factor(self) -> Fraction:
        """Absolute determinant of the edge matrix."""
        cols = [list(c) for c in self.edge_columns]
        n = len(cols)
        mat = [[cols[j][i] for j in range(n)] for i in range(n)]
        det = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if mat[r][c] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                mat[c], mat[piv] = mat[piv], mat[c]
                det = -det
            det *= mat[c][c]
            inv = Fraction(1) / mat[c][c]
            for r in range(c + 1, n):
                f = mat[r][c] * inv
                if f:
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[c])]
        return abs(det)


def _triangulate_points(vertices: list[Vec], dim: int) -> list[tuple[Vec, ...]]:
    """Triangulation (as vertex tuples) of a full-dimensional polytope by
    pulling from its lexicographically smallest vertex."""
    if len(vertices) == dim + 1:
        return [tuple(vertices)]
    apex = vertices[0]
    forms, _eqs = _raw_facets(vertices, dim)
    out: list[tuple[Vec, ...]] = []
    for f in forms:
        if f(apex) == 0:
            continue
        face_verts = [v for v in vertices if f(v) == 0]
        # project the facet onto coordinates where it is full-dimensional
        drop = next(i for i, c in enumerate(f.normal) if c != 0)
        proj = [tuple(x for i, x in enumerate(v) if i != drop) for v in face_verts]
        back = {p: v for p, v in zip(proj, face_verts)}
        for sub in _triangulate_points(sorted(back.keys()), dim - 1):
            out.append((apex,) + tuple(back[p] for p in sub))
    return out


def triangulate(v: VPolytope) -> list[Simplex]:
    """Simplices with disjoint interiors covering a full-dimensional polytope."""
    if v.affine_dim < v.dim:
        raise DegenerateInputError(
            f"polytope has affine dimension {v.affine_dim} < {v.dim}")
    return [Simplex(t) for t in _triangulate_points(list(v.vertices), v.dim)]


# ---------------------------------------------------------------------------
# polyhedral cones


class Cone:
    """Finitely generated convex cone, canonicalized through duality."""

    def __init__(self, dim: int, generators: Sequence[Vec] = ()):
        self.dim = dim
        gens = [vec(g) for g in generators]
        self.generators = tuple(g for g in gens if not is_zero_vec(g))

    @classmethod
    def full_space(cls, dim: int) -> "Cone":
        gens = [unit_vec(i, dim) for i in range(dim)]
        gens += [vneg(g) for g in gens]
        return cls(dim, gens)

    @cached_property
    def _dual_pair(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """(rays, lineality) of the dual cone {m : <m, g> >= 0}."""
        return double_description(self.generators, self.dim)

    @property
    def facet_normals(self) -> tuple[Vec, ...]:
        """Inequalities <r, x> >= 0 cutting the cone inside its span."""
        return self._dual_pair[0]

    @property
    def span_equations(self) -> tuple[Vec, ...]:
        """Equalities <l, x> = 0 cutting the linear span of the cone."""
        return self._dual_pair[1]

    @cached_property
    def _canonical(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        half = list(self.facet_normals)
        for l in self.span_equations:
            half.append(l)
            half.append(vneg(l))
        return double_description(half, self.dim)

    @property
    def rays(self) -> tuple[Vec, ...]:
        """Primitive extreme rays modulo the lineality space."""
        return self._canonical[0]

    @property
    def lineality(self) -> tuple[Vec, ...]:
        return self._canonical[1]

    @property
    def lineality_dim(self) -> int:
        return len(self.lineality)

    @property
    def is_strictly_convex(self) -> bool:
        return self.lineality_dim == 0

    @property
    def is_full_space(self) -> bool:
        return not self.facet_normals and not self.span_equations

    def contains(self, x: Vec) -> bool:
        return (all(dot(r, x) >= 0 for r in self.facet_normals)
                and all(dot(l, x) == 0 for l in self.span_equations))

    def in_relative_interior(self, x: Vec) -> bool:
        return (all(dot(r, x) > 0 for r in self.facet_normals)
                and all(dot(l, x) == 0 for l in self.span_equations))

    def intersect(self, other: "Cone") -> "Cone":
        """The cone of points in both, by one double description per call."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        half: list[Vec] = []
        for c in (self, other):
            half.extend(c.facet_normals)
            for l in c.span_equations:
                half.append(l)
                half.append(vneg(l))
        rays, lin = double_description(half, self.dim)
        gens = list(rays)
        for l in lin:
            gens.append(l)
            gens.append(vneg(l))
        return Cone(self.dim, gens)

    def relative_interior_point(self) -> Vec:
        """Some point in the relative interior (0 for the zero cone)."""
        x = zero_vec(self.dim)
        for r in self.rays:
            x = vadd(x, r)
        return x

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={len(self.rays)}, lin={self.lineality_dim})"
