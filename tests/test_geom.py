"""Exact geometry kernel: vertex enumeration, cone duality, triangulation."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_form, invert_matrix
from kstab.geom import (
    Cone,
    DegenerateInputError,
    EmptyPolytopeError,
    Simplex,
    UnboundedPolytopeError,
    VPolytope,
    _canonical_lineality,
    double_description,
    dot,
    is_zero_vec,
    kernel_basis,
    matrix_rank,
    primitive,
    rowspace_solution,
    solve_linear,
    triangulate,
    unit_vec,
    vec,
    vscale,
    vsub,
)


def _volume(s: Simplex) -> F:
    return s.volume_factor / factorial(s.dim)


# ---------------------------------------------------------------------------
# vertex enumeration


def test_vertex_enum_interval():
    p = VPolytope.from_inequalities(1, [affine_form([1], 1), affine_form([-1], 1)])
    assert p.vertices == (vec([-1]), vec([1]))


def test_vertex_enum_pgl2_polytope():
    p = VPolytope.from_inequalities(1, [affine_form([-1], 1), affine_form([2], 2)])
    assert p.vertices == (vec([-1]), vec([1]))


def test_vertex_enum_square():
    p = VPolytope.from_inequalities(2, [affine_form([1, 0], 1), affine_form([-1, 0], 1),
                                        affine_form([0, 1], 1), affine_form([0, -1], 1)])
    assert p.vertices == (
        vec([-1, -1]), vec([-1, 1]), vec([1, -1]), vec([1, 1]))


def test_vertex_enum_empty():
    with pytest.raises(EmptyPolytopeError):
        VPolytope.from_inequalities(1, [affine_form([1], -1), affine_form([-1], -1)])


def test_vertex_enum_unbounded():
    with pytest.raises(UnboundedPolytopeError):
        VPolytope.from_inequalities(1, [affine_form([1], 0)])


def test_vertex_enum_single_point():
    p = VPolytope.from_inequalities(2, [affine_form([1, 0], 0), affine_form([-1, 0], 0),
                                        affine_form([0, 1], 0), affine_form([0, -1], 0)])
    assert p.vertices == (vec([0, 0]),)


# ---------------------------------------------------------------------------
# triangulation


def test_triangulate_unit_square():
    sq = VPolytope(2, [vec([0, 0]), vec([1, 0]), vec([0, 1]), vec([1, 1])])
    tris = triangulate(sq)
    assert len(tris) == 2
    assert all(_volume(t) == F(1, 2) for t in tris)


def test_triangulate_interval():
    tris = triangulate(VPolytope(1, [vec([-1]), vec([1])]))
    assert len(tris) == 1
    assert _volume(tris[0]) == 2


def test_triangulate_rejects_degenerate():
    seg = VPolytope(2, [vec([0, 0]), vec([1, 1])])
    with pytest.raises(DegenerateInputError):
        triangulate(seg)


def test_triangulate_3d_volume_against_qhull():
    # independent volume oracle: scipy's qhull
    import random

    import numpy as np
    from scipy.spatial import ConvexHull

    rng = random.Random(11)
    for _ in range(10):
        pts = [vec([rng.randint(-4, 4) for _ in range(3)]) for _ in range(8)]
        v = VPolytope(3, pts)
        if v.affine_dim < 3:
            continue
        total = sum(_volume(t) for t in triangulate(v))
        hull = ConvexHull(np.array([[float(c) for c in p] for p in v.vertices]))
        assert abs(float(total) - hull.volume) < 1e-9


# ---------------------------------------------------------------------------
# cones


def test_extremal_rays_drops_interior_generator():
    c = Cone(2, [vec([1, 0]), vec([1, 1]), vec([0, 1])])
    assert list(c.rays) == [vec([0, 1]), vec([1, 0])]


def test_extremal_rays_primitive():
    assert list(Cone(1, [vec([2])]).rays) == [vec([1])]


def test_extremal_rays_line_is_pure_lineality():
    c = Cone(2, [vec([1, 0]), vec([-1, 0])])
    assert list(c.rays) == []
    assert c.lineality == (vec([1, 0]),)


def test_extremal_rays_irredundant():
    import random
    rng = random.Random(5)
    for _ in range(15):
        gens = [vec([rng.randint(-3, 3) for _ in range(3)]) for _ in range(5)]
        c = Cone(3, gens)
        rays = c.rays
        for i in range(len(rays)):
            sub = Cone(3, [r for j, r in enumerate(rays) if j != i] +
                       [l for l in c.lineality] +
                       [tuple(-x for x in l) for l in c.lineality])
            assert not sub.contains(rays[i])


def _dual(c: Cone) -> Cone:
    """The dual cone {m : <m, g> >= 0 for every generator g}, generated by
    the facet normals and both signs of the span equations."""
    return Cone(c.dim, [*c.facet_normals, *c.span_equations,
                        *(vscale(l, -1) for l in c.span_equations)])


def test_cone_dual_negative_ray():
    assert Cone(1, [vec([-1])]).facet_normals == (vec([-1]),)
    assert Cone(1, [vec([1])]).facet_normals == (vec([1]),)


def test_cone_dual_full_space_is_zero():
    c = Cone.full_space(2)
    assert c.facet_normals == () and c.span_equations == ()
    d = _dual(c)
    assert d.contains(vec([0, 0])) and not d.contains(vec([1, 0]))


def test_cone_dual_orthant_self_dual():
    c = Cone(2, [vec([1, 0]), vec([0, 1])])
    assert c.facet_normals == (vec([0, 1]), vec([1, 0])) and c.span_equations == ()


def _same_cone(a: Cone, b: Cone) -> bool:
    return all(a.contains(g) for g in b.generators) and all(b.contains(g) for g in a.generators)


def test_cone_dual_involution_random():
    import random
    rng = random.Random(9)
    for _ in range(20):
        gens = [vec([rng.randint(-3, 3) for _ in range(3)]) for _ in range(4)]
        c = Cone(3, gens)
        assert _same_cone(_dual(_dual(c)), c)


def test_intersect_orthant_halfplane():
    orth = Cone(2, [vec([1, 0]), vec([0, 1])])
    half = Cone(2, [vec([-1, 0]), vec([0, 1]), vec([0, -1])])
    assert orth.intersect(half).rays == (vec([0, 1]),)


def test_intersect_idempotent():
    c = Cone(2, [vec([2, 1]), vec([1, 3])])
    assert _same_cone(c.intersect(c), c)


def test_intersect_membership_sampling_oracle():
    import random
    rng = random.Random(13)
    for _ in range(5):
        a = Cone(3, [vec([rng.randint(-2, 2) for _ in range(3)]) for _ in range(3)])
        b = Cone(3, [vec([rng.randint(-2, 2) for _ in range(3)]) for _ in range(3)])
        meet = a.intersect(b)
        for _ in range(200):
            x = vec([rng.randint(-5, 5) for _ in range(3)])
            assert meet.contains(x) == (a.contains(x) and b.contains(x))


def test_relative_interior():
    ray = Cone(1, [vec([1])])
    assert ray.in_relative_interior(vec([F(1, 2)]))
    assert not ray.in_relative_interior(vec([0]))
    assert Cone(1, []).in_relative_interior(vec([0]))
    assert not Cone(1, []).in_relative_interior(vec([1]))


# ---------------------------------------------------------------------------
# round trips and exactness (property-based)


coord = st.integers(min_value=-5, max_value=5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=7))
def test_hrep_vrep_round_trip(points):
    v = VPolytope(2, [vec(p) for p in points])
    if v.affine_dim < 2:
        return
    forms, eqs = v.hrep
    assert eqs == ()  # full-dimensional
    again = VPolytope.from_inequalities(2, forms)
    assert again.vertices == v.vertices


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=7))
def test_triangulation_volume_identity(points):
    v = VPolytope(2, [vec(p) for p in points])
    if v.affine_dim < 2:
        return
    tris = triangulate(v)
    # shoelace on the boundary as an independent exact area oracle
    forms, _ = v.hrep
    area = sum(_volume(t) for t in tris)
    assert area > 0
    # refine: every simplex vertex belongs to the polytope
    for t in tris:
        for x in t.vertices:
            assert v.contains(x)
    # compare against the hull area computed by the cross-product fan oracle
    verts = list(v.vertices)
    import math
    anchor = verts[0]
    fan = sorted(verts[1:], key=lambda p: math.atan2(
        float(p[1] - anchor[1]), float(p[0] - anchor[0])))
    oracle = F(0)
    for a, b in zip(fan, fan[1:]):
        oracle += ((a[0] - anchor[0]) * (b[1] - anchor[1])
                   - (a[1] - anchor[1]) * (b[0] - anchor[0]))
    assert area == abs(oracle) / 2


def test_geom_is_exact():
    p = VPolytope.from_inequalities(1, [affine_form([3], 1), affine_form([-7], 2)])
    for v in p.vertices:
        assert all(isinstance(c, F) for c in v)
    assert p.vertices == ((F(-1, 3),), (F(2, 7),))


# ---------------------------------------------------------------------------
# exact elimination


@st.composite
def low_rank_matrices(draw):
    """A rational m x n matrix (1 <= m, n <= 4) of rank at most r, made as
    a product of integer m x r and r x n factors with its rows scaled by
    nonzero rationals; returned with its integer product, whose rank
    floating point finds reliably at these sizes."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r = draw(st.integers(0, min(m, n)))
    small = st.integers(-3, 3)
    b = draw(st.lists(st.lists(small, min_size=r, max_size=r), min_size=m, max_size=m))
    c = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=r, max_size=r))
    ints = [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)] for i in range(m)]
    scales = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5)
                           .filter(lambda q: q != 0), min_size=m, max_size=m))
    return [tuple(q * x for x in row) for q, row in zip(scales, ints)], ints


def _apply(rows, x):
    return tuple(sum((a * b for a, b in zip(row, x)), F(0)) for row in rows)


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                                     min_size=4, max_size=4))
def test_exact_elimination_properties(matrix, x0):
    import numpy as np

    a, ints = matrix
    m, n = len(a), len(a[0])
    rank = int(np.linalg.matrix_rank(np.array(ints, dtype=float)))
    assert matrix_rank(a) == rank
    # kernel: n - rank independent vectors that a maps to zero
    ker = kernel_basis(a, n)
    assert len(ker) == n - rank
    assert all(_apply(a, k) == (0,) * m for k in ker)
    assert not ker or matrix_rank(ker) == len(ker)
    # a consistent system is solved; None is certified by a left-kernel
    # vector y with y . a = 0 and y . rhs != 0
    rhs = _apply(a, x0[:n])
    sol = solve_linear(a, rhs)
    assert sol is not None and _apply(a, sol) == rhs
    rhs = tuple(F(i + 1, 3) for i in range(m))
    sol = solve_linear(a, rhs)
    if sol is not None:
        assert _apply(a, sol) == rhs
    else:
        columns = [tuple(row[j] for row in a) for j in range(n)]
        left = kernel_basis(columns, m)
        assert any(sum((yi * bi for yi, bi in zip(y, rhs)), F(0)) != 0 for y in left)
        assert all(_apply(columns, y) == (0,) * n for y in left)
    if m == n:
        if rank < n:
            with pytest.raises(DegenerateInputError):
                invert_matrix(a)
        else:
            # column j of inv . a is inv applied to column j of a
            inv = invert_matrix(a)
            assert [_apply(inv, col) for col in zip(*a)] == \
                [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(low_rank_matrices(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                                     min_size=4, max_size=4))
def test_rowspace_solution_is_the_solution_orthogonal_to_the_kernel(matrix, x0):
    a, _ints = matrix
    m, n = len(a), len(a[0])
    ker = kernel_basis(a, n)
    rhs = _apply(a, x0[:n])
    sol = rowspace_solution(a, rhs)
    assert sol is not None and _apply(a, sol) == rhs
    assert all(dot(sol, k) == 0 for k in ker)
    rhs = tuple(F(i + 1, 3) for i in range(m))
    assert (rowspace_solution(a, rhs) is None) == (solve_linear(a, rhs) is None)


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _full_row_rank(draw, k, n):
    return draw(st.lists(st.tuples(*[_rational] * n), min_size=k, max_size=k)
                .filter(lambda rows: matrix_rank(rows) == k))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_lineality_depends_on_the_span_alone(data):
    # B of full row rank and T invertible: T.B spans the same space
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    b = data.draw(_full_row_rank(k, n))
    t = data.draw(_full_row_rank(k, k))
    tb = [tuple(sum((c * row[j] for c, row in zip(trow, b)), F(0)) for j in range(n))
          for trow in t]
    basis = _canonical_lineality(b)
    assert basis == _canonical_lineality(tb)
    assert len(basis) == k and matrix_rank(list(b) + list(basis)) == k
    assert all(primitive(v) == v for v in basis)


def test_canonical_lineality_of_a_multiple():
    assert _canonical_lineality([vec([2, 0])]) == _canonical_lineality([vec([1, 0])]) \
        == ((F(1), F(0)),)


def test_simplex_volume_factor():
    s = Simplex((vec([0, 0]), vec([2, 0]), vec([0, 2])))
    assert s.volume_factor == 4
    assert _volume(s) == 2


def test_primitive_vector():
    assert primitive(vec([F(2, 3), F(4, 3)])) == (F(1), F(2))
    assert primitive(vec([-2, -4])) == (F(-1), F(-2))


# ---------------------------------------------------------------------------
# double description against a Fraction reference


def _reference_double_description(halfspaces, dim):
    """The double description in Fraction arithmetic, each ray's zero set
    recomputed against every processed halfspace."""
    lineality = [unit_vec(i, dim) for i in range(dim)]
    rays, processed = [], []

    def zeroset(r):
        return frozenset(i for i, h in enumerate(processed) if dot(h, r) == 0)

    for h in halfspaces:
        if is_zero_vec(h):
            continue
        pivot_idx = next((i for i, l in enumerate(lineality) if dot(h, l) != 0), None)
        if pivot_idx is not None:
            piv = lineality[pivot_idx]
            l0 = vscale(piv, F(1) / dot(h, piv))
            lineality = [vsub(l, vscale(l0, dot(h, l)))
                         for i, l in enumerate(lineality) if i != pivot_idx]
            rays = [vsub(r, vscale(l0, dot(h, r))) for r in rays] + [l0]
            rays = [primitive(r) for r in rays if not is_zero_vec(r)]
        else:
            vals = [(r, dot(h, r)) for r in rays]
            plus = [(r, s) for r, s in vals if s > 0]
            minus = [(r, s) for r, s in vals if s < 0]
            if minus:
                zsets = {r: zeroset(r) for r in rays}
                new = []
                for rp, sp in plus:
                    for rm, sm in minus:
                        common = zsets[rp] & zsets[rm]
                        if all(not common <= zsets[o] for o in rays if o is not rp and o is not rm):
                            comb = vsub(vscale(rm, sp), vscale(rp, sm))
                            if not is_zero_vec(comb):
                                new.append(primitive(comb))
                merged = [primitive(r) for r, _ in plus] + [r for r, s in vals if s == 0]
                seen = set(merged)
                for r in new:
                    if r not in seen:
                        seen.add(r)
                        merged.append(r)
                rays = merged
        processed.append(h)
    return tuple(sorted(set(rays))), _canonical_lineality(lineality)


_entries = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 2), F(5, 3)])


@st.composite
def _halfspace_lists(draw):
    dim = draw(st.integers(1, 4))
    base = draw(st.lists(st.tuples(*[_entries] * dim), min_size=1, max_size=7))
    extra = []
    for h in base:  # zero, duplicate (rescaled) and opposite halfspaces
        kind = draw(st.sampled_from(["none", "none", "duplicate", "opposite"]))
        if kind == "duplicate":
            extra.append(tuple(F(3, 2) * x for x in h))
        elif kind == "opposite":
            extra.append(tuple(-x for x in h))
    if draw(st.booleans()):
        extra.append((F(0),) * dim)
    return dim, draw(st.permutations(base + extra))


@settings(max_examples=300, deadline=None)
@given(_halfspace_lists())
def test_double_description_matches_fraction_reference(case):
    dim, halfspaces = case
    rays, lineality = double_description(halfspaces, dim)
    assert (rays, lineality) == _reference_double_description(halfspaces, dim)
    assert all(type(x) is F for r in rays + lineality for x in r)
