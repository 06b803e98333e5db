"""Exact geometry kernel: vertex enumeration, duality, cones, triangulation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.geom import (
    Cone,
    DegenerateInputError,
    EmptyPolytopeError,
    HPolytope,
    Simplex,
    UnboundedPolytopeError,
    VPolytope,
    affine_form,
    dual_polytope,
    integer_kernel,
    lattice_chart,
    lattice_span_basis,
    primitive,
    triangulate,
    vec,
    vertex_enum,
)


# ---------------------------------------------------------------------------
# vertex enumeration


def test_vertex_enum_interval():
    p = HPolytope(1, [affine_form([1], 1), affine_form([-1], 1)])
    assert vertex_enum(p).vertices == (vec([-1]), vec([1]))


def test_vertex_enum_pgl2_polytope():
    p = HPolytope(1, [affine_form([-1], 1), affine_form([2], 2)])
    assert vertex_enum(p).vertices == (vec([-1]), vec([1]))


def test_vertex_enum_square():
    p = HPolytope(2, [affine_form([1, 0], 1), affine_form([-1, 0], 1),
                      affine_form([0, 1], 1), affine_form([0, -1], 1)])
    assert vertex_enum(p).vertices == (
        vec([-1, -1]), vec([-1, 1]), vec([1, -1]), vec([1, 1]))


def test_vertex_enum_empty():
    with pytest.raises(EmptyPolytopeError):
        HPolytope(1, [affine_form([1], -1), affine_form([-1], -1)])


def test_vertex_enum_unbounded():
    with pytest.raises(UnboundedPolytopeError):
        HPolytope(1, [affine_form([1], 0)])


def test_vertex_enum_single_point():
    p = HPolytope(2, [affine_form([1, 0], 0), affine_form([-1, 0], 0),
                      affine_form([0, 1], 0), affine_form([0, -1], 0)])
    assert vertex_enum(p).vertices == (vec([0, 0]),)


# ---------------------------------------------------------------------------
# dual polytope


def test_dual_interval_self_dual():
    d = dual_polytope(VPolytope(1, [vec([-1]), vec([1])]))
    assert d.bounded
    assert d.polytope.vertex_list == (vec([-1]), vec([1]))


def test_dual_square_is_cross_polytope():
    sq = VPolytope(2, [vec([1, 1]), vec([1, -1]), vec([-1, 1]), vec([-1, -1])])
    d = dual_polytope(sq)
    assert d.polytope.vertex_list == (
        vec([-1, 0]), vec([0, -1]), vec([0, 1]), vec([1, 0]))


def test_dual_shifted_interval():
    # endpoints -1 and 3: -xi + 1 >= 0 and 3 xi + 1 >= 0
    d = dual_polytope(VPolytope(1, [vec([-1]), vec([3])]))
    assert d.polytope.vertex_list == (vec([F(-1, 3)]), vec([1]))


def test_dual_unbounded_when_origin_not_interior():
    d = dual_polytope(VPolytope(1, [vec([1]), vec([2])]))
    assert not d.bounded


def test_dual_form_irredundancy():
    # interior point of the hull contributes no form
    v = VPolytope(1, [vec([-1]), vec([1])])
    d = dual_polytope(v)
    assert len(d.forms) == 2


def test_dual_involution():
    sq = VPolytope(2, [vec([1, 1]), vec([1, -1]), vec([-1, 1]), vec([-1, -1])])
    dd = dual_polytope(vertex_enum(dual_polytope(sq).polytope))
    assert dd.polytope.vertex_list == sq.vertices


# ---------------------------------------------------------------------------
# triangulation


def test_triangulate_unit_square():
    sq = VPolytope(2, [vec([0, 0]), vec([1, 0]), vec([0, 1]), vec([1, 1])])
    tris = triangulate(sq)
    assert len(tris) == 2
    assert all(t.volume == F(1, 2) for t in tris)


def test_triangulate_interval():
    tris = triangulate(VPolytope(1, [vec([-1]), vec([1])]))
    assert len(tris) == 1
    assert tris[0].volume == 2


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
        total = sum(t.volume for t in triangulate(v))
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


def test_cone_dual_negative_ray():
    assert Cone(1, [vec([-1])]).dual().rays == (vec([-1]),)
    neg = Cone(1, [vec([-1])]).negated()
    assert neg.dual().rays == (vec([1]),)


def test_cone_dual_full_space_is_zero():
    d = Cone.full_space(2).dual()
    assert d.rays == () and d.lineality == ()
    assert d.contains(vec([0, 0])) and not d.contains(vec([1, 0]))


def test_cone_dual_orthant_self_dual():
    c = Cone(2, [vec([1, 0]), vec([0, 1])])
    assert c.dual().rays == (vec([0, 1]), vec([1, 0]))


def test_cone_dual_involution_random():
    import random
    rng = random.Random(9)
    for _ in range(20):
        gens = [vec([rng.randint(-3, 3) for _ in range(3)]) for _ in range(4)]
        c = Cone(3, gens)
        assert c.dual().dual().set_equal(c)


def test_intersect_orthant_halfplane():
    orth = Cone(2, [vec([1, 0]), vec([0, 1])])
    half = Cone(2, [vec([-1, 0]), vec([0, 1]), vec([0, -1])])
    assert orth.intersect(half).rays == (vec([0, 1]),)


def test_intersect_idempotent():
    c = Cone(2, [vec([2, 1]), vec([1, 3])])
    assert c.intersect(c).set_equal(c)


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
    again = vertex_enum(HPolytope(2, forms))
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
    area = sum(t.volume for t in tris)
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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=6))
def test_dual_involution_random(points):
    pts = [vec(p) for p in points] + [vec([1, 0]), vec([-1, 0]),
                                      vec([0, 1]), vec([0, -1])]
    v = VPolytope(2, pts)  # contains 0 in the interior by construction
    d = dual_polytope(v)
    assert d.bounded
    dd = dual_polytope(vertex_enum(d.polytope))
    assert dd.polytope.vertex_list == v.vertices


def test_geom_is_exact():
    p = HPolytope(1, [affine_form([3], 1), affine_form([-7], 2)])
    for v in p.vertex_list:
        assert all(isinstance(c, F) for c in v)
    assert p.vertex_list == ((F(-1, 3),), (F(2, 7),))


# ---------------------------------------------------------------------------
# lattice charts


def test_integer_kernel_saturated():
    # kernel of (2, 4) in Z^2 is generated by (2, -1), not (4, -2)
    ker = integer_kernel([[2, 4]], 2)
    assert ker == [(2, -1)] or ker == [(-2, 1)]


def test_lattice_span_basis_of_diagonal():
    basis = lattice_span_basis([vec([2, 2])], 2)
    assert [tuple(int(c) for c in b) for b in basis] == [(1, 1)]


def test_lattice_chart_round_trip():
    chart = lattice_chart([vec([0, 0, 0]), vec([2, 2, 0]), vec([1, 1, 3])])
    assert chart.dim == 2
    for p in (vec([0, 0, 0]), vec([2, 2, 0]), vec([1, 1, 3]), vec([3, 3, 3])):
        assert chart.from_chart(chart.to_chart(p)) == p


def test_simplex_volume_factor():
    s = Simplex((vec([0, 0]), vec([2, 0]), vec([0, 2])))
    assert s.volume_factor == 4
    assert s.volume == 2


def test_primitive_vector():
    assert primitive(vec([F(2, 3), F(4, 3)])) == (F(1), F(2))
    assert primitive(vec([-2, -4])) == (F(-1), F(-2))
