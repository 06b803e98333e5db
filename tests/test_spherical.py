"""Spherical data model: polytopes, support functions, candidates, level sums."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    affine_form,
    complete_fans,
    fan_input,
    random_toric_input,
    translated_polytope,
)
from kstab.fixtures import builtin_document
from kstab.geom import Cone, dot, vec
from kstab.invariants import S_p, T_max, alpha, beta_g, delta_p, ding_check
from kstab.quad import AffineForm, DHDensity, DHFactor
from kstab.schema import parse_input_document
from kstab.spherical import (
    ColoredConeData,
    DivisorRecord,
    NotQCartierError,
    OutsideFanSupportError,
    SphericalDataError,
    SphericalInput,
    build_pl_function,
    colored_generators,
    lattice_points,
    section_polytope,
)


def _cones(fan, recs, dim):
    return [Cone(dim, colored_generators(c, recs)) for c in fan]


# ---------------------------------------------------------------------------
# section polytope


def test_section_polytope_pgl2(pgl2):
    assert pgl2.section_polytope.vertices == ((F(-1),), (F(1),))


def test_section_polytope_unbounded_rejected():
    with pytest.raises(SphericalDataError):
        section_polytope([DivisorRecord("D", vec([1]), F(0), False)])


@pytest.mark.parametrize("name, coeffs, message", [
    # x >= 0, y >= 0, x + y <= 1 and x + y >= 1: a segment
    ("toric-bl1p2", {"D1": "0", "D2": "0", "E": "-1", "D3": "1"}, "dimension 1 < rank 2"),
    ("toric-p1", {"D0": "0", "Dinf": "0"}, "dimension 0 < rank 1"),
])
def test_lower_dimensional_section_polytope_refused(name, coeffs, message):
    doc = builtin_document(name)
    for d in doc["variety"]["divisors"]:
        d["coeff"] = coeffs[d["name"]]
    with pytest.raises(SphericalDataError, match=f"{message}: the line bundle is not big"):
        parse_input_document(doc)


def test_section_polytope_translation_covariance():
    recs = [DivisorRecord("A", vec([1]), F(1), False),
            DivisorRecord("B", vec([-1]), F(1), False)]
    base = section_polytope(recs)
    t = F(3, 2)
    shifted = [DivisorRecord(r.name, r.rho, r.coeff - r.rho[0] * t, r.is_color)
               for r in recs]
    moved = section_polytope(shifted)
    assert moved.vertices == tuple((v[0] + t,) for v in base.vertices)


# ---------------------------------------------------------------------------
# piecewise-linear support functions


def test_pl_function_pgl2(pgl2):
    h = pgl2.log_discrepancy
    assert h(vec([-1])) == 1
    assert h(vec([F(-7, 2)])) == F(7, 2)


def test_pl_function_toric_tent(toric_p1):
    h = toric_p1.log_discrepancy
    for v in (-3, -1, 0, 2, 5):
        assert h(vec([v])) == abs(v)


def test_pl_function_not_q_cartier():
    recs = [DivisorRecord("A", vec([1]), F(0), False),
            DivisorRecord("B", vec([2]), F(1), False)]
    fan = [ColoredConeData((vec([1]),), ("A", "B"))]
    with pytest.raises(NotQCartierError):
        build_pl_function(recs, fan, _cones(fan, recs, 1))


def test_pl_function_outside_support():
    recs = [DivisorRecord("A", vec([1]), F(1), False)]
    fan = [ColoredConeData((vec([1]),), ("A",))]
    pl = build_pl_function(recs, fan, _cones(fan, recs, 1))
    with pytest.raises(OutsideFanSupportError):
        pl(vec([-1]))


def test_pl_continuity_across_shared_faces(toric_bl1p2):
    pl = toric_bl1p2.log_discrepancy
    rng = random.Random(2)
    pieces = pl.pieces
    for a in pieces:
        for b in pieces:
            if a is b:
                continue
            face = a.cone.intersect(b.cone)
            rays = list(face.rays)
            if not rays:
                continue
            for _ in range(100):
                x = vec([0, 0])
                for r in rays:
                    c = F(rng.randint(0, 7))
                    x = tuple(xi + c * ri for xi, ri in zip(x, r))
                assert sum(ai * xi for ai, xi in zip(a.linear, x)) == \
                    sum(bi * xi for bi, xi in zip(b.linear, x))


def test_log_discrepancy_positive_on_candidates(all_builtins):
    for si in all_builtins.values():
        for ray in si.candidates:
            assert si.log_discrepancy(ray) > 0


# ---------------------------------------------------------------------------
# candidate rays


def test_candidates_pgl2(pgl2):
    assert pgl2.candidates == [(F(-1),)]


def test_candidates_wonderful_a2(wonderful_a2):
    assert wonderful_a2.candidates == [(F(-1), F(0)), (F(0), F(-1))]


def test_candidates_toric_p1(toric_p1):
    assert toric_p1.candidates == [(F(-1),), (F(1),)]


def test_candidates_toric_bl1p2(toric_bl1p2):
    assert toric_bl1p2.candidates == [
        (F(-1), F(-1)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]


def test_candidates_subset_of_valuation_cone(all_builtins):
    for si in all_builtins.values():
        for ray in si.candidates:
            assert si.valuation_cone.contains(ray)


# ---------------------------------------------------------------------------
# lattice points and level sums


def test_lattice_points_interval(pgl2):
    assert lattice_points(pgl2.section_polytope, 1) == [(F(-1),), (F(0),), (F(1),)]
    assert len(lattice_points(pgl2.section_polytope, 3)) == 7


def test_lattice_points_at_four_levels_make_one_double_description(monkeypatch):
    # the box comes from k times the vertices and membership from k times
    # the facets, which are built once per polytope
    import itertools

    import kstab.geom
    from kstab.fixtures import builtin_spherical_input
    si = builtin_spherical_input("toric-bl1p2")[0]
    calls = []
    dd = kstab.geom.double_description
    monkeypatch.setattr(kstab.geom, "double_description",
                        lambda *args: calls.append(args) or dd(*args))
    levels = {k: lattice_points(si.section_polytope, k) for k in range(1, 5)}
    assert len(calls) == 1
    for k, points in levels.items():
        box = itertools.product(range(-5 * k, 5 * k + 1), repeat=2)
        assert points == [vec(m) for m in box
                          if all(dot(d.rho, m) + k * d.coeff >= 0 for d in si.divisors)]


def test_lattice_points_origin_polytope():
    from kstab.geom import VPolytope
    pt = VPolytope.from_inequalities(1, [affine_form([1], 0), affine_form([-1], 0)])
    for k in (1, 2, 5):
        assert lattice_points(pt, k) == [(F(0),)]


def test_level_sum_pgl2_level_one(pgl2):
    s, d, t = pgl2.level_sum(vec([-1]), 1, 1)
    assert (s, d, t) == (F(11, 35), 35, 2)


def test_level_sum_reads_an_integral_float_p_as_the_integer(pgl2):
    # as S_p does: 2, Fraction(2) and 2.0 give the same exact mean
    exact = pgl2.level_sum(vec([-1]), 2, 2)
    assert exact[0] == F(41, 110)
    assert pgl2.level_sum(vec([-1]), 2, 2.0) == pgl2.level_sum(vec([-1]), 2, F(2)) == exact
    assert type(pgl2.level_sum(vec([-1]), 2, 2.0)[0]) is F


def test_level_sum_trivial_valuation(pgl2):
    s, _d, t = pgl2.level_sum(vec([0]), 4, 1)
    assert s == 0 and t == 0


def test_level_sum_dimension_growth(pgl2):
    dims = [pgl2.level_sum(vec([-1]), k, 1)[1] for k in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(dims, dims[1:]))


def test_level_sum_converges_to_continuum(pgl2):
    # S^(1)(-1) = 1/2; empirical O(1/k) approach
    errors = []
    for k in (4, 8, 16, 32):
        s, _, _ = pgl2.level_sum(vec([-1]), k, 1)
        errors.append(abs(s - F(1, 2)))
    assert all(e <= F(2, k) for e, k in zip(errors, (4, 8, 16, 32)))
    assert errors[-1] < errors[0]


def _moved_p1():
    """toric-p1 with its section moved by the character 1/2: the section
    polytope is [-3/2, 1/2], and the anticanonical section is still the
    canonical one."""
    doc = builtin_document("toric-p1")
    for d in doc["variety"]["divisors"]:
        d["coeff"] = {"D0": "3/2", "Dinf": "1/2"}[d["name"]]
    return parse_input_document(doc)[0]


def test_level_sum_of_a_moved_section_tends_to_its_s_and_t():
    # l(1) = 3/2 for this section, so S_1 = 1 and T = 2 along 1; the
    # level sums read the same l, not the log discrepancy l(1) = 1
    si = _moved_p1()
    v = vec([1])
    assert (S_p(si, v, 1).exact, T_max(si, v)) == (1, 2)
    assert [si.level_sum(v, k, 1)[0] for k in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert [si.level_sum(v, k, 1)[2] for k in (1, 2, 4)] == [F(3, 2), 2, 2]


def test_one_input_per_section(all_builtins):
    # a document whose two lists agree is its own anticanonical input, with
    # one PL function; a moved section gets the input of the other list
    for si in all_builtins.values():
        assert si.anticanonical is si and si.log_discrepancy is si.section_support
    si = _moved_p1()
    anti = si.anticanonical
    assert anti is not si and anti.divisors == si.anticanonical_divisors
    assert anti.anticanonical is anti and si.log_discrepancy is anti.section_support
    assert [si.log_discrepancy(v) for v in si.candidates] == [1, 1]
    assert [si.section_support(v) for v in si.candidates] == [F(1, 2), F(3, 2)]


def test_anticanonical_refusal_names_its_list():
    doc = builtin_document("toric-p1")
    for d in doc["variety"]["anticanonical_divisors"]:
        d["coeff"] = "0"
    # refused when the document is read, so no command answers it
    with pytest.raises(SphericalDataError, match="^anticanonical_divisors: section polytope "
                                                 "has dimension 0 < rank 1"):
        parse_input_document(doc)


def test_level_sum_requires_root_data(toric_bl1p2):
    s, d, t = toric_bl1p2.level_sum(vec([1, 0]), 2, 1)
    # toric module dimensions are all 1: d_2 = #(2*Delta cap Z^2)
    assert d == len(lattice_points(toric_bl1p2.section_polytope, 2))
    raw = SphericalInput(
        rank=1, dim_x=1,
        divisors=(DivisorRecord("A", vec([1]), F(1), False),
                  DivisorRecord("B", vec([-1]), F(1), False)),
        anticanonical_divisors=(DivisorRecord("A", vec([1]), F(1), False),
                                DivisorRecord("B", vec([-1]), F(1), False)),
        fan=(ColoredConeData((vec([1]),), ("A",)),
             ColoredConeData((vec([-1]),), ("B",))),
        valuation_cone=Cone.full_space(1),
        dh=DHDensity(1, (DHFactor(AffineForm(vec([1]), F(2)), 1, None),)),
        projection=(vec([1]),),
    )
    with pytest.raises(SphericalDataError):
        raw.level_sum(vec([1]), 1, 1)


# ---------------------------------------------------------------------------
# validation


def test_moment_polytope_relation_wonderful(wonderful_a1, wonderful_a2):
    # section polytope + weight of the section = canonical moment polytope
    from conftest import two_rho_alpha_coords, wonderful_moment_polytope
    from kstab.rootsys import RootSystem
    for si, (letter, rank) in ((wonderful_a1, ("A", 1)), (wonderful_a2, ("A", 2))):
        rs = RootSystem(letter, rank)
        chi = two_rho_alpha_coords(rs)
        delta_plus = wonderful_moment_polytope(rs)
        translated = translated_polytope(si.section_polytope, chi)
        assert translated.vertices == delta_plus.vertices


def test_fan_must_cover_valuation_cone():
    recs = (DivisorRecord("A", vec([1]), F(1), False),
            DivisorRecord("B", vec([-1]), F(1), False))
    with pytest.raises(SphericalDataError):
        SphericalInput(
            rank=1, dim_x=1,
            divisors=recs, anticanonical_divisors=recs,
            fan=(ColoredConeData((vec([1]),), ("A",)),),  # misses -1 direction
            valuation_cone=Cone.full_space(1),
            dh=DHDensity(1, ()),
            projection=(vec([1]),),
        )


def test_colored_cone_must_be_strictly_convex():
    recs = (DivisorRecord("A", vec([1]), F(1), False),
            DivisorRecord("B", vec([-1]), F(1), False))
    with pytest.raises(SphericalDataError):
        SphericalInput(
            rank=1, dim_x=1,
            divisors=recs, anticanonical_divisors=recs,
            fan=(ColoredConeData((vec([1]), vec([-1])), ("A", "B")),),
            valuation_cone=Cone.full_space(1),
            dh=DHDensity(1, ()),
            projection=(vec([1]),),
        )


# ---------------------------------------------------------------------------
# completeness: the fan covers the valuation cone


def test_thin_gap_between_cones_refused():
    # no cone between (11, 1) and (10, 1): every point of the gap has a
    # coordinate of absolute value above 9
    rays = [(1, 0), (11, 1), (10, 1), (0, 1), (-1, 0), (0, -1)]
    cones = [(rays[i], rays[(i + 1) % 6]) for i in range(6)]
    fan_input(rays, cones)
    with pytest.raises(SphericalDataError, match=r"wall spanned by \(11, 1\)"):
        fan_input(rays, cones[:1] + cones[2:])


QUADRANTS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
QUADRANT_CONES = [(QUADRANTS[i], QUADRANTS[(i + 1) % 4]) for i in range(4)]


def test_overlapping_cones_refused():
    # the quadrant fan and the fan of P^2 as one fan of six cones: every
    # wall has a cone across it, but the cones overlap
    p2_cones = [((0, 1), (-1, -1)), ((-1, -1), (1, 0))]
    fan_input(QUADRANTS, QUADRANT_CONES)
    with pytest.raises(SphericalDataError, match="overlap"):
        fan_input(QUADRANTS + [(-1, -1)], QUADRANT_CONES + p2_cones)


def test_duplicated_cone_refused():
    with pytest.raises(SphericalDataError, match=r"\(0, 1\), \(1, 0\) and by "
                                                 r"\(0, 1\), \(1, 0\) overlap"):
        fan_input(QUADRANTS, QUADRANT_CONES[:1] + QUADRANT_CONES)


def test_cones_overlapping_outside_the_valuation_cone_accepted():
    # under V = {y >= 0} the first and last cones overlap only below the
    # x-axis: each point of V lies inside at most one cone
    rays = [(-1, -4), (1, 2), (-1, 2), (0, -1)]
    cones = [(rays[0], rays[1]), (rays[1], rays[2]), (rays[2], rays[3])]
    half_plane = Cone(2, [vec([1, 0]), vec([-1, 0]), vec([0, 1])])
    si = fan_input(rays, cones, half_plane)
    assert si.candidates == [vec(r) for r in [(-1, 0), (-1, 2), (1, 0), (1, 2)]]
    with pytest.raises(SphericalDataError, match="overlap"):
        fan_input(rays, cones, Cone.full_space(2))


HALF_PLANE = Cone(2, [vec([1, 0]), vec([-1, 0]), vec([0, 1])])  # V = {y >= 0}


def test_cones_overlapping_outside_the_valuation_cone_get_invariants():
    # the pieces are compared across their walls inside V only, so the
    # overlap below the x-axis no longer refuses the first invariant
    rays = [(-1, -4), (1, 2), (-1, 2), (0, -1)]
    si = fan_input(rays, [(rays[0], rays[1]), (rays[1], rays[2]), (rays[2], rays[3])],
                   HALF_PLANE)
    assert delta_p(si, 1).value.exact == F(1, 2)
    assert alpha(si).value.exact == F(1, 6)
    assert ding_check(si).verdict == "unstable"


def test_invariants_along_a_ray_outside_the_valuation_cone_refused():
    # the fan cone of (1, -1) and (0, 1) reaches below V; along (1, -1) its
    # linear form gave S^(1) = 4/3, T = 4 and beta = -1/3, which are no
    # log discrepancies
    si = fan_input([(1, -1), (0, 1), (-1, -1)], [((1, -1), (0, 1)), ((0, 1), (-1, -1))],
                   HALF_PLANE)
    for invariant in (lambda v: S_p(si, v, 1), lambda v: T_max(si, v),
                      lambda v: beta_g(si, v)):
        with pytest.raises(OutsideFanSupportError,
                           match=r"^\(1, -1\) lies outside the valuation cone$"):
            invariant((1, -1))


def test_pieces_that_disagree_on_a_wall_refused():
    # the first quadrant lists only D0, so its linear form (1, 0) agrees
    # with the fourth quadrant's (1, -1) on the wall (1, 0) but not with the
    # second quadrant's (-1, 1) on the wall (0, 1)
    si = fan_input(QUADRANTS, QUADRANT_CONES)
    first = ColoredConeData(si.fan[0].generators, ("D0",))
    si = dataclasses.replace(si, fan=(first,) + si.fan[1:])
    with pytest.raises(SphericalDataError, match=r"^piecewise-linear pieces disagree on "
                                                 r"the wall spanned by \(0, 1\)$"):
        si.section_support


def _answers(doc):
    si, _ = parse_input_document(doc)
    return delta_p(si, 1).value.exact, alpha(si).value.exact, ding_check(si).verdict


@pytest.mark.parametrize("name, answers", [
    ("toric-p1", (F(1), F(1, 2), "polystable")),
    ("wonderful-a2", (F(9888, 5023), F(1, 3), "polystable")),
])
def test_the_zero_cone_is_no_piece(name, answers):
    # the open orbit's cone has no generators and no incident divisors
    doc = builtin_document(name)
    assert _answers(doc) == answers
    doc["variety"]["fan"].append({"generators": [], "divisors": []})
    assert _answers(doc) == answers


def test_listed_faces_change_no_answer():
    doc = builtin_document("toric-bl1p2")
    assert _answers(doc) == (F(6, 7), F(1, 3), "unstable")
    doc["variety"]["fan"] += [{"generators": [["1", "0"]], "divisors": ["D1"]},
                              {"generators": [["1", "1"]], "divisors": ["E"]}]
    assert _answers(doc) == (F(6, 7), F(1, 3), "unstable")


def test_a_piece_with_no_incident_divisors_refused():
    doc = builtin_document("toric-p1")
    doc["variety"]["fan"][0]["divisors"] = []
    si, _ = parse_input_document(doc)
    with pytest.raises(SphericalDataError, match="colored cone with no incident divisors"):
        si.section_support


@pytest.mark.parametrize("face", [False, True])
def test_unknown_divisor_refused_at_parse(face):
    doc = builtin_document("toric-bl1p2")
    if face:
        doc["variety"]["fan"].append({"generators": [["1", "0"]], "divisors": ["D1", "Zzz"]})
    else:
        doc["variety"]["fan"][0]["divisors"].append("Zzz")
    with pytest.raises(SphericalDataError, match="^fan references unknown divisor 'Zzz'$"):
        parse_input_document(doc)


def _with_cone(name, cone):
    doc = builtin_document(name)
    doc["variety"]["fan"].append(cone)
    return doc


def _with_color_of_rho_zero():
    doc = builtin_document("wonderful-a2")
    for key in ("divisors", "anticanonical_divisors"):
        doc["variety"][key].append({"name": "C0", "rho": ["0", "0"], "coeff": "1",
                                    "is_color": True})
    doc["variety"]["fan"][0]["divisors"].append("C0")
    return doc


@pytest.mark.parametrize("make, message", [
    (lambda: _with_cone("toric-p1", {"generators": [["1"], ["-1"]], "divisors": ["D0", "Dinf"]}),
     "colored cone is not strictly convex"),
    (lambda: _with_cone("pgl2", {"generators": [["1"]], "divisors": []}),
     "relative interior of a colored cone misses the valuation cone"),
    (_with_color_of_rho_zero, "color 'C0' has rho = 0 inside a colored cone"),
], ids=["not-strictly-convex", "misses-the-valuation-cone", "color-of-rho-zero"])
def test_fan_refusals_at_parse(make, message):
    with pytest.raises(SphericalDataError, match=f"^{message}$"):
        parse_input_document(make())

def test_anticanonical_records_must_match_the_divisors():
    # rho(D) and the color flag belong to D; only the coefficient depends
    # on the section
    for field, value in (("rho", ["2"]), ("is_color", True), ("name", "D1")):
        doc = builtin_document("toric-p1")
        doc["variety"]["anticanonical_divisors"][0][field] = value
        with pytest.raises(SphericalDataError, match="divisor 'D0'"):
            parse_input_document(doc)
    doc = builtin_document("toric-p1")
    doc["variety"]["anticanonical_divisors"][0]["coeff"] = "2"
    parse_input_document(doc)


def test_complete_inputs_accepted(all_builtins):
    # each input is built, so the completeness check passed
    from kstab.fixtures import wonderful_fixture
    from kstab.schema import parse_input_document
    assert all_builtins
    for letter in "ABC":
        parse_input_document(wonderful_fixture(letter, 3))
    rng = random.Random(11)
    for _ in range(30):
        random_toric_input(rng)


def test_lower_dimensional_valuation_cone_refused():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [(rays[0], rays[1])]
    with pytest.raises(SphericalDataError, match="not full-dimensional"):
        fan_input(rays, cones, Cone(2, [vec([1, 1])]))


def test_fan_without_a_full_dimensional_cone_refused():
    # the four half-axes cover every ray and direction of the plane
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    with pytest.raises(SphericalDataError, match="full-dimensional cone"):
        fan_input(rays, [(r,) for r in rays])


@settings(max_examples=40, deadline=None)
@given(complete_fans(), st.data())
def test_dropping_a_full_dimensional_cone_is_refused(case, data):
    rays, cones, vcone = case
    fan_input(rays, cones, vcone)
    drop = data.draw(st.integers(0, len(cones) - 1))
    with pytest.raises(SphericalDataError):
        fan_input(rays, cones[:drop] + cones[drop + 1:], vcone)
