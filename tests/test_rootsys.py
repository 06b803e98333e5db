"""Root systems, dimension formula, orbits, canonical moment polytopes."""

import math
from fractions import Fraction as F

import pytest

from conftest import (
    affine_power,
    invert_matrix,
    two_rho_alpha_coords,
    weyl_dim,
    weyl_orbit,
    wonderful_moment_polytope,
)
from kstab.geom import AffineForm, VPolytope, dot, vec, vneg
from kstab.quad import Polynomial, ZeroFactorError
from kstab.rootsys import RootSystem, RootSystemError, dh_density


def _polynomial(d):
    """A density as one `Polynomial`: its normalization and factors
    multiplied out."""
    p = Polynomial.constant(d.dim, 1 / d.normalization)
    for f in d.factors:
        p = p * affine_power(f.form, f.multiplicity)
    return p


def test_a1_dimension_formula():
    a1 = RootSystem("A", 1)
    for k in range(6):
        assert weyl_dim(a1, (k,)) == k + 1


def test_a2_dimension_at_rho():
    # three positive roots contribute 2 * 2 * 4 / (1 * 1 * 2)
    assert weyl_dim(RootSystem("A", 2), (1, 1)) == 8


def test_squared_dimensions_match_level_one_count():
    # odd squares at level one: weights 2(k+m)+1 for m in {-1, 0, 1}, k = 1
    a1 = RootSystem("A", 1)
    dims = [int(weyl_dim(a1, (2 * (1 + m),))) ** 2 for m in (-1, 0, 1)]
    assert dims == [1, 9, 25]
    assert sum(dims) == 35


def test_dimension_one_at_zero_and_monotone_on_rays():
    for rs in (RootSystem("A", 2), RootSystem("B", 2), RootSystem("G", 2)):
        assert weyl_dim(rs, (0,) * rs.rank) == 1
        prev = 0
        for k in range(1, 5):
            d = weyl_dim(rs, (k,) * rs.rank)
            assert d > prev
            prev = d


def test_rho_pairs_simple_coroots():
    for rs in (RootSystem("A", 3), RootSystem("B", 3), RootSystem("C", 3),
               RootSystem("D", 4), RootSystem("G", 2)):
        simple = rs.simple_roots_euclidean
        pos = rs.positive_roots_euclidean
        for s in simple:
            idx = pos.index(s)
            assert rs.rho_pairings[idx] == 1


def test_positive_root_counts():
    assert len(RootSystem("A", 4).positive_roots_euclidean) == 10
    assert len(RootSystem("B", 3).positive_roots_euclidean) == 9
    assert len(RootSystem("C", 3).positive_roots_euclidean) == 9
    assert len(RootSystem("D", 4).positive_roots_euclidean) == 12
    assert len(RootSystem("G", 2).positive_roots_euclidean) == 6


def test_unsupported_types_rejected():
    with pytest.raises(RootSystemError):
        RootSystem("E", 8)
    with pytest.raises(RootSystemError):
        RootSystem("A", 9)


def test_weyl_orbit_a1():
    assert weyl_orbit(RootSystem("A", 1), (1,)) == [(F(-1),), (F(1),)]


def test_weyl_orbit_regular_a2():
    assert len(weyl_orbit(RootSystem("A", 2), (1, 1))) == 6


def test_weyl_orbit_fixed_point():
    assert weyl_orbit(RootSystem("A", 2), (0, 0)) == [(F(0), F(0))]


# |W| by Cartan letter and rank, the oracle of the orbit sizes
WEYL_ORDER = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: math.factorial(n) * 2 ** n,
    "C": lambda n: math.factorial(n) * 2 ** n,
    "D": lambda n: math.factorial(n) * 2 ** (n - 1),
    "G": lambda n: 12,
}


def test_orbit_size_divides_weyl_order():
    for rs in (RootSystem("A", 2), RootSystem("B", 2), RootSystem("G", 2),
               RootSystem("A", 3)):
        for lam in [(1,) + (0,) * (rs.rank - 1), (1,) * rs.rank,
                    (2,) + (1,) * (rs.rank - 1)]:
            assert WEYL_ORDER[rs.letter](rs.rank) % len(weyl_orbit(rs, lam)) == 0


# ---------------------------------------------------------------------------
# densities


def test_dh_density_rank_one_paper_normalization():
    # chi = fundamental weight, identity embedding: factor x + 1, squared
    a1 = RootSystem("A", 1)
    d = dh_density(a1, None, (1,), [[1]], squared=True)
    assert len(d.factors) == 1
    f = d.factors[0]
    assert f.form.normal == (F(1),) and f.form.offset == 1
    assert f.multiplicity == 2 and f.rho_pair == 1
    assert _polynomial(d).terms == {(2,): F(1), (1,): F(2), (0,): F(1)}


def test_dh_density_no_active_roots_is_constant_one():
    a1 = RootSystem("A", 1)
    d = dh_density(a1, [], (1,), [[1]], squared=False)
    assert d.factors == ()
    assert _polynomial(d).terms == {(0,): F(1)}


def test_dh_density_a2_squared_factor_count():
    a2 = RootSystem("A", 2)
    d = dh_density(a2, None, (2, 2), [[2, -1], [-1, 2]], squared=True)
    assert len(d.factors) == 3
    assert sum(f.multiplicity for f in d.factors) == 6


def test_dh_density_zero_factor_rejected():
    a2 = RootSystem("A", 2)
    # embed everything to zero with chi = 0: every factor would vanish
    with pytest.raises(ZeroFactorError):
        dh_density(a2, None, (0, 0), [[0], [0]], squared=False)


# ---------------------------------------------------------------------------
# canonical group-compactification polytopes


def test_wonderful_polytope_a1_interval():
    v = wonderful_moment_polytope(RootSystem("A", 1))
    assert v.vertices == ((F(0),), (F(2),))


def _orbit_polytope(rs):
    """The Weyl-orbit hull of 2 rho + sum(alpha_i) met with the dominant
    chamber, in root-lattice coordinates."""
    n = rs.rank
    cm = [vec(row) for row in rs.cartan_matrix]
    # in fundamental-weight coordinates 2 rho is all twos and alpha_i is
    # column i of the Cartan matrix; the inverse takes them to root coordinates
    seed_fw = tuple(2 + sum(row) for row in cm)
    to_alpha = invert_matrix(cm)
    hull = VPolytope(n, [tuple(dot(r, w) for r in to_alpha) for w in weyl_orbit(rs, seed_fw)])
    forms = list(hull.hrep[0]) + [AffineForm(row, F(0)) for row in cm]
    for e in hull.hrep[1]:
        forms += [e, AffineForm(vneg(e.normal), -e.offset)]
    return VPolytope.from_inequalities(n, forms)


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_wonderful_polytope_constructions_agree(letter, rank):
    rs = RootSystem(letter, rank)
    assert wonderful_moment_polytope(rs).vertices == _orbit_polytope(rs).vertices


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("C", 3), ("G", 2)])
def test_wonderful_polytope_in_dominant_chamber(letter, rank):
    rs = RootSystem(letter, rank)
    v = wonderful_moment_polytope(rs)
    cm = rs.cartan_matrix
    for x in v.vertices:
        for i in range(rs.rank):
            assert sum(F(cm[i][j]) * x[j] for j in range(rs.rank)) >= 0


def test_two_rho_alpha_coordinates():
    assert two_rho_alpha_coords(RootSystem("A", 2)) == (F(2), F(2))
    assert two_rho_alpha_coords(RootSystem("B", 2)) == (F(3), F(4))
    assert two_rho_alpha_coords(RootSystem("G", 2)) == (F(10), F(6))
