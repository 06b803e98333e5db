"""Root-system combinatorics for Duistermaat-Heckman densities.

Supported Cartan types: A1..A8, B2..B8, C2..C8, D2..D8, G2.  Roots are
realized internally in exact Euclidean coordinates; user-facing weights are
written in the fundamental-weight basis, where pairing a weight with the
i-th simple coroot reads off coordinate i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .geom import (
    Vec,
    dot,
    solve_linear,
    unit_vec,
    vec,
    vneg,
    vscale,
    vsub,
)
from .quad import AffineForm, DHDensity, DHFactor, ZeroFactorError


class RootSystemError(Exception):
    pass


_SUPPORTED = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9),
              "D": range(2, 9), "G": (2,)}


def _simple_roots_euclidean(letter: str, n: int) -> list[Vec]:
    F = Fraction
    if letter == "A":
        # in R^{n+1}
        return [tuple(F(1 if j == i else (-1 if j == i + 1 else 0))
                      for j in range(n + 1)) for i in range(n)]
    if letter == "B":
        roots = [tuple(F(1 if j == i else (-1 if j == i + 1 else 0))
                       for j in range(n)) for i in range(n - 1)]
        roots.append(unit_vec(n - 1, n))
        return roots
    if letter == "C":
        roots = [tuple(F(1 if j == i else (-1 if j == i + 1 else 0))
                       for j in range(n)) for i in range(n - 1)]
        roots.append(vscale(unit_vec(n - 1, n), 2))
        return roots
    if letter == "D":
        roots = [tuple(F(1 if j == i else (-1 if j == i + 1 else 0))
                       for j in range(n)) for i in range(n - 1)]
        roots.append(tuple(F(1 if j >= n - 2 else 0) for j in range(n)))
        return roots
    if letter == "G":
        # realized in the plane x+y+z = 0 of R^3
        return [vec([1, -1, 0]), vec([-2, 1, 1])]
    raise RootSystemError(f"unsupported Cartan type {letter}{n}")


_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G": lambda n: 6,
}

def _pair(x: Vec, root: Vec) -> Fraction:
    """<x, root^vee> = 2 (x, root) / (root, root) in Euclidean coordinates."""
    return 2 * dot(x, root) / dot(root, root)


@dataclass(frozen=True)
class RootSystem:
    letter: str
    rank: int

    def __post_init__(self):
        if self.letter not in _SUPPORTED or self.rank not in _SUPPORTED[self.letter]:
            raise RootSystemError(
                f"unsupported Cartan type {self.letter}{self.rank}")

    @property
    def cartan_type(self) -> str:
        return f"{self.letter}{self.rank}"

    @cached_property
    def simple_roots_euclidean(self) -> tuple[Vec, ...]:
        return tuple(_simple_roots_euclidean(self.letter, self.rank))

    @cached_property
    def positive_roots_euclidean(self) -> tuple[Vec, ...]:
        simple = self.simple_roots_euclidean
        roots: set[Vec] = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for r in frontier:
                for s in simple:
                    refl = vsub(r, vscale(s, _pair(r, s)))
                    if refl not in roots and vneg(refl) not in roots:
                        roots.add(refl)
                        nxt.append(refl)
            frontier = nxt
        positive = []
        for r in sorted(roots):
            coeffs = solve_linear(
                [tuple(s[i] for s in simple) for i in range(len(r))], r)
            assert coeffs is not None
            if all(c >= 0 for c in coeffs):
                positive.append(r)
        expected = _POSITIVE_COUNT[self.letter](self.rank)
        if len(positive) != expected:
            raise AssertionError(
                f"{self.cartan_type}: found {len(positive)} positive roots, "
                f"expected {expected}")
        return tuple(positive)

    @cached_property
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Entry (i, j) is the pairing of alpha_j with the i-th simple coroot."""
        simple = self.simple_roots_euclidean
        return tuple(tuple(int(_pair(aj, ai)) for aj in simple) for ai in simple)

    @cached_property
    def coroot_covectors(self) -> tuple[Vec, ...]:
        """Per positive root alpha, the covector c with <lam, alpha^vee> =
        sum_i c_i lam_i for lam in fundamental-weight coordinates."""
        simple = self.simple_roots_euclidean
        out = []
        for alpha in self.positive_roots_euclidean:
            corr = vscale(alpha, Fraction(2) / dot(alpha, alpha))
            # expand over simple coroots
            simple_coroots = [vscale(s, Fraction(2) / dot(s, s)) for s in simple]
            coeffs = solve_linear(
                [tuple(sc[i] for sc in simple_coroots) for i in range(len(corr))],
                corr)
            assert coeffs is not None
            out.append(tuple(coeffs))
        return tuple(out)

    @cached_property
    def rho_pairings(self) -> tuple[Fraction, ...]:
        """<rho, alpha^vee> per positive root (rho = all-ones in fw coords)."""
        return tuple(sum(c, Fraction(0)) for c in self.coroot_covectors)

    def __repr__(self):
        return f"RootSystem({self.cartan_type})"


def dh_density(rs: RootSystem, active_roots: Sequence[int] | None, chi_fw,
               embed: Sequence[Sequence], squared: bool) -> DHDensity:
    """DH density factors <embed.x + chi, alpha^vee> over the active positive
    roots, with multiplicity 2 when ``squared``.

    ``embed`` maps lattice coordinates of the section polytope into
    fundamental-weight coordinates (rows indexed by fw coordinate).
    """
    chi = vec(chi_fw)
    rows = [vec(r) for r in embed]
    if len(rows) != rs.rank:
        raise ValueError("embed must have one row per fundamental weight")
    m_rank = len(rows[0]) if rows else 0
    indices = list(range(len(rs.positive_roots_euclidean))) \
        if active_roots is None else list(active_roots)
    mult = 2 if squared else 1
    factors = []
    normalization = Fraction(1)
    for idx in indices:
        cov = rs.coroot_covectors[idx]
        normal = tuple(
            sum((cov[i] * rows[i][j] for i in range(rs.rank)), Fraction(0))
            for j in range(m_rank))
        offset = dot(cov, chi)
        if all(c == 0 for c in normal) and offset == 0:
            raise ZeroFactorError(
                f"active root {idx} is orthogonal to the translated polytope")
        rho_pair = rs.rho_pairings[idx]
        factors.append(DHFactor(AffineForm(normal, offset), mult, rho_pair))
        normalization *= rho_pair ** mult
    return DHDensity(m_rank, tuple(factors), normalization)
