"""Integrals of an expansion times a rational power of one affine form,
in two steps (`quad.Expansion.integral_power`).

The exact step writes ``int P(x) l(x) ** s`` over a triangulated polytope
as ``sum_t R_t phi(t) + Q`` over the distinct values t of l at the
polytope's vertices, with rational R_t and Q, and phi(t) = t ** s for a
non-integer s, log t for an integer s (`integral_power`, a
`PowerIntegral`).  It rests on the generalized Hermite-Genocchi identity
``int tau^a F^(d+|a|)(sum tau_i t_i) = a! F[t_i repeated a_i + 1 times]``
(de Boor, "Divided differences", Surv. Approx. Theory 1, 2005): every
confluent divided difference of an antiderivative of t ** s is, by partial
fractions over its distinct nodes, a rational combination of the
antiderivatives' values there, and each of those is a rational multiple of
phi plus a rational.  Ties and zero nodes are found exactly.

The enclosing step (`PowerIntegral.enclosure`) encloses only phi at those
few nodes, with mpmath's directed rounding at a given precision, and sums
exactly, so a caller that needs a tighter enclosure repeats only this step.

Imported on first use, so that importing kstab does not compile it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Sequence

from .quad import SingularIntegrandError


def integral_power(parts, values: Sequence[Fraction], s) -> "PowerIntegral":
    """The integral of an expansion (`quad.Expansion.parts`) times
    ``l(x) ** s``, s rational and l given by its ``values`` at the
    polytope's vertices, in exact form: each term tau^a on a simplex
    contributes ``a! A_r[nodes]``, the divided difference of an r-fold
    antiderivative of t ** s (r = d + |a|) on the values at its vertices,
    vertex i repeated a_i + 1 times; by partial fractions, a rational
    combination of the ``A_(r-j)(v) / j!`` at the distinct nodes v, each a
    rational multiple of phi(v) plus a rational (`_antiderivative_row`).
    The values are scaled to integers first.  `SingularIntegrandError`
    where a node makes the integrand singular or, for non-integer s,
    negative, and for s < 0 where l changes sign on a simplex."""
    s = Fraction(s)
    den = lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (den // v.denominator) for v in values]
    # a divided difference of degree s (up to degree below r) gains D ** s
    # under the scaling: that turns phi(v) into phi(t) for a non-integer s,
    # and is rational for an integer s (phi(D t) = log t + log D, sum R_t = 0)
    unscale = Fraction(den) ** -s if s.denominator == 1 else 1
    rows: dict[tuple[int, int, int], tuple[list[int], list[int], int]] = {}
    sums: dict[int | None, list[tuple[int, int]]] = {}  # node or None -> [(num, den)]
    for idx, volume, part in parts:
        nodes = sorted({scaled[i] for i in idx})
        if s < 0 and nodes[0] < 0 < nodes[-1]:
            raise SingularIntegrandError(f"t ** {s} on a simplex where t changes sign")
        slot = [nodes.index(scaled[i]) for i in idx]
        w = volume * part.scale * unscale
        for a, n in part.terms.items():
            mult = [0] * len(nodes)
            for j, k in zip(slot, a):
                mult[j] += k + 1
            n *= prod(map(factorial, a)) * w.numerator
            for j, v in enumerate(nodes):
                conv, g = _partial_fraction(nodes, mult, j)
                key = (v, sum(mult) - 1, mult[j] - 1)
                if key not in rows:
                    rows[key] = _antiderivative_row(s, *key)
                alpha, beta, d = rows[key]
                for node, coeffs in ((v, alpha), (None, beta)):
                    if coeffs:
                        sums.setdefault(node, []).append(
                            (n * sum(map(mul, reversed(conv), coeffs)), g * d * w.denominator))
    common = lcm(*(d for pairs in sums.values() for _, d in pairs))
    total = {key: sum(num * (common // d) for num, d in pairs) for key, pairs in sums.items()}
    return PowerIntegral(s, common, total.pop(None, 0), den,
                         tuple((c, v) for v, c in total.items() if c))


def _partial_fraction(nodes: Sequence[int], mult: Sequence[int], j: int) -> tuple[list[int], int]:
    """Integers ``c_0..c_M`` and g, M = mult[j] - 1, with ``c_r / g`` the
    coefficient of w ** r in ``prod_(i != j) (nodes[j] - nodes[i] + w) **
    -mult[i]``: by ``(x + w) ** -mu = sum_r (-1) ** r C(mu + r - 1, r)
    x ** (-mu - r) w ** r``, each factor over x ** (mu + M)."""
    top = mult[j] - 1
    conv, g = None, 1
    for x, mu in zip(nodes, mult):
        x = nodes[j] - x
        if x:
            g *= x ** (mu + top)
            if not top:
                continue
            series = [(-1) ** r * comb(mu + r - 1, r) * x ** (top - r) for r in range(top + 1)]
            conv = series if conv is None else [sum(map(mul, conv[:r + 1], reversed(series[:r + 1])))
                                                for r in range(top + 1)]
    return conv or [1] + [0] * top, g


def _antiderivative_row(s: Fraction, t: int, last: int, top: int) -> tuple[list[int], list[int], int]:
    """Integers a_j, b_j and d with ``A_(last-j)(t) / j! = (a_j phi(t) +
    b_j) / d`` for j = 0..top (an all-zero list is empty), A_n the n-fold
    antiderivatives of t ** s with A_n' = A_(n-1):
    ``A_n = t ** (s+n) / ((s+1) ... (s+n))``, so phi(t) = t ** s and b = 0
    for a non-integer s and a = 0 for an integer s, except for s = -k < 0
    and n >= k: there ``A_n = c t ** q (log t - H_q)``, q = n - k,
    c = (-1) ** (k-1) / ((k-1)! q!), H_q the q-th harmonic number and
    phi(t) = log t (it differs from an antiderivative of A_(n-1) by a
    polynomial of degree below n, which no n-th divided difference sees).
    `SingularIntegrandError` where one is singular or, for a non-integer
    s, t is negative."""
    p, q = s.numerator, s.denominator
    low = p + (last - top) * q  # q times the least exponent s + n read
    if t < 0 and (q != 1 or last >= -p > 0) or t == 0 and (low < 0 or low == 0 > p):
        raise SingularIntegrandError(f"t ** {s} at the node {t}")
    if q != 1:  # (q t) ** n / P_n over P_last top!, P_n = prod_(i <= n) (p + i q)
        poch = list(accumulate((p + i * q for i in range(1, last + 1)), mul, initial=1))
        return ([(q * t) ** (last - j) * (poch[last] // poch[last - j]) * (factorial(top) // factorial(j))
                 for j in range(top + 1)] if t else [], [], poch[last] * factorial(top))
    pairs = []
    for j, n in enumerate(range(last, last - top - 1, -1)):
        if n >= -p > 0:
            c = Fraction((-1) ** (-p - 1), factorial(-p - 1) * factorial(p + n) * factorial(j)) * t ** (p + n)
            pairs.append((c, -c * sum(Fraction(1, i) for i in range(1, p + n + 1))))
        else:
            pairs.append((0, Fraction(t) ** (p + n) / (prod(range(p + 1, p + n + 1)) * factorial(j))))
    d = lcm(*(Fraction(x).denominator for pair in pairs for x in pair))
    alpha, beta = ([int(pair[i] * d) for pair in pairs] for i in (0, 1))
    return alpha if any(alpha) else [], beta if any(beta) else [], d


@dataclass(frozen=True)
class Enclosure:
    """The closed interval [lo / den, hi / den], integers lo <= hi, den > 0."""

    lo: int
    hi: int
    den: int

    @property
    def mid(self) -> float:  # the nearest float
        return (self.lo + self.hi) / (2 * self.den)

    @property
    def half_width(self) -> float:  # a float upper bound
        return _float_above(self.hi - self.lo, 2 * self.den)

    def __truediv__(self, c: "Fraction | Enclosure") -> "Enclosure":
        """The quotient by a positive rational, or by an enclosure with
        c.lo > 0: each end over the end of c that moves it outward."""
        if isinstance(c, Fraction):
            return Enclosure(self.lo * c.denominator, self.hi * c.denominator, self.den * c.numerator)
        low = c.hi if self.lo >= 0 else c.lo  # divides the lower end
        high = c.lo if self.hi >= 0 else c.hi
        return Enclosure(self.lo * c.den * high, self.hi * c.den * low, self.den * low * high)

    def float_with_error(self) -> tuple[float, float]:
        """`mid` and an upper bound on its distance from the interval's points."""
        value = self.mid
        n, d = value.as_integer_ratio()
        return value, _float_above(max(self.hi * d - n * self.den, n * self.den - self.lo * d), self.den * d)


def _float_above(n: int, d: int) -> float:
    """The least float at or above n / d, for d > 0."""
    x = n / d
    a, b = x.as_integer_ratio()
    return x if a * d >= n * b else math.nextafter(x, math.inf)


@dataclass(frozen=True)
class PowerIntegral:
    """``(constant + sum_v c_v phi(v / scale)) / den``, all integers and
    v > 0 (``terms`` holds the pairs (c_v, v)), phi(t) = t ** s for a
    non-integer s and log t for an integer s."""

    s: Fraction
    den: int
    constant: int
    scale: int
    terms: tuple[tuple[int, int], ...]

    def enclosure(self, prec: int) -> Enclosure:
        """A rigorous enclosure: phi enclosed at each node with ``prec`` bits
        of working precision, by mpmath's directed rounding (imported on
        first use), and summed exactly."""
        from mpmath.libmp import from_rational, mpf_log, round_ceiling, round_floor
        from mpmath.libmp.libmpi import mpi_exp, mpi_mul

        s = self.s
        s_iv = [from_rational(s.numerator, s.denominator, prec, rnd) for rnd in (round_floor, round_ceiling)]
        ends: list[list[tuple[int, int]]] = [[(self.constant, 0)], [(self.constant, 0)]]
        for c, v in self.terms:
            phi = [mpf_log(from_rational(v, self.scale, prec, rnd), prec, rnd)
                   for rnd in (round_floor, round_ceiling)]
            if s.denominator != 1:
                phi = mpi_exp(mpi_mul(s_iv, phi, prec), prec)
            # an mpf (sign, m, e, bits) is (-1) ** sign m 2 ** e
            for side, (sign, m, e, _) in zip(ends, phi if c > 0 else phi[::-1]):
                side.append(((-1) ** sign * m * c, e))
        low = min(0, *(e for side in ends for _, e in side))
        return Enclosure(*(sum(m << (e - low) for m, e in side) for side in ends), self.den << -low)
