"""Integration engines over rational polytopes.

Every route shares one triangulation, built once per `VPolytope` and kept
on it (`VPolytope.triangulation`):

* an exact engine for sums of products of affine forms
  ``c * prod_j l_j(x) ** m_j``.  On a simplex with vertices s_0..s_d each
  form is linear in the barycentric coordinates, ``l = sum_i l(s_i) tau_i``;
  the product is expanded in tau and integrated term by term with
  ``int tau^a = |det| * prod a_i! / (d + |a|)!`` (Baldoni, Berline,
  De Loera, Koppe and Vergne, "How to integrate a polynomial over a
  simplex", Math. Comp. 80, 2011).  Densities, weights, powers of
  (<x, v> + l(v)) and coordinates are all such products, and a general
  `Polynomial` enters monomial by monomial.  The tau-expansion of a
  weighted density is kept per polytope, so each further factor only
  multiplies into it.  Its integral times (<x, w> + c) ** p, p an integer,
  is a form F_p of degree p in (w, c) with integer coefficients, built
  once per expansion and p (`Expansion.power_integral`);
* closed forms for such an expansion times ``l(x) ** s`` with one affine
  form l and a rational exponent s, by the generalized Hermite-Genocchi
  identity ``int tau^a F^(d+|a|)(sum tau_i t_i) = a! F[t_i repeated a_i + 1
  times]``, t_i = l(s_i) (de Boor, "Divided differences", Surv. Approx.
  Theory 1, 2005).  `Expansion.integral_power` writes it exactly as
  ``sum_t R_t t ** s`` over the distinct values t (``log t`` and a
  rational for an integer s), and only those few powers are enclosed, to
  a rising precision (non-integer moments S_p and weights that are such
  a power; module `powers`, loaded on first use); for s = -k with k > d
  + |a| the divided difference is a positive sum of reciprocal powers,
  which `Expansion.integral_inverse_power` evaluates in floats (the Reeb
  functional, whose P = 1 case is the volume function of Martelli, Sparks
  and Yau, Comm. Math. Phys. 280, 2008);
* an adaptive cubature of float integrands (`integrate_numeric`), with
  embedded Grundmann-Moller rules of degrees 7 and 9, whose error bound
  is an estimate; no answer uses it.  It is the tests' float reference,
  kept in this module because the benchmark's tracer binds it here.

A weight g of the projected coordinates enters the integrals in one
place, `weighted_density`, which checks it once per polytope, density,
weight and projection, before anything is kept: g reads one coordinate
per projection row (`WeightFn.check_dimension`), the density and g are
positive at the vertices, and an expanded weighted density has a positive
mass; every failure is a ValueError.  It then picks the route by the
weight's methods (`WeightFn`): `products` expands a polynomial or an
affine power with a nonnegative integer exponent for the exact engine,
and a constant to 1, since it cancels in every ratio that it weights; an
affine power with any other exponent is one `power` l ** s of an affine
form, and every integral under it is one closed form (`PowerDensity`).

Lower-dimensional polytopes are integrated in lattice coordinates on their
affine hull (see `geom.lattice_chart`), which is the normalization under
which level-k lattice sums converge to these integrals: the chart simplex
gives the volume factor and the forms are evaluated at the ambient images
of its vertices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, count
from math import comb, factorial, gcd, lcm, prod
from typing import Callable, Sequence

from .geom import (
    AffineForm,
    HPolytope,
    VPolytope,
    Vec,
    dot,
    unit_vec,
    vertex_enum,
)


# Integrands of the exact engine: prod form ** multiplicity, and
# coefficient * prod form ** multiplicity.
Factors = tuple[tuple[AffineForm, int], ...]
Product = tuple[Fraction, Factors]
_UNIT_PRODUCTS: tuple[Product, ...] = ((Fraction(1), ()),)


class IntegrationError(Exception):
    pass


class SingularIntegrandError(IntegrationError):
    pass


class ZeroFactorError(IntegrationError):
    pass


# ---------------------------------------------------------------------------
# polynomials with exact rational coefficients


class Polynomial:
    """Multivariate polynomial as {exponent multi-index: Fraction}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.dim = dim
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[tuple(e)] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, dim: int, c) -> "Polynomial":
        return cls(dim, {(0,) * dim: Fraction(c)})

    @classmethod
    def coordinate(cls, dim: int, i: int) -> "Polynomial":
        e = [0] * dim
        e[i] = 1
        return cls(dim, {tuple(e): Fraction(1)})

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.dim, out)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Polynomial(self.dim, out)
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.dim, {e: c * v for e, v in self.terms.items()})

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.dim == other.dim \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.terms.items()))))

    # -- evaluation and substitution -----------------------------------------

    def __call__(self, x: Sequence) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for xi, ei in zip(x, e):
                if ei:
                    t *= Fraction(xi) ** ei
            total += t
        return total

    def compose_affine(self, origin: Vec, columns: Sequence[Vec]) -> "Polynomial":
        """Substitute x = origin + sum_j y_j columns[j]; result in y."""
        r = len(columns)
        subs = []
        for i in range(self.dim):
            terms: dict[tuple[int, ...], Fraction] = {}
            if origin[i] != 0:
                terms[(0,) * r] = origin[i]
            for j in range(r):
                if columns[j][i] != 0:
                    e = [0] * r
                    e[j] = 1
                    terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + columns[j][i]
            subs.append(Polynomial(r, terms))
        powers: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, k: int) -> Polynomial:
            if k == 0:
                return Polynomial.constant(r, 1)
            key = (i, k)
            if key not in powers:
                powers[key] = power(i, k - 1) * subs[i]
            return powers[key]

        out = Polynomial(r, {})
        for e, c in self.terms.items():
            term = Polynomial.constant(r, c)
            for i, ei in enumerate(e):
                if ei:
                    term = term * power(i, ei)
            out = out + term
        return out

    def __repr__(self):
        return f"Polynomial(dim={self.dim}, terms={len(self.terms)})"


# ---------------------------------------------------------------------------
# Duistermaat-Heckman densities and weight functions


@dataclass(frozen=True)
class DHFactor:
    """One affine factor of a DH density with its multiplicity.

    ``rho_pair`` is the pairing of the Weyl vector with the factor's coroot;
    it makes discrete dimension counts computable (see spherical.level_sum)
    and is None for raw user-supplied densities.
    """

    form: AffineForm
    multiplicity: int = 1
    rho_pair: Fraction | None = None


@dataclass(frozen=True)
class DHDensity:
    """Product of positive affine forms over the section polytope."""

    dim: int
    factors: tuple[DHFactor, ...] = ()
    normalization: Fraction = Fraction(1)

    def __post_init__(self):
        for f in self.factors:
            if f.multiplicity < 1:
                raise ValueError("factor multiplicities must be positive")

    def __hash__(self):  # computed once: densities key the integrals' memo
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.factors, self.normalization))

    @property
    def degree(self) -> int:
        return sum(f.multiplicity for f in self.factors)

    @property
    def supports_dimension_counts(self) -> bool:
        return all(f.rho_pair is not None for f in self.factors)

    def __call__(self, x: Vec) -> Fraction:
        total = Fraction(1) / self.normalization
        for f in self.factors:
            total *= f.form(x) ** f.multiplicity
        return total

    def translated(self, t: Vec) -> "DHDensity":
        """Density for the polytope translated by +t (same values pointwise:
        new(x) = old(x - t))."""
        return DHDensity(
            self.dim,
            tuple(DHFactor(f.form.translated(t), f.multiplicity, f.rho_pair)
                  for f in self.factors),
            self.normalization,
        )

    def check_positive_on(self, vertices: Sequence[Vec]):
        """Nonnegative at every vertex and not identically zero per factor."""
        for f in self.factors:
            values = [f.form(v) for v in vertices]
            if any(v < 0 for v in values):
                raise ValueError("density factor negative at a polytope vertex")
            if all(v == 0 for v in values):
                raise ZeroFactorError("density factor vanishes on the polytope")


class WeightFn:
    """Weight function g of the projected coordinates xbar = proj . x, one
    per row of the input's projection.

    Every decision about a weight is one of its methods: whether it is
    constant, whether it reads one coordinate per projection row
    (`check_dimension`), its exact expansion (`products`), and its
    positivity on a polytope.  A weight that does not expand (`products`
    is None) is an affine power, whose `power` gives its base and exact
    exponent.  `weighted_density` runs the checks and picks the route."""

    # number of projected coordinates g reads; None for a constant
    dim: int | None = None

    def __hash__(self):  # computed once: weights key the inputs' per-weight entries
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((type(self), *(getattr(self, f.name) for f in fields(self))))

    def constant_value(self) -> Fraction | float | None:
        """The constant value of g if it is constant, else None."""
        return None

    def check_dimension(self, projection: Sequence[Vec]):
        """ValueError unless g reads one coordinate per projection row: a
        polynomial's ``dim`` and an affine power's ``xi`` have that length."""
        if self.dim is not None and self.dim != len(projection):
            raise ValueError(
                f"the weight has dimension {self.dim}, but the projection "
                f"has {len(projection)} rows (one weight coordinate per row)")

    def products(self, projection: Sequence[Vec], ambient_dim: int) -> list[Product] | None:
        """g(proj . x) as a sum of products of affine forms in ambient x, or
        None if g is not a polynomial.  ``projection`` is given by rows.

        A constant g cancels in every ratio of integrals it weights, so it
        expands to 1, exactly even when the constant is irrational."""
        if self.constant_value() is not None:
            return _UNIT_PRODUCTS
        return self._expand(projection, ambient_dim)

    def _expand(self, projection: Sequence[Vec], ambient_dim: int) -> list[Product] | None:
        return None

    def check_positive(self, projected_vertices: Sequence[Vec]):
        """ValueError unless g is strictly positive at the projected
        vertices of a polytope (for an affine power: its base)."""
        const = self.constant_value()
        if const is not None:
            if not const > 0:
                raise ValueError("weight function must be strictly positive")
            return
        self._check_positive(projected_vertices)

    def _check_positive(self, projected_vertices: Sequence[Vec]):
        pass


@dataclass(frozen=True)
class ConstantWeight(WeightFn):
    value: Fraction | float = Fraction(1)
    __hash__ = WeightFn.__hash__

    def constant_value(self) -> Fraction | float:
        return self.value


UNIT_WEIGHT = ConstantWeight(Fraction(1))


@dataclass(frozen=True)
class PolynomialWeight(WeightFn):
    poly: Polynomial
    __hash__ = WeightFn.__hash__

    @property
    def dim(self) -> int:
        return self.poly.dim

    def constant_value(self) -> Fraction | None:
        if self.poly.degree == 0:
            return self.poly.terms.get((0,) * self.poly.dim, Fraction(0))
        return None

    def _expand(self, projection: Sequence[Vec], ambient_dim: int) -> list[Product]:
        rows = [AffineForm(tuple(row), Fraction(0)) for row in projection]
        return [(c, tuple((rows[i], k) for i, k in enumerate(e) if k))
                for e, c in self.poly.terms.items()]

    def _check_positive(self, projected_vertices: Sequence[Vec]):
        for v in projected_vertices:
            if not self.poly(v) > 0:
                raise ValueError("polynomial weight not positive at a vertex")


@dataclass(frozen=True)
class AffinePowerWeight(WeightFn):
    """g(xbar) = (<xi, xbar> + a) ** exponent."""

    xi: Vec
    a: Fraction
    exponent: float | int | Fraction
    __hash__ = WeightFn.__hash__

    def __eq__(self, other):
        # the exponents 2 and 2.0 are equal numbers, but only the first
        # expands: they are different weights and key different entries
        return (type(other) is AffinePowerWeight
                and (self.xi, self.a, self.exponent) == (other.xi, other.a, other.exponent)
                and (self._integer_exponent is None) == (other._integer_exponent is None))

    @property
    def dim(self) -> int:
        return len(self.xi)

    @property
    def _integer_exponent(self) -> int | None:
        e = self.exponent
        if isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1):
            return int(e)
        return None

    def constant_value(self) -> Fraction | float | None:
        if self.exponent == 0:
            return Fraction(1)
        if any(c != 0 for c in self.xi):
            return None
        if self._integer_exponent is not None:
            return Fraction(self.a) ** self._integer_exponent
        return float(self.a) ** float(self.exponent)

    def _projected(self, projection: Sequence[Vec], ambient_dim: int) -> AffineForm:
        normal = tuple(
            sum((self.xi[i] * projection[i][j] for i in range(len(projection))), Fraction(0))
            for j in range(ambient_dim))
        return AffineForm(normal, Fraction(self.a))

    def _expand(self, projection: Sequence[Vec], ambient_dim: int) -> list[Product] | None:
        k = self._integer_exponent
        if k is None or k < 0:
            return None
        return [(Fraction(1), ((self._projected(projection, ambient_dim), k),))]

    def power(self, projection: Sequence[Vec], ambient_dim: int) -> tuple[AffineForm, Fraction]:
        """g(proj . x) as l(x) ** s, l in ambient x and s exact (a float's
        dyadic value), for a non-integer or negative exponent."""
        return self._projected(projection, ambient_dim), Fraction(self.exponent)

    def _check_positive(self, projected_vertices: Sequence[Vec]):
        for v in projected_vertices:
            if not dot(self.xi, v) + self.a > 0:
                raise ValueError("affine-power weight base not positive on polytope")


def eval_products(products: Sequence[Product], x: Vec) -> Fraction:
    """Exact value at x of a sum of products of affine forms."""
    total = Fraction(0)
    for c, factors in products:
        for form, k in factors:
            c *= form(x) ** k
        total += c
    return total


# ---------------------------------------------------------------------------
# exact integration: products of affine forms in barycentric coordinates


class TauPoly:
    """``scale * sum_a n_a tau^a`` in the barycentric coordinates
    tau_0..tau_d of a simplex, with integer n_a."""

    __slots__ = ("scale", "terms")

    def __init__(self, scale: Fraction, terms: dict[tuple[int, ...], int]):
        self.scale = scale
        self.terms = terms

    def times(self, values: Sequence[Fraction], mult: int = 1) -> "TauPoly":
        """Product with ``(sum_i values[i] tau_i) ** mult``: the affine form
        whose values at the simplex vertices are ``values``."""
        den = lcm(*(v.denominator for v in values))
        coeffs = [(i, v.numerator * (den // v.denominator))
                  for i, v in enumerate(values) if v]
        terms = self.terms
        for _ in range(mult):
            out: dict[tuple[int, ...], int] = {}
            for a, n in terms.items():
                for i, c in coeffs:
                    b = a[:i] + (a[i] + 1,) + a[i + 1:]
                    out[b] = out.get(b, 0) + n * c
            terms = out
        return TauPoly(self.scale / den ** mult, terms)

    def __add__(self, other: "TauPoly") -> "TauPoly":
        s, t = self.scale, other.scale
        common = Fraction(gcd(s.numerator, t.numerator), lcm(s.denominator, t.denominator))
        if common == 0:
            return self
        out = {a: n * int(s / common) for a, n in self.terms.items()}
        k = int(t / common)
        for a, n in other.terms.items():
            out[a] = out.get(a, 0) + n * k
        return TauPoly(common, out)

    def integral(self) -> Fraction:
        """Integral over the standard simplex, ``tau^a -> a! / (d + |a|)!``."""
        by_degree: dict[int, int] = {}
        for a, n in self.terms.items():
            for k in a:
                if k > 1:
                    n *= factorial(k)
            deg = sum(a)
            by_degree[deg] = by_degree.get(deg, 0) + n
        if not by_degree:
            return Fraction(0)
        d = len(next(iter(self.terms))) - 1
        return self.scale * sum(Fraction(n, factorial(d + deg))
                                for deg, n in by_degree.items())


def expand_products(products: Sequence[Product], vertices: Sequence[Vec]) -> TauPoly:
    """A sum of products of affine forms on the simplex with these (ambient)
    vertices, expanded in its barycentric coordinates."""
    d = len(vertices) - 1
    total = TauPoly(Fraction(0), {})
    for c, factors in products:
        term = TauPoly(Fraction(c), {(0,) * (d + 1): 1})
        for form, k in factors:
            term = term.times([form(v) for v in vertices], k)
        total = total + term
    return total


class Expansion:
    """A sum of products of affine forms expanded on every simplex of a
    polytope's triangulation, so that further factors multiply into the
    stored expansions."""

    def __init__(self, vp: VPolytope, products: Sequence[Product]):
        chart = vp.chart
        self.dim = vp.dim
        self.vertices = vp.vertices
        # simplex vertices as indices into the polytope's (ambient) vertices
        index = {x if chart.is_identity else chart.to_chart(x): i
                 for i, x in enumerate(vp.vertices)}
        self.parts: list[tuple[list[int], Fraction, TauPoly]] = []
        for s in vp.triangulation:
            idx = [index[t] for t in s.vertices]
            tau = expand_products(products, [vp.vertices[i] for i in idx])
            self.parts.append((idx, s.volume_factor, tau))
        self._power_forms: dict[int, tuple[Fraction, list[tuple[int, tuple[int, ...]]]]] = {}
        self._mean_forms: dict[int, tuple[Fraction, list[tuple[int, tuple[int, ...]]]]] = {}

    def _parts(self, factors: Sequence[tuple[Sequence[Fraction], int]]):
        """The parts times the factors of `integral`."""
        for idx, volume, part in self.parts:
            for values, k in factors:
                part = part.times([values[i] for i in idx], k)
            yield idx, volume, part

    def integral(self, factors: Sequence[tuple[Sequence[Fraction], int]] = ()) -> Fraction:
        """Integral of the expanded sum times ``prod l ** multiplicity``,
        each affine form l given by its values at `vertices`, in that
        order."""
        return sum((volume * part.integral() for _, volume, part in self._parts(factors)), Fraction(0))

    def power_integral(self, w: Sequence[Fraction | int], c: Fraction | int, p: int) -> Fraction:
        """``F_p(w, c)``, the integral of the expanded sum times ``(<x, w> +
        c) ** p`` for an integer p >= 0 and rational or integer w and c: the
        form that `_power_form` builds once per p, at (w, c) scaled to integers."""
        return _form_at(self._form(p), w, c, p)

    def power_mean(self, w: Sequence[Fraction | int], c: Fraction | int, p: int) -> Fraction:
        """``F_p(w, c) / mass``: `power_integral` with 1 / mass folded into
        the scale of the form once per p."""
        form = self._mean_forms.get(p)
        if form is None:
            scale, terms = self._form(p)
            form = self._mean_forms[p] = (scale / self.mass, terms)
        return _form_at(form, w, c, p)

    def _form(self, p: int) -> tuple[Fraction, list[tuple[int, tuple[int, ...]]]]:
        form = self._power_forms.get(p)
        if form is None:
            form = self._power_forms[p] = self._power_form(p)
        return form

    def _power_form(self, p: int) -> tuple[Fraction, list[tuple[int, tuple[int, ...]]]]:
        """``(scale, [(coefficient, key), ...])`` with integer coefficients:
        F_p(w, c) is scale times the sum of coefficient * prod_(j in key)
        y_j, y = (w_1, ..., w_n, c).

        On a simplex, ``int tau^a (sum_i c_i tau_i) ** p = a! p! / (d+|a|+p)!
        * sum_(|b| = p) prod_i C(a_i + b_i, b_i) c_i ** b_i``; every term is
        brought to the denominator ``(d + maxdeg + p)!`` and every simplex's
        volume * scale to one common denominator.  Into each simplex's sum
        the vertex values c_i = (<q x_i, w> + q c) / q are substituted by
        Horner's scheme, q the vertices' common denominator, a monomial y^e
        packed as sum_j e_j (p + 1) ** j."""
        d = len(self.parts[0][0]) - 1
        maxdeg = max((sum(a) for _, _, part in self.parts for a in part.terms), default=0)
        top = factorial(d + maxdeg + p)
        raise_to_top = [top // factorial(d + deg + p) for deg in range(maxdeg + 1)]
        binom = [[comb(k + j, j) for j in range(p + 1)] for k in range(maxdeg + 1)]
        compositions = list(_compositions(p, d + 1))
        nonzero = [tuple((i, j) for i, j in enumerate(b) if j) for b in compositions]
        slots = [tuple(chain.from_iterable([i] * k for i, k in enumerate(b))) for b in compositions]
        scales = [volume * part.scale for _, volume, part in self.parts]
        den = lcm(*(w.denominator for w in scales))
        q = lcm(*(x.denominator for v in self.vertices for x in v))
        digits = [(p + 1) ** j for j in range(self.dim + 1)]
        linear = [[(b, x.numerator * (q // x.denominator)) for b, x in zip(digits, (*v, 1)) if x]
                  for v in self.vertices]
        coeffs: dict[int, int] = {}
        for (idx, _, part), w in zip(self.parts, scales):
            sums = [0] * len(compositions)
            for a, n in part.terms.items():
                n *= prod(factorial(k) for k in a) * raise_to_top[sum(a)]
                for j, nz in enumerate(nonzero):
                    t = n
                    for i, k in nz:
                        t *= binom[a[i]][k]
                    sums[j] += t
            m = w.numerator * (den // w.denominator)
            # the slots of the leading factors -> the form in y of the others
            level = {key: {0: m * s} for key, s in zip(slots, sums) if s}
            for _ in range(p):
                outer: dict[tuple[int, ...], dict[int, int]] = {}
                for key, form in level.items():
                    acc = outer.setdefault(key[:-1], {})
                    for step, c in linear[idx[key[-1]]]:
                        for e, t in form.items():
                            acc[e + step] = acc.get(e + step, 0) + t * c
                level = outer
            for e, t in level.get((), {}).items():
                coeffs[e] = coeffs.get(e, 0) + t
        common = gcd(*coeffs.values())
        if common == 0:
            return Fraction(0), []
        return (Fraction(factorial(p) * common, den * top * q ** p),
                [(t // common, tuple(j for j, b in enumerate(digits) for _ in range(e // b % (p + 1))))
                 for e, t in coeffs.items() if t])

    def integral_power(self, values: Sequence[Fraction], s,
                       factors: Sequence[tuple[Sequence[Fraction], int]] = ()) -> "PowerIntegral":
        """The integral of the expanded sum times ``l(x) ** s`` (and the
        factors of `integral`) for a rational exponent s and an affine form
        l given by its ``values`` at `vertices`, in that order, as a
        `powers.PowerIntegral`: exact rational coefficients of phi(t) = t **
        s (log t for an integer s) at the distinct values t, and a rational
        constant, which `PowerIntegral.enclosure` encloses at a given
        precision.  Raises `SingularIntegrandError` where a node makes the
        integrand singular or, for non-integer s, negative."""
        from .powers import integral_power

        return integral_power(self._parts(factors), values, s)

    @cached_property
    def _float_terms(self) -> list[tuple[list[int], list[tuple[float, tuple[int, ...], int]]]]:
        """Per simplex: its vertex indices, and per term tau^a the float of
        volume * scale * n_a * a!, the node multiplicities a_i + 1 and
        r = d + |a|."""
        out = []
        for idx, volume, part in self.parts:
            d = len(idx) - 1
            out.append((idx, [
                (float(volume * part.scale * n * prod(factorial(k) for k in a)),
                 tuple(k + 1 for k in a), d + sum(a))
                for a, n in part.terms.items()]))
        return out

    def integral_inverse_power(self, values: Sequence[float], k: int) -> tuple[float, float]:
        """Integral of the expanded sum times ``l(x) ** -k``, for an affine
        form l given by its float ``values`` at the polytope's vertices,
        all positive, and k > d + |a| for every term tau^a; returned with a
        first-order bound on its rounding error.

        There the divided difference is, with y_i = 1 / t_i over the
        repeated nodes, ``(k-r-1)! / (k-1)! * prod y_i * h_(k-r-1)(y)``,
        h the complete homogeneous symmetric polynomial: every term has the
        sign of its coefficient, and each is made of products and sums of
        positive floats, with a relative rounding error below (k + 2)^2
        units of 2^-53 to first order; the sum adds one unit per term."""
        total = magnitude = 0.0
        count = 0
        for idx, terms in self._float_terms:
            y = [1.0 / values[i] for i in idx]
            for coef, mults, r in terms:
                q = k - r - 1
                if q < 0:
                    raise IntegrationError(
                        f"l ** -{k} against a degree-{r} term has no reciprocal-power form")
                phi = prod(yi ** mu for yi, mu in zip(y, mults))
                if q:
                    phi *= _complete_homogeneous(y, mults, q) * (factorial(q) / factorial(k - 1))
                else:
                    phi /= factorial(k - 1)
                term = coef * phi
                total += term
                magnitude += abs(term)
                count += 1
        return total, ((k + 2) ** 2 + count) * 2.0 ** -53 * magnitude

    @cached_property
    def mass(self) -> Fraction:
        return self.integral()

    @cached_property
    def moments(self) -> "DHMoments":
        moment = tuple(self.integral((([x[i] for x in self.vertices], 1),))
                       for i in range(self.dim))
        return DHMoments(mass=self.mass, first_moment=moment, exact=True)


def _form_at(form: tuple[Fraction, list[tuple[int, tuple[int, ...]]]],
             w: Sequence[Fraction | int], c: Fraction | int, p: int) -> Fraction:
    """The value at (w, c) of a form of degree p from `Expansion._power_form`."""
    scale, terms = form
    den = lcm(c.denominator, *(x.denominator for x in w))
    y = [x.numerator * (den // x.denominator) for x in (*w, c)]
    total = sum(k * prod(map(y.__getitem__, key)) for k, key in terms)
    return Fraction(total * scale.numerator, scale.denominator * den ** p)


def _complete_homogeneous(y: Sequence[float], mults: Sequence[int], q: int) -> float:
    """h_q of the variables y_i, each repeated mults[i] times."""
    h = [1.0] + [0.0] * q
    for yi, mu in zip(y, mults):
        for _ in range(mu):
            for j in range(1, q + 1):
                h[j] += yi * h[j - 1]
    return h[q]


PRECISIONS = (64, 128, 256, 512, 1024, 2048, 4096)

# the half-width an enclosure is accepted at, relative to max(1, |mid|): a
# non-integer moment under an exact weight, and every ratio of integrals
# under a weight that does not expand, read to a unit of the float reported
ENCLOSURE_RTOL = 1e-12
POWER_RTOL = 2.0 ** -53


def enclose(evaluate: Callable[[int], object], accept: Callable[[object], bool]):
    """``evaluate(prec)`` for the working precisions in `PRECISIONS` until
    `accept` takes its result; `IntegrationError` if none is accepted."""
    for prec in PRECISIONS:
        x = evaluate(prec)
        if accept(x):
            return x
    raise IntegrationError(
        f"no enclosure tight enough at {PRECISIONS[-1]} bits of working precision")


def tight(x: "Enclosure", rtol: float = ENCLOSURE_RTOL) -> bool:
    """Whether an enclosure's half-width is at most rtol * max(1, |mid|)."""
    return x.half_width <= rtol * max(1.0, abs(x.mid))


def _coordinate_form(i: int, n: int) -> AffineForm:
    return AffineForm(unit_vec(i, n), Fraction(0))


def _monomial_products(f: Polynomial) -> list[Product]:
    return [(c, tuple((_coordinate_form(i, f.dim), k) for i, k in enumerate(e) if k))
            for e, c in f.terms.items()]


def _as_vpolytope(p) -> VPolytope:
    if isinstance(p, VPolytope):
        return p
    if isinstance(p, HPolytope):
        return vertex_enum(p)
    raise TypeError("expected HPolytope or VPolytope")


def integrate_poly(p, f: Polynomial) -> Fraction:
    """Exact integral of a polynomial over a rational polytope.

    Lower-dimensional polytopes are integrated against the lattice measure of
    their affine hull; a 0-dimensional polytope integrates to f(point).
    """
    return Expansion(_as_vpolytope(p), _monomial_products(f)).integral()


def density_expansion(vp: VPolytope, dh: DHDensity, weight: Sequence[Product]) -> Expansion:
    """The expansion of weight(x) * dh(x) over a polytope; built on first use
    and kept in the polytope's memo."""
    key = ("density", dh, tuple(weight))
    expansion = vp.memo.get(key)
    if expansion is None:
        dh_factors = tuple((f.form, f.multiplicity) for f in dh.factors)
        expansion = vp.memo[key] = Expansion(vp, [(c / dh.normalization, factors + dh_factors)
                                                  for c, factors in weight])
    return expansion


class PowerDensity:
    """g(xbar) dh(x) over a polytope for a weight that does not expand,
    g(proj . x) = l(x) ** s (`AffinePowerWeight.power`): the expansion of
    dh, the values of l at the polytope's vertices and s.  Every integral
    under g is one `Expansion.integral_power`, and every ratio of two is
    enclosed until it is tight to `POWER_RTOL`."""

    def __init__(self, expansion: Expansion, values: tuple[Fraction, ...], s: Fraction):
        self.expansion, self.values, self.s = expansion, values, s

    def integral(self, factors: Sequence[tuple[Sequence[Fraction], int]] = ()) -> "PowerIntegral":
        """int g dh times the factors of `Expansion.integral`, exactly."""
        return self.expansion.integral_power(self.values, self.s, factors)

    @cached_property
    def mass(self) -> "PowerIntegral":
        return self.integral()

    def _enclosed(self, totals: Sequence["PowerIntegral"]) -> tuple["Enclosure", list["Enclosure"]]:
        """The mass and the totals enclosed at one precision, at which each
        total over the mass is tight."""
        def evaluate(prec: int):
            return self.mass.enclosure(prec), [t.enclosure(prec) for t in totals]

        return enclose(evaluate, lambda e: e[0].lo > 0 and all(tight(t / e[0], POWER_RTOL) for t in e[1]))

    def mean(self, factors: Sequence[tuple[Sequence[Fraction], int]]) -> "Enclosure":
        """An enclosure of `integral` (factors) over the mass."""
        mass, (total,) = self._enclosed([self.integral(factors)])
        return total / mass

    @cached_property
    def moments(self) -> "DHMoments":
        vertices = self.expansion.vertices
        mass, moment = self._enclosed([self.integral((([x[i] for x in vertices], 1),))
                                       for i in range(self.expansion.dim)])
        return DHMoments(mass, tuple(moment), exact=False)


def weighted_density(vp: VPolytope, dh: DHDensity, g: WeightFn | None,
                     projection: Sequence[Vec]) -> Expansion | PowerDensity:
    """g(xbar) * dh(x) over a polytope (g None is the unit weight): the
    expansion of a weight that expands, else the `PowerDensity` of its
    power.  Every integral under a weight goes through here, and so do its
    checks, each run once per key before anything is kept: g reads one
    coordinate per projection row, dh and g are positive at the vertices,
    and an expansion has a positive mass; each failure is a ValueError
    (`ZeroFactorError` for a density factor vanishing on the polytope)
    and is not kept, so every call raises it again."""
    g = g or UNIT_WEIGHT
    key = ("weighted", dh, g, tuple(projection))
    density = vp.memo.get(key)
    if density is None:
        g.check_dimension(projection)
        dh.check_positive_on(vp.vertices)
        g.check_positive([tuple(dot(row, v) for row in projection) for v in vp.vertices])
        weight = g.products(projection, vp.dim)
        if weight is None:
            base, s = g.power(projection, vp.dim)
            density = PowerDensity(density_expansion(vp, dh, _UNIT_PRODUCTS),
                                   tuple(base(x) for x in vp.vertices), s)
        else:
            density = density_expansion(vp, dh, weight)
            if density.mass <= 0:
                raise ValueError("nonpositive mass: density/weight not positive on polytope")
        vp.memo[key] = density
    return density


# ---------------------------------------------------------------------------
# Grundmann-Moller adaptive cubature, the one part that needs numpy (a test extra)


@dataclass(frozen=True)
class Quadrature:
    value: float | np.ndarray
    error_bound: float
    subdivisions: int
    converged: bool = True


def _gm_rule(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric nodes and weights of the degree-(2s+1) rule on the
    standard n-simplex; weights sum to 1/n!."""
    import numpy as np

    d = 2 * s + 1
    pts: list[tuple[Fraction, ...]] = []
    wts: list[Fraction] = []
    for i in range(s + 1):
        w = (Fraction(-1) ** i) * Fraction((d + n - 2 * i) ** d,
                                           4 ** s * factorial(i) * factorial(d + n - i))
        for beta in _compositions(s - i, n + 1):
            pts.append(tuple(Fraction(2 * b + 1, d + n - 2 * i) for b in beta))
            wts.append(w)
    nodes = np.array([[float(c) for c in p] for p in pts])
    weights = np.array([float(w) for w in wts])
    return nodes, weights


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


_GM_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _gm_rules(n: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The embedded rules of degrees 7 and 9 on the standard n-simplex,
    each built on first use."""
    for s in (3, 4):
        if (n, s) not in _GM_CACHE:
            _GM_CACHE[(n, s)] = _gm_rule(n, s)
    return _GM_CACHE[(n, 3)], _GM_CACHE[(n, 4)]


@dataclass(frozen=True)
class _NumSimplex:
    verts: np.ndarray        # (n+1, n) chart coordinates
    detabs: float
    value: np.ndarray        # high-order estimate
    error: float


MAX_SUBDIVISIONS = 100_000


def integrate_numeric(p, f: Callable[[np.ndarray], np.ndarray], tol: float,
                      max_subdivisions: int = MAX_SUBDIVISIONS) -> Quadrature:
    """Adaptive cubature of a smooth integrand over a rational polytope.

    ``f`` maps an (k, ambient_dim) float array to shape (k,) or (k, m);
    the result value follows that shape.  The reported error bound is the
    summed embedded-rule discrepancy, an estimate rather than an
    enclosure, held at or below ``tol`` unless the
    subdivision budget runs out (then ``converged`` is False and the best
    estimate is returned).
    """
    import numpy as np

    vp = _as_vpolytope(p)
    chart = vp.chart
    n = chart.dim
    if n == 0:
        val = np.asarray(f(np.array([[float(c) for c in chart.origin]])))[0]
        return Quadrature(value=val if val.shape else float(val),
                          error_bound=0.0, subdivisions=0)
    origin = np.array([float(c) for c in chart.origin])
    basis = np.array([[float(chart.basis[j][i]) for j in range(n)]
                      for i in range(len(chart.origin))])  # ambient x chart

    (nodes_lo, w_lo), (nodes_hi, w_hi) = _gm_rules(n)

    leaves: dict[int, _NumSimplex] = {}
    heap: list[tuple[float, int]] = []
    indices = count()

    def add(verts, detabs: float) -> float:
        """Keep the simplex with these chart vertices as a leaf, with its
        two estimates; returns its error."""
        vals_hi = np.asarray(f(nodes_hi @ verts @ basis.T + origin), dtype=float)
        vals_lo = np.asarray(f(nodes_lo @ verts @ basis.T + origin), dtype=float)
        if not (np.all(np.isfinite(vals_hi)) and np.all(np.isfinite(vals_lo))):
            raise SingularIntegrandError("integrand not finite at a quadrature node")
        i_hi = detabs * (w_hi @ vals_hi)
        i_lo = detabs * (w_lo @ vals_lo)
        sx = _NumSimplex(verts, detabs, np.atleast_1d(i_hi),
                         float(np.max(np.abs(np.atleast_1d(i_hi - i_lo)))))
        index = next(indices)
        leaves[index] = sx
        heapq.heappush(heap, (-sx.error, index))
        return sx.error

    total_error = 0.0
    for s in vp.triangulation:
        total_error += add(np.array([[float(c) for c in v] for v in s.vertices]),
                           float(s.volume_factor))
    subdivisions = 0
    while not total_error <= tol and subdivisions < max_subdivisions:
        worst = leaves.pop(heapq.heappop(heap)[1])
        total_error -= worst.error
        # bisect the longest edge, the first in lexicographic order if tied
        i, j = max(combinations(range(n + 1), 2),
                   key=lambda e: float(np.sum((worst.verts[e[0]] - worst.verts[e[1]]) ** 2)))
        mid = (worst.verts[i] + worst.verts[j]) / 2.0
        for replaced in (i, j):
            child_verts = worst.verts.copy()
            child_verts[replaced] = mid
            total_error += add(child_verts, worst.detabs / 2.0)
        subdivisions += 1

    ordered = [leaves[k] for k in sorted(leaves)]
    value = np.sum([sx.value for sx in ordered], axis=0)
    error_bound = float(sum(sx.error for sx in ordered))
    converged = error_bound <= tol
    if value.shape == (1,):
        value = float(value[0])
    return Quadrature(value=value, error_bound=error_bound,
                      subdivisions=subdivisions, converged=converged)


# ---------------------------------------------------------------------------
# weighted Duistermaat-Heckman moments


@dataclass(frozen=True)
class DHMoments:
    """mass = int g(xbar) P(x) dx and first_moment = int g(xbar) P(x) x dx,
    as Fractions when exact and as `powers.Enclosure`s otherwise; the
    barycenter follows, by exact or interval division."""

    mass: Fraction | Enclosure
    first_moment: tuple
    exact: bool

    @cached_property
    def barycenter(self) -> tuple:
        return tuple(m / self.mass for m in self.first_moment)


def dh_moments(p, dh: DHDensity, g: WeightFn | None, projection: Sequence[Vec]) -> DHMoments:
    """Weighted mass and first moment over a polytope (g None is the unit
    weight), those of its `weighted_density`, which runs the checks of the
    weight: exact whenever the weight expands to a polynomial, otherwise
    enclosures (`PowerDensity.moments`); kept once computed.  The
    invariants call it once per input and weight and keep its result in
    the input's entry for the weight (`invariants.WeightEntry`)."""
    return weighted_density(_as_vpolytope(p), dh, g, projection).moments
