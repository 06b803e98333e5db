#!/usr/bin/env python3
"""Print the repr of every invariant report for a fixed set of inputs and
weights: a deterministic listing by which two versions of kstab can be
compared bit for bit.

    PYTHONPATH=src python3 scripts/report_listing.py | sha256sum

The inputs are the builtins and documents from the benchmark's generator
(`perfbench/gen.py`, plain Python): the wonderful compactifications of
types A2, B2, G2 and A3, four seeded polygons and a seeded threefold, each
parsed with `kstab.parse_input_document`.  On each input, in this order:
alpha, then per weight (none, a polynomial, affine powers with exponents
1/2 and 2, and a constant) delta at p = 1, 2, 3 and 3/2 (refused under
the exponent 1/2 unless the input has no projection, which makes every
weight constant), the barycenter, the Ding check, delta_g and beta along
each candidate ray.  All calls on one input share it, so later calls read
what earlier ones kept.  After every input, the level-k sums
(`SphericalInput.level_sum`) along each one's first candidate ray at k = 1
and 2 and p = 1 and 3/2, for every input whose density gives dimension
counts.  A call that raises prints the type and message of its error.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)

import kstab  # noqa: E402


def _documents() -> list[tuple[str, dict]]:
    docs = [(name, kstab.builtin_document(name)) for name in kstab.BUILTIN_NAMES]
    docs += [(f"gen-wonderful-{letter.lower()}{rank}", gen.wonderful_document(letter, rank))
             for letter, rank in (("A", 2), ("B", 2), ("G", 2), ("A", 3))]
    rng = random.Random(5)
    for n in (4, 5, 6, 7):
        docs.append((f"polygon-{n}v", gen.toric_polygon_document(rng, n)[0]))
    docs.append(("polytope3d-2cut", gen.toric_3_polytope_document(rng, 2)[0]))
    return docs


def _weights(si) -> dict:
    """The weights of the listing for the input's projection: the base of
    each affine power is at least 1 on the section polytope."""
    dim = len(si.projection)
    terms = {(0,) * dim: Fraction(2)}
    if dim:
        terms[(2,) + (0,) * (dim - 1)] = Fraction(1)
    xi = tuple(Fraction(1, 5) if i == 0 else Fraction(0) for i in range(dim))
    low = min((sum(c * x for c, x in zip(si.projection[0], v)) / 5
               for v in si.section_polytope.vertices), default=0) if dim else 0
    a = 1 - min(Fraction(low), Fraction(0))
    return {
        "polynomial": kstab.PolynomialWeight(kstab.Polynomial(dim, terms)),
        "affine-1/2": kstab.AffinePowerWeight(xi, a, Fraction(1, 2)),
        "affine-2": kstab.AffinePowerWeight(xi, a, 2),
        "constant": kstab.ConstantWeight(Fraction(3)),
    }


def _show(label: str, call):
    try:
        result = call()
    except Exception as e:  # an error is part of the listing
        result = f"{type(e).__name__}: {e}"
    print(f"{label}: {result!r}")


def main():
    inputs = []
    for name, doc in _documents():
        si, _ = kstab.parse_input_document(doc)
        inputs.append((name, si))
        print(f"# {name}")
        _show("alpha", lambda: kstab.alpha(si))
        for label, g in [("none", None), *_weights(si).items()]:
            print(f"## weight={label}")
            for p in (1, 2, 3, Fraction(3, 2)):
                _show(f"delta p={p}", lambda p=p: kstab.delta_p(si, p, g))
            _show("barycenter", lambda: kstab.barycenter_g(si, g))
            _show("ding", lambda: kstab.ding_check(si, g))
            _show("delta_g", lambda: kstab.delta_g(si, g))
            for ray in si.candidates:
                _show(f"beta {ray}", lambda ray=ray: kstab.beta_g(si, ray, g))
    print("# level sums")
    for name, si in inputs:
        if si.dh.supports_dimension_counts:
            ray = si.candidates[0]
            for k in (1, 2):
                for p in (1, Fraction(3, 2)):
                    _show(f"{name} level_sum {ray} k={k} p={p}",
                          lambda k=k, p=p: si.level_sum(ray, k, p))


if __name__ == "__main__":
    main()
