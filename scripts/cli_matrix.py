#!/usr/bin/env python3
"""Run a fixed matrix of `kstab` commands in-process and print, for each,
its exit code, stdout and stderr: a deterministic listing that two
versions of kstab can be compared by.

    PYTHONPATH=src python3 scripts/cli_matrix.py > listing.txt

The matrix covers the five builtins, each with no ``--g``, a polynomial
and affine powers at exponents 0.5 and 2 (of the builtin's projection
dimension):

* ``compute --invariant delta`` at p = 1, 2, 3 and 1.5 in json, csv and
  text, and ``alpha``, ``barycenter`` and ``beta`` (along the first
  candidate ray);
* ``check`` in json and text, and ``reeb``;

then, per builtin, a ``--g`` whose polynomial exponents do not match its
``dim``, ``delta`` at p = 0, -1 and 0.5 (below the range of p), and
``alpha`` and ``reeb`` on a document that carries the polynomial weight;
then ``check`` on schema-invalid variants of the toric-p1 document and
with schema-invalid ``--g`` blocks, so that rejection messages are
compared too; then ``check`` on a rank-2 toric document whose fan leaves
out the thin cone between the rays (11, 1) and (10, 1); last, per builtin
with a projection row, a polynomial and an affine power at exponent 0.5
that change sign on the section polytope, under ``compute`` for
``barycenter``, ``beta`` and ``delta`` and under ``check``, so that the
refusal of a weight that is not positive is compared too; then ``builtin``
for every name, so that the builtins' bytes are compared; then ``reeb`` on
toric-p1 and toric-bl1p2 with only the section in ``divisors`` translated
so that the origin is not interior to its polytope, which the Reeb solve
does not read (it reads the anticanonical section); last, per builtin, ``--format csv`` under ``check``,
``reeb``, ``barycenter`` and ``beta``, which have no per-ray table; then
``check`` on rejections whose first error in schema order is not the one
jsonschema's ``best_match`` would pick: ``--g`` blocks whose key names a
``oneOf`` branch that fails, and a toric-p1 document with two errors at
the same depth; then ``check`` and ``compute --invariant delta`` on
toric-bl1p2 and toric-p1 with coefficients whose section polytope is a
segment and a point, which are refused as line bundles that are not big;
last, ``reeb`` on toric-bl1p2 with a raw density of one degree-1 factor at
``dim_x`` 2, which is refused since the degree exceeds dim_x - rank, and
at ``dim_x`` 3, where it equals dim_x - rank; then ``check`` and
``compute --invariant delta`` on fans whose cones overlap (the quadrant
fan with the fan of P^2, and the quadrant fan with a cone listed twice)
and on toric-p1 whose anticanonical record of D0 has another ``rho``, all
refused; last, ``check`` on toric-p1 carrying the retired ``complete``
field, which the schema refuses; then ``check`` and ``compute --invariant
delta`` on toric-p1 with the zero cone listed (answered as without it), on
toric-bl1p2 with a face that names the unknown divisor ``Zzz`` (refused)
and on a fan whose cones overlap only outside the valuation cone y >= 0
(answered), and ``beta`` along (1, -1) under the same valuation cone on a
fan cone that reaches below it (refused); last, P^2 and toric-p1 with
the section in ``divisors`` moved by a character (coefficients 2, 1, 0
and 3/2, 1/2) under ``check``, ``beta`` along the first candidate,
``reeb`` and ``delta`` under an affine power at exponent 0.5, which give
the canonical documents' answers, and ``reeb`` on toric-p1 and
toric-bl1p2 with both sections translated as above, which is refused;
last, ``barycenter`` on toric-p1 whose anticanonical section is a point,
which is refused when the document is read, and ``delta`` on toric-p1 at
p = 10^400, which no float holds, and at p = 1e300, whose exact moment
overflows, both refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

from kstab.cli import main as kstab_main
from kstab.fixtures import BUILTIN_NAMES, builtin_document, builtin_spherical_input
from kstab.geom import dot
from kstab.schema import parse_input_document


def _weights(dim: int) -> dict[str, dict]:
    """The weights of the matrix for a projection with ``dim`` rows."""
    terms = [{"exponent": [0] * dim, "coeff": "2"}]
    if dim:
        terms.append({"exponent": [2] + [0] * (dim - 1), "coeff": "1"})
    xi = ["1/5"] + ["0"] * (dim - 1) if dim else []
    return {
        "polynomial": {"polynomial": {"dim": dim, "terms": terms}},
        "affine-0.5": {"affine_power": {"xi": xi, "a": "3", "exponent": 0.5}},
        "affine-2": {"affine_power": {"xi": xi, "a": "3", "exponent": 2}},
    }


def _sign_changing_weights(si) -> dict[str, dict]:
    """Weights in the first projected coordinate x that vanish at the
    midpoint of its range over the section polytope: x - mid and
    (x - mid) ** 0.5."""
    dim = len(si.projection)
    first = [dot(si.projection[0], x) for x in si.section_polytope.vertices]
    a = str(-(min(first) + max(first)) / 2)
    unit = [1] + [0] * (dim - 1)
    return {
        "polynomial-sign-change": {"polynomial": {"dim": dim, "terms": [
            {"exponent": unit, "coeff": "1"}, {"exponent": [0] * dim, "coeff": a}]}},
        "affine-0.5-sign-change": {"affine_power": {"xi": [str(c) for c in unit], "a": a,
                                                    "exponent": 0.5}},
    }


# edits that make the toric-p1 document schema-invalid (a float rank of
# integral value is valid); no weight_fn block can match two branches,
# since each requires its own key and forbids the others
_INVALID_DOCUMENTS = {
    "missing-variety": lambda d: d.pop("variety"),
    "unknown-key": lambda d: d.update(extra=1),
    "rank-0": lambda d: d["variety"].update(rank=0),
    "rank-1.0": lambda d: d["variety"].update(rank=1.0),
    "coeff-1/0": lambda d: d["variety"]["divisors"][0].update(coeff="1/0"),
    "valuation-cone-some": lambda d: d["variety"].update(valuation_cone="some"),
    "weight-no-branch": lambda d: d.update(weight_fn={"linear": {"xi": ["1"]}}),
    "weight-two-branches": lambda d: d.update(weight_fn={
        "constant": "1", "affine_power": {"xi": ["1"], "a": "3", "exponent": 2}}),
}
_INVALID_G = ("5", '{"constant": "x"}', '{"affine_power": {"xi": ["1"], "a": "3"}}')
_FIRST_ERROR_G = ('{"constant": 3, "coeff": 1.0}', '{"affine_power": {}}')

# divisor coefficients that make a toric builtin's section polytope lower
# dimensional: a segment for toric-bl1p2 and a point for toric-p1
_NOT_BIG_COEFFS = {
    "toric-bl1p2": {"D1": "0", "D2": "0", "E": "-1", "D3": "1"},
    "toric-p1": {"D0": "0", "Dinf": "0"},
}

# divisor coefficients that translate a toric builtin's section polytope so
# that the origin is not interior: [0, 2] for toric-p1, and a pentagon with
# the origin as a vertex for toric-bl1p2
_SHIFTED_COEFFS = {
    "toric-p1": {"D0": "0", "Dinf": "2"},
    "toric-bl1p2": {"D1": "0", "D2": "0", "E": "3", "D3": "3"},
}


def _toric_document(rays: list[tuple[int, int]], cones: list[tuple[int, ...]],
                    valuation_cone="all") -> dict:
    """A toric surface with one divisor of coefficient 1 per ray and one
    cone per tuple of ray indices, under ``valuation_cone``."""
    rays = [[str(c) for c in r] for r in rays]
    divisors = [{"name": f"D{i}", "rho": r, "coeff": "1", "is_color": False}
                for i, r in enumerate(rays)]
    fan = [{"generators": [rays[i] for i in c], "divisors": [f"D{i}" for i in c]}
           for c in cones]
    return {"schema_version": "1",
            "variety": {"rank": 2, "dim_x": 2, "divisors": divisors,
                        "anticanonical_divisors": [dict(d) for d in divisors], "fan": fan,
                        "valuation_cone": valuation_cone,
                        "projection": [["1", "0"], ["0", "1"]]}}


# a toric surface whose fan misses the cone between (11, 1) and (10, 1)
_THIN_GAP = ([(1, 0), (11, 1), (10, 1), (0, 1), (-1, 0), (0, -1)],
             [(i, (i + 1) % 6) for i in range(6) if i != 1])

# fans whose cones overlap: the quadrant fan with the two other cones of
# the fan of P^2, and the quadrant fan with its first cone listed twice
_QUADRANTS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
_OVERLAPPING_FANS = {
    "quadrants-and-p2": (_QUADRANTS + [(-1, -1)],
                         [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 0)]),
    "duplicated-cone": (_QUADRANTS, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)]),
}

# the valuation cone y >= 0, a fan whose first and last cones overlap only
# below it, and a fan whose first cone reaches below it
_HALF_PLANE = {"generators": [["1", "0"], ["-1", "0"], ["0", "1"]]}
_OVERLAP_OUTSIDE_V = ([(-1, -4), (1, 2), (-1, 2), (0, -1)], [(0, 1), (1, 2), (2, 3)])
_BELOW_V = ([(1, -1), (0, 1), (-1, -1)], [(0, 1), (1, 2)])

# P^2 and toric-p1 with the section in divisors moved by the characters
# (1, 0) and 1/2, and the first coordinate of an affine-power weight
_P2 = ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
_MOVED_COEFFS = {
    "p2": {"D0": "2", "D1": "1", "D2": "0"},
    "toric-p1": {"D0": "3/2", "Dinf": "1/2"},
}
_MOVED_XI = "1/4"


def _commands(path: str, ray: str) -> list[list[str]]:
    base = ["--input", path]
    out = []
    for p in ("1", "2", "3", "1.5"):
        for fmt in ("json", "csv", "text"):
            out.append(["compute", *base, "--invariant", "delta", "--p", p, "--format", fmt])
    out.append(["compute", *base, "--invariant", "alpha"])
    out.append(["compute", *base, "--invariant", "barycenter"])
    out.append(["compute", *base, "--invariant", "beta", f"--ray={ray}"])
    out.append(["check", *base])
    out.append(["check", *base, "--format", "text"])
    out.append(["reeb", *base])
    return out


def _run(argv: list[str], root: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(kstab_main(argv))
        except SystemExit as e:  # argparse refusing the command line
            code = str(e.code)
        except Exception as e:  # an uncaught error is part of the listing
            code = f"uncaught {type(e).__name__}: {e}"
    text = (f"$ kstab {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
    return text.replace(root, "<dir>")


def main():
    with tempfile.TemporaryDirectory() as root:
        for name in BUILTIN_NAMES:
            doc = builtin_document(name)
            path = Path(root, f"{name}.json")
            path.write_text(json.dumps(doc))
            si, _ = builtin_spherical_input(name)
            ray = ",".join(str(c) for c in si.candidates[0])
            weights = _weights(len(doc["variety"]["projection"]))
            for label, g in [("none", None), *weights.items()]:
                for argv in _commands(str(path), ray):
                    if g is not None:
                        argv += ["--g", json.dumps(g)]
                    print(f"# {name} weight={label}")
                    print(_run(argv, root))
            bad = {"polynomial": {"dim": 1, "terms": [{"exponent": [1, 0], "coeff": "1"}]}}
            print(f"# {name} weight=bad-exponent")
            print(_run(["compute", "--input", str(path), "--invariant", "barycenter",
                        "--g", json.dumps(bad)], root))
            for p in ("0", "-1", "0.5"):
                print(f"# {name} p out of range")
                print(_run(["compute", "--input", str(path), "--invariant", "delta",
                            f"--p={p}"], root))
            doc["weight_fn"] = weights["polynomial"]
            weighted = Path(root, f"{name}-weighted.json")
            weighted.write_text(json.dumps(doc))
            for argv in (["compute", "--input", str(weighted), "--invariant", "alpha"],
                         ["reeb", "--input", str(weighted)]):
                print(f"# {name} document weight=polynomial")
                print(_run(argv, root))
        for label, edit in _INVALID_DOCUMENTS.items():
            doc = builtin_document("toric-p1")
            edit(doc)
            path = Path(root, "invalid.json")
            path.write_text(json.dumps(doc))
            print(f"# toric-p1 invalid document {label}")
            print(_run(["check", "--input", str(path)], root))
        for g in _INVALID_G:
            print("# toric-p1 invalid --g")
            print(_run(["check", "--input", str(Path(root, "toric-p1.json")), "--g", g], root))
        path = Path(root, "thin-gap.json")
        path.write_text(json.dumps(_toric_document(*_THIN_GAP)))
        print("# thin-gap fan")
        print(_run(["check", "--input", str(path)], root))
        for name in BUILTIN_NAMES:
            si, _ = builtin_spherical_input(name)
            if not si.projection:
                continue
            base = ["--input", str(Path(root, f"{name}.json"))]
            ray = ",".join(str(c) for c in si.candidates[0])
            for label, g in _sign_changing_weights(si).items():
                for argv in (["compute", *base, "--invariant", "barycenter"],
                             ["compute", *base, "--invariant", "beta", f"--ray={ray}"],
                             ["compute", *base, "--invariant", "delta"],
                             ["check", *base]):
                    print(f"# {name} weight={label}")
                    print(_run([*argv, "--g", json.dumps(g)], root))
        for name in BUILTIN_NAMES:
            print(f"# {name} builtin")
            print(_run(["builtin", name], root))
        for name, coeffs in _SHIFTED_COEFFS.items():
            doc = builtin_document(name)
            for d in doc["variety"]["divisors"]:
                d["coeff"] = coeffs[d["name"]]
            path = Path(root, f"{name}-shifted.json")
            path.write_text(json.dumps(doc))
            print(f"# {name} origin not interior")
            print(_run(["reeb", "--input", str(path)], root))
        for name in BUILTIN_NAMES:
            base = ["--input", str(Path(root, f"{name}.json")), "--format", "csv"]
            si, _ = builtin_spherical_input(name)
            ray = ",".join(str(c) for c in si.candidates[0])
            for argv in (["check", *base], ["reeb", *base],
                         ["compute", *base, "--invariant", "barycenter"],
                         ["compute", *base, "--invariant", "beta", f"--ray={ray}"]):
                print(f"# {name} format=csv")
                print(_run(argv, root))
        for g in _FIRST_ERROR_G:
            print("# toric-p1 invalid --g, first error")
            print(_run(["check", "--input", str(Path(root, "toric-p1.json")), "--g", g], root))
        doc = builtin_document("toric-p1")
        doc["variety"].update(dim_x=0, divisors=[])
        path = Path(root, "invalid.json")
        path.write_text(json.dumps(doc))
        print("# toric-p1 invalid document dim-x-0-no-divisors, first error")
        print(_run(["check", "--input", str(path)], root))
        for name, coeffs in _NOT_BIG_COEFFS.items():
            doc = builtin_document(name)
            for d in doc["variety"]["divisors"]:
                d["coeff"] = coeffs[d["name"]]
            path = Path(root, f"{name}-not-big.json")
            path.write_text(json.dumps(doc))
            for argv in (["check", "--input", str(path)],
                         ["compute", "--input", str(path), "--invariant", "delta"]):
                print(f"# {name} section polytope not full-dimensional")
                print(_run(argv, root))
        for dim_x in (2, 3):
            doc = builtin_document("toric-bl1p2")
            doc["variety"]["dim_x"] = dim_x
            doc["dh"] = {"factors": [{"normal": ["1", "0"], "offset": "3", "multiplicity": 1}]}
            path = Path(root, f"toric-bl1p2-dh-dim-{dim_x}.json")
            path.write_text(json.dumps(doc))
            print(f"# toric-bl1p2 degree-1 density, dim_x {dim_x}")
            print(_run(["reeb", "--input", str(path)], root))
        refused = {f"{label} fan": _toric_document(*fan)
                   for label, fan in _OVERLAPPING_FANS.items()}
        doc = builtin_document("toric-p1")
        doc["variety"]["anticanonical_divisors"][0]["rho"] = ["2"]
        refused["toric-p1 anticanonical D0 with rho 2"] = doc
        for label, doc in refused.items():
            path = Path(root, "refused.json")
            path.write_text(json.dumps(doc))
            for argv in (["check", "--input", str(path)],
                         ["compute", "--input", str(path), "--invariant", "delta"]):
                print(f"# {label}")
                print(_run(argv, root))
        doc = builtin_document("toric-p1")
        doc["variety"]["complete"] = True
        path = Path(root, "complete.json")
        path.write_text(json.dumps(doc))
        print("# toric-p1 with the retired complete field")
        print(_run(["check", "--input", str(path)], root))
        zero_cone = builtin_document("toric-p1")
        zero_cone["variety"]["fan"].append({"generators": [], "divisors": []})
        unknown = builtin_document("toric-bl1p2")
        unknown["variety"]["fan"].append({"generators": [["1", "0"]], "divisors": ["D1", "Zzz"]})
        listed = {"toric-p1 with the zero cone": zero_cone,
                  "toric-bl1p2 with Zzz on a face": unknown,
                  "fan overlapping outside the valuation cone":
                      _toric_document(*_OVERLAP_OUTSIDE_V, _HALF_PLANE)}
        for label, doc in listed.items():
            path = Path(root, "listed.json")
            path.write_text(json.dumps(doc))
            for argv in (["check", "--input", str(path)],
                         ["compute", "--input", str(path), "--invariant", "delta"]):
                print(f"# {label}")
                print(_run(argv, root))
        path = Path(root, "below-v.json")
        path.write_text(json.dumps(_toric_document(*_BELOW_V, _HALF_PLANE)))
        print("# ray outside the valuation cone")
        print(_run(["compute", "--input", str(path), "--invariant", "beta", "--ray=1,-1"], root))
        for name, coeffs in _MOVED_COEFFS.items():
            doc = _toric_document(*_P2) if name == "p2" else builtin_document(name)
            si, _ = parse_input_document(doc)
            for d in doc["variety"]["divisors"]:
                d["coeff"] = coeffs[d["name"]]
            path = Path(root, f"{name}-moved.json")
            path.write_text(json.dumps(doc))
            ray = ",".join(str(c) for c in si.candidates[0])
            g = {"affine_power": {"xi": [_MOVED_XI] + ["0"] * (si.rank - 1), "a": "1",
                                  "exponent": 0.5}}
            base = ["--input", str(path)]
            for argv in (["check", *base],
                         ["compute", *base, "--invariant", "beta", f"--ray={ray}"],
                         ["reeb", *base],
                         ["compute", *base, "--invariant", "delta", "--g", json.dumps(g)]):
                print(f"# {name} section moved")
                print(_run(argv, root))
        for name, coeffs in _SHIFTED_COEFFS.items():
            doc = builtin_document(name)
            for d in doc["variety"]["divisors"] + doc["variety"]["anticanonical_divisors"]:
                d["coeff"] = coeffs[d["name"]]
            path = Path(root, f"{name}-shifted-both.json")
            path.write_text(json.dumps(doc))
            print(f"# {name} both sections translated, origin not interior")
            print(_run(["reeb", "--input", str(path)], root))
        doc = builtin_document("toric-p1")
        for d in doc["variety"]["anticanonical_divisors"]:
            d["coeff"] = "0"
        path = Path(root, "toric-p1-anticanonical-point.json")
        path.write_text(json.dumps(doc))
        print("# toric-p1 anticanonical section polytope a point")
        print(_run(["compute", "--input", str(path), "--invariant", "barycenter"], root))
        for p in ("1" + "0" * 400, "1e300"):
            print("# toric-p1 p too large")
            print(_run(["compute", "--input", str(Path(root, "toric-p1.json")),
                        "--invariant", "delta", f"--p={p}"], root))


if __name__ == "__main__":
    main()
