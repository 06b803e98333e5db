"""Command-line front end.

Subcommands: ``compute`` (delta / alpha / barycenter / beta), ``check``
(Ding verdict), ``reeb`` (Reeb vector solve), ``builtin`` (emit a fixture
document).  Reports are JSON by default (CSV of the per-ray table and
aligned text are available), deterministic for identical inputs: exact
values as "p/q" strings, numeric values with explicit error bounds.

Exit codes: 0 ok, 1 I/O failure, 2 validation failure, 3 mathematical
precondition failure, 4 scope refusal.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .fixtures import BUILTIN_NAMES, builtin_document
from .geom import GeometryError
from .invariants import (
    InvariantError,
    InvariantReport,
    KltViolationError,
    Num,
    alpha,
    barycenter_g,
    beta_g,
    delta_g,
    delta_p,
    ding_check,
)
from .quad import IntegrationError
from .schema import (
    RATIONAL_PATTERN,
    SchemaValidationError,
    check_weight_dimension,
    load_input,
    parse_weight_fn,
    validate_weight_fn,
)
from .soliton import NotHorosphericalError, ReebProblem, SolitonError, solve_reeb
from .spherical import NotQCartierError, SphericalDataError

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_MATH = 3
EXIT_SCOPE = 4


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _num_json(n: Num) -> dict:
    return {
        "value": n.value,
        "exact": _frac_str(n.exact) if n.exact is not None else None,
        "error_bound": n.error,
    }


def _vec_json(v) -> list[str]:
    return [_frac_str(Fraction(c)) for c in v]


def _table_json(report: InvariantReport) -> list[dict]:
    rows = []
    for r in report.table:
        rows.append({
            "ray": _vec_json(r.ray),
            "log_discrepancy": _frac_str(r.log_discrepancy),
            "s_p": _num_json(r.s_p),
            "t_max": _frac_str(r.t_max),
            "ratio_delta": _num_json(r.ratio_delta),
            "ratio_alpha": _frac_str(r.ratio_alpha),
            "anomalies": list(r.anomalies),
        })
    return rows


def _report_json(report: InvariantReport, input_hash: str, command: str) -> dict:
    doc = {
        "schema_version": "1",
        "command": command,
        "invariant": report.kind,
        "p": float(report.p),
        "input_sha256": input_hash,
        "value": _num_json(report.value),
        "minimizing_rays": [_vec_json(r) for r in report.minimizing_rays],
        "rays": _table_json(report),
    }
    if report.barycenter is not None:
        doc["barycenter"] = [_num_json(b) for b in report.barycenter]
    if report.notes:
        doc["notes"] = list(report.notes)
    return doc


def _hash_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(doc: dict, fmt: str, out_path: str | None):
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        fields = ["ray", "log_discrepancy", "s_p", "t_max", "ratio_delta",
                  "ratio_alpha", "anomalies"]
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(fields)
        for r in doc["rays"]:
            writer.writerow([
                " ".join(r["ray"]),
                r["log_discrepancy"],
                r["s_p"]["exact"] or repr(r["s_p"]["value"]),
                r["t_max"],
                r["ratio_delta"]["exact"] or repr(r["ratio_delta"]["value"]),
                r["ratio_alpha"],
                ";".join(r["anomalies"]),
            ])
        text = buf.getvalue()
    elif fmt == "text":
        text = _text_format(doc)
    else:
        raise SchemaValidationError(f"unknown format {fmt!r}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _text_format(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if key == "rays" and isinstance(value, list):
            lines.append("rays:")
            header = f"  {'ray':>12} {'A':>8} {'S_p':>14} {'T':>8} {'A/S^(1/p)':>14} {'A/T':>10}"
            lines.append(header)
            for r in value:
                sp = r["s_p"]["exact"] or f"{r['s_p']['value']:.9g}"
                rd = r["ratio_delta"]["exact"] or f"{r['ratio_delta']['value']:.9g}"
                lines.append(
                    f"  {' '.join(r['ray']):>12} {r['log_discrepancy']:>8} "
                    f"{sp:>14} {r['t_max']:>8} {rd:>14} {r['ratio_alpha']:>10}")
        elif isinstance(value, (dict, list)):
            lines.append(f"{key}: {json.dumps(value)}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _refuse_csv_without_table(args):
    """``--format csv`` refused, before any work, for a report that has no
    per-ray table."""
    if args.format != "csv":
        return
    if args.command in ("check", "reeb"):
        raise SchemaValidationError(f"{args.command} has no per-ray table; use json or text")
    if args.invariant in ("barycenter", "beta"):
        raise SchemaValidationError("csv format needs a per-ray table")


def _load(args, unweighted: str | None = None) -> tuple:
    """The input, its weight, the input's hash and report notes.
    ``unweighted`` names a command that reads no weight: a non-constant
    ``--g`` is refused there, and a non-constant document weight is dropped
    with a note.  A ``--format csv`` that the command cannot write is
    refused first."""
    _refuse_csv_without_table(args)
    si, g_doc = load_input(args.input)
    g_flag = None
    if args.g:
        try:
            g_block = json.loads(args.g)
        except json.JSONDecodeError as e:
            raise SchemaValidationError(f"--g is not valid JSON: {e}") from e
        try:
            validate_weight_fn(g_block)
            g_flag = parse_weight_fn(g_block)
        except SchemaValidationError as e:
            raise SchemaValidationError(f"--g: {e}") from e
        check_weight_dimension(g_flag, si.projection, "--g")
    g = g_flag if g_flag is not None else g_doc
    notes = []
    if unweighted and g is not None and g.constant_value() is None:
        if g_flag is not None:
            raise SchemaValidationError(f"--g: {unweighted} takes no weight")
        notes.append(f"weight_fn ignored: {unweighted} takes no weight")
        g = None
    return si, g, _hash_file(args.input), notes


def _moment_exponent(text: str) -> Fraction | float:
    """The value of ``--p``: a Fraction when it is a rational ``a/b`` of
    the input's rational pattern or an integer, else a float; refused
    unless it is a finite number at least 1."""
    if re.search(RATIONAL_PATTERN, text):
        p = Fraction(text)
    else:
        try:
            p = float(text)
        except ValueError:
            p = math.nan
        if not math.isfinite(p):
            raise SchemaValidationError(f"--p: the moment exponent must be a finite number, not {text!r}")
        if p.is_integer():
            p = Fraction(text)
    if p < 1:
        raise SchemaValidationError("--p: the moment exponent must be at least 1")
    return p


def _valuation_ray(text: str, rank: int) -> tuple[Fraction, ...]:
    """The value of ``--ray``: ``rank`` coordinates of the input's rational
    pattern, separated by commas or spaces, not all zero."""
    coords = text.replace(",", " ").split()
    for c in coords:
        if not re.search(RATIONAL_PATTERN, c):
            raise SchemaValidationError(f"--ray: {c!r} is not an integer or a rational a/b")
    if len(coords) != rank:
        raise SchemaValidationError(f"--ray: {len(coords)} coordinate(s) given, the input has rank {rank}")
    ray = tuple(map(Fraction, coords))
    if not any(ray):
        raise SchemaValidationError("--ray: the zero vector is not a valuation ray")
    return ray


def _maybe_time(doc: dict, args, started: float) -> dict:
    doc["timing_ms"] = (time.perf_counter() - started) * 1000.0 if args.timing else None
    return doc


def _cmd_compute(args) -> int:
    started = time.perf_counter()
    si, g, input_hash, notes = _load(
        args, "compute --invariant alpha" if args.invariant == "alpha" else None)
    if args.invariant == "delta":
        p = _moment_exponent(args.p)
        if g is not None and g.constant_value() is None:
            if p != 1:
                raise SchemaValidationError(
                    "weighted delta is defined for p = 1 only")
            report = delta_g(si, g)
        else:
            report = delta_p(si, p, g)
        doc = _report_json(report, input_hash, "compute")
    elif args.invariant == "alpha":
        doc = _report_json(alpha(si), input_hash, "compute")
        if notes:
            doc["notes"] = notes
    elif args.invariant == "barycenter":
        bary = barycenter_g(si, g)
        doc = {
            "schema_version": "1",
            "command": "compute",
            "invariant": "barycenter",
            "input_sha256": input_hash,
            "barycenter": [_num_json(b) for b in bary],
        }
    elif args.invariant == "beta":
        if not args.ray:
            raise SchemaValidationError("--ray is required for beta")
        res = beta_g(si, _valuation_ray(args.ray, si.rank), g)
        doc = {
            "schema_version": "1",
            "command": "compute",
            "invariant": "beta",
            "input_sha256": input_hash,
            "ray": _vec_json(res.ray),
            "from_integral": _num_json(res.from_integral),
            "from_barycenter": _num_json(res.from_barycenter),
        }
    else:
        raise SchemaValidationError(f"unknown invariant {args.invariant!r}")
    _emit(_maybe_time(doc, args, started), args.format, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    started = time.perf_counter()
    si, g, input_hash, _notes = _load(args)
    verdict = ding_check(si, g)
    doc = {
        "schema_version": "1",
        "command": "check",
        "input_sha256": input_hash,
        "verdict": verdict.verdict,
        "semistable": verdict.semistable,
        "polystable": verdict.polystable,
        "barycenter": [_num_json(b) for b in verdict.barycenter],
        "exact": verdict.exact,
        "witness": None if verdict.witness is None else {
            "kind": verdict.witness["kind"],
            "functional": _vec_json(verdict.witness["functional"]),
        },
    }
    _emit(_maybe_time(doc, args, started), args.format, args.out)
    return EXIT_OK


def _cmd_reeb(args) -> int:
    started = time.perf_counter()
    si, _g, input_hash, notes = _load(args, "reeb")
    prob = ReebProblem.from_spherical(si)
    solution = solve_reeb(prob)
    doc = {
        "schema_version": "1",
        "command": "reeb",
        "input_sha256": input_hash,
        "xi": [float(c) for c in solution.xi],
        "functional_value": solution.functional_value,
        "functional_error": solution.functional_error,
        "gradient_norm": solution.gradient_norm,
        "hessian_min_eigenvalue": solution.hessian_min_eigval,
        "iterations": solution.iterations,
        "converged": solution.converged,
    }
    if notes:
        doc["notes"] = notes
    _emit(_maybe_time(doc, args, started), args.format, args.out)
    return EXIT_OK


def _cmd_builtin(args) -> int:
    try:
        doc = builtin_document(args.name)
    except KeyError as e:
        raise SchemaValidationError(str(e)) from e
    _emit(doc, "json", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstab",
        description="Valuative stability invariants of polarized spherical "
                    "varieties from combinatorial data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--g", default=None,
                       help="weight function as inline JSON (overrides the "
                            "document's weight_fn block)")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        p.add_argument("--out", default=None, help="write report to this path")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in the report (breaks "
                            "byte-for-byte determinism)")

    p_compute = sub.add_parser("compute", help="delta/alpha/barycenter/beta")
    common(p_compute)
    p_compute.add_argument("--invariant", required=True,
                           choices=("delta", "alpha", "barycenter", "beta"))
    p_compute.add_argument("--p", default="1", help="moment exponent p >= 1, a number or a/b")
    p_compute.add_argument("--ray", default=None,
                           help="valuation ray for beta, e.g. '-1', '1,0' or "
                                "'-1,0'")
    p_compute.set_defaults(func=_cmd_compute)

    p_check = sub.add_parser("check", help="Ding stability verdict")
    common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_reeb = sub.add_parser("reeb", help="Reeb vector for horospherical input")
    common(p_reeb)
    p_reeb.set_defaults(func=_cmd_reeb)

    p_builtin = sub.add_parser("builtin", help="emit a builtin fixture")
    p_builtin.add_argument("name", help=f"one of {', '.join(BUILTIN_NAMES)}")
    p_builtin.add_argument("--out", default=None)
    p_builtin.set_defaults(func=_cmd_builtin)
    return parser


def _attach_ray_values(argv: list[str]) -> list[str]:
    """``--ray -1,0`` as ``--ray=-1,0``.  argparse reads a value that starts
    with '-' and is not a plain number as an option name; no option name
    starts with '-' and a digit, so such a value after ``--ray`` is joined
    to it, and a real option name there still fails as before."""
    out = []
    for arg in argv:
        if out and out[-1] == "--ray" and re.match(r"-[\d.]", arg):
            out[-1] = f"--ray={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_ray_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except OSError as e:
        print(f"kstab: i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except SchemaValidationError as e:
        print(f"kstab: invalid input: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NotHorosphericalError as e:
        print(f"kstab: out of scope: {e}", file=sys.stderr)
        return EXIT_SCOPE
    except (NotQCartierError, KltViolationError, SphericalDataError,
            InvariantError, GeometryError, IntegrationError, SolitonError,
            ValueError) as e:
        print(f"kstab: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    raise SystemExit(main())
