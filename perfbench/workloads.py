"""Workload definitions: seeded inputs and the op list each input runs.

Each ``*_items`` function generates a workload's documents from the seed
(`run.setup` parses each once with `kstab.parse_input_document`); each
``*_block`` function turns one parsed input into a `Block`, its ops in
order, so that checks can use the answers of earlier ops on the same input
(see `oracle`).  kstab is imported inside functions, so that importing
this module does not import it and set-up times the import.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import gen, oracle

# Default gradient tolerance of kstab.solve_reeb, used unchanged.
REEB_TOL = 1e-10


@dataclass
class Item:
    """One input document and what the oracle knows about it."""

    name: str
    doc: dict
    vertices: list | None = None        # exact section-polytope vertices,
                                        # counter-clockwise at rank 2
    valuation_gens: list | None = None  # None: the whole space
    si: object = None
    g: object = None

    @property
    def rank(self) -> int:
        return self.doc["variety"]["rank"]

    def directions(self) -> list[tuple[Fraction, ...]]:
        """Generators of the valuation cone (+-e_i for the whole space)."""
        if self.valuation_gens is not None:
            return self.valuation_gens
        n = self.rank
        return [tuple(Fraction(s if j == i else 0) for j in range(n))
                for i in range(n) for s in (1, -1)]


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]


@dataclass
class Block:
    item: Item
    ops: list[Op] = field(default_factory=list)


def _gens(doc) -> list | None:
    vc = doc["variety"]["valuation_cone"]
    if vc == "all":
        return None
    return [tuple(Fraction(c) for c in g) for g in vc["generators"]]


def _item(name, doc, vertices=None) -> Item:
    return Item(name, doc, vertices=vertices, valuation_gens=_gens(doc))


def _seeded_toric(rng: random.Random, polygons: tuple[int, ...],
                  cuts: tuple[int, ...], weighted: bool) -> list[Item]:
    items = []
    for i, nv in enumerate(polygons):
        doc, verts = gen.toric_polygon_document(rng, nv)
        if weighted:
            doc["weight_fn"] = gen.affine_power_weight(rng, verts)
        items.append(_item(f"polygon{i}-{nv}v", doc, verts))
    for i, nc in enumerate(cuts):
        doc, verts = gen.toric_3_polytope_document(rng, nc)
        if weighted:
            doc["weight_fn"] = gen.affine_power_weight(rng, verts)
        items.append(_item(f"polytope3d{i}-{nc}cut", doc, verts))
    return items


def parse_items(items: list[Item]):
    import kstab

    for it in items:
        it.si, it.g = kstab.parse_input_document(it.doc)


# ---------------------------------------------------------------------------
# exact-invariants


EXACT_POLYGONS = (4, 5, 6, 7, 5, 6)
EXACT_CUTS = (1, 2)


def exact_items(seed: int) -> list[Item]:
    import kstab

    rng = random.Random(seed)
    items = [_item(f"wonderful-{t.lower()}2", gen.wonderful_document(t, 2))
             for t in ("A", "B", "G")]
    items += [_item(n, kstab.builtin_document(n)) for n in ("toric-bl1p2", "pgl2")]
    items += _seeded_toric(rng, EXACT_POLYGONS, EXACT_CUTS, weighted=False)
    return items


def exact_block(item: Item, full: bool = False) -> Block:
    import kstab

    si = item.si
    b = Block(item)
    if item.name == "wonderful-g2" and not full:
        # degree-12 density: delta^(1) alone costs as much as a seeded input's
        # whole op list, so G2 runs only this op
        b.ops.append(Op("delta1", lambda: kstab.delta_p(si, 1),
                        lambda r, ans: oracle.check_delta(item, 1, r, ans)))
        return b

    def bary_check(r, ans):
        ans["barycenter"] = oracle.check_barycenter(item, r)

    b.ops.append(Op("barycenter", lambda: kstab.barycenter_g(si), bary_check))
    for p in (1, 2, 3):
        b.ops.append(Op(f"delta{p}", lambda p=p: kstab.delta_p(si, p),
                        lambda r, ans, p=p: oracle.check_delta(item, p, r, ans)))
    b.ops.append(Op("alpha", lambda: kstab.alpha(si),
                    lambda r, ans: oracle.check_alpha(item, r)))
    b.ops.append(Op("ding", lambda: kstab.ding_check(si),
                    lambda r, ans: oracle.check_ding(item, r, ans)))
    for v in item.directions():
        b.ops.append(Op(f"beta{_vec_label(v)}", lambda v=v: kstab.beta_g(si, v),
                        lambda r, ans, v=v: oracle.check_beta(item, v, r, ans)))
    return b


def _vec_label(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


# ---------------------------------------------------------------------------
# numeric-integrals


NUMERIC_POLYGONS = (4, 5, 6, 7, 5, 6, 4, 5, 6, 7) * 2
NUMERIC_CUTS = (2,)


def numeric_items(seed: int) -> list[Item]:
    import kstab

    rng = random.Random(seed)
    items = _seeded_toric(rng, NUMERIC_POLYGONS, NUMERIC_CUTS, weighted=True)
    items += [_item(n, kstab.builtin_document(n))
              for n in ("pgl2", "wonderful-a1", "toric-p1", "toric-bl1p2")]
    for name, rays in gen.SURFACES.items():
        doc, verts = gen.toric_surface_document(rays)
        items.append(_item(name, doc, verts))
    return items


def numeric_block(item: Item, references: dict, ps: tuple[float, ...] | None = None) -> Block:
    """Weighted inputs: barycenter, Ding check, delta_g and beta_g along e_1
    under the weight.  Others: delta^(p) at fractional p, the singular
    integrand t^p (1.5 and 2.5 on the rank-1 builtins; 2.5 to 5.5 on the
    fixed surfaces of `gen.SURFACES`; rank-2 p = 1.5 takes tens of seconds,
    see `walls`), and the Reeb solve on horospherical inputs.

    The mix sets the percentiles.  The surfaces' t^p ops and the Reeb
    solves with Newton steps are about an eighth of all ops, so op_p90_s
    falls inside them and does not depend on the seed.  The weighted
    surfaces' ops are about three quarters, so op_p50_s falls well inside
    their cluster rather than at its edge; many surfaces with few ops each
    keep that cluster's median from hanging on a few seeded shapes."""
    import kstab

    si, g = item.si, item.g
    b = Block(item)
    if g is not None:
        b.ops.append(Op("barycenter_g", lambda: kstab.barycenter_g(si, g),
                        lambda r, ans: oracle.check_barycenter_num(item, r, ans)))
        b.ops.append(Op("ding_g", lambda: kstab.ding_check(si, g),
                        lambda r, ans: oracle.check_ding_num(item, r, ans)))
        b.ops.append(Op("delta_g", lambda: kstab.delta_g(si, g),
                        lambda r, ans: oracle.check_delta_g(item, r, ans)))
        v = item.directions()[0]
        b.ops.append(Op(f"beta_g{_vec_label(v)}", lambda: kstab.beta_g(si, v, g),
                        lambda r, ans: oracle.check_beta_num(item, v, r, ans)))
        return b
    if ps is None:
        if item.rank == 1:
            ps = (1.5, 2.5)
        elif item.name in gen.SURFACES:
            ps = (2.5, 3.5, 4.5, 5.5)
        else:
            ps = ()
    for p in ps:
        ref = _fractional_reference(item, p, references)
        b.ops.append(Op(f"delta{p}", lambda p=p: kstab.delta_p(si, p),
                        lambda r, ans, p=p, ref=ref: oracle.check_delta_frac(item, p, r, ref)))
    if si.is_horospherical:
        b.ops.append(Op("reeb", lambda: kstab.solve_reeb(kstab.ReebProblem.from_spherical(si)),
                        lambda r, ans: oracle.check_reeb(item, r, REEB_TOL)))
    return b


def _fractional_reference(item: Item, p: float, cache: dict):
    """Reference for S_p per ray, computed on first use and kept for the
    run: rank 1 by mpmath quadrature from the document's own data, rank 2
    by log-convexity between exact integer moments."""
    import kstab

    def reference(ray, a):
        key = (item.name, p, ray)
        if key in cache:
            return cache[key]
        if item.rank == 1:
            lo, hi, density = _interval_data(item.doc)
            value, err = oracle.interval_moment(lo, hi, density, ray[0], a, p)
            cache[key] = ("value", value, err)
        else:
            k = int(math.floor(p))
            s = {}
            for q in (k, k + 1):
                rows = kstab.delta_p(item.si, q).table
                s[q] = {r.ray: r.s_p.exact for r in rows}
            cache[key] = ("bounds",) + oracle.log_convex_bounds(p, s[k][ray], s[k + 1][ray], k)
        return cache[key]

    return reference


def _interval_data(doc):
    """Section interval and DH density of a rank-1 document, read off the
    document: divisors rho x + coeff >= 0; an A1 root system contributes
    the factor (embed x + chi), squared when the document says so."""
    lo, hi = None, None
    for d in doc["variety"]["divisors"]:
        rho, c = Fraction(d["rho"][0]), Fraction(d["coeff"])
        if rho > 0:
            lo = -c / rho if lo is None else max(lo, -c / rho)
        else:
            hi = -c / rho if hi is None else min(hi, -c / rho)
    rs = doc.get("root_system")
    if rs is None:
        return lo, hi, lambda x: 1
    e, chi = Fraction(rs["embed"][0][0]), Fraction(rs["chi"][0])
    mult = 2 if rs["squared"] else 1
    return lo, hi, lambda x: (e * x + chi) ** mult


# ---------------------------------------------------------------------------
# walls: ops known to take tens of seconds or not to finish at the seed
# commit, kept out of the timed workloads so that their few samples do not
# swamp the percentiles; `run.py --workload walls` lists each outcome


def walls_items(seed: int) -> list[Item]:
    import kstab

    rng = random.Random(seed)
    items = [_item("wonderful-a3", gen.wonderful_document("A", 3)),
             _item("wonderful-g2", gen.wonderful_document("G", 2))]
    items += [_item(f"rank3-{t.lower()}", gen.rank3_root_document(rng, t)) for t in "ABC"]
    items.append(_item("toric-bl1p2", kstab.builtin_document("toric-bl1p2")))
    items += _seeded_toric(rng, (4, 5, 6, 7), (), weighted=False)
    return items


def walls_blocks(items: list[Item], references: dict) -> list[Block]:
    import kstab

    blocks = []
    for it in items:
        if it.name == "wonderful-a3":
            b = Block(it, [Op("ding", lambda si=it.si: kstab.ding_check(si),
                              lambda r, ans, it=it: oracle.check_ding(it, r, ans))])
        elif it.name.startswith(("wonderful", "rank3")):
            b = exact_block(it, full=True)
        else:
            b = numeric_block(it, references, ps=(1.5,))
        blocks.append(b)
    return blocks


# ---------------------------------------------------------------------------
# cli-roundtrip


CLI_BUILTINS = ("pgl2", "wonderful-a1", "wonderful-a2", "toric-p1", "toric-bl1p2")
CLI_POLYGONS = (4, 5)


def cli_items(seed: int) -> list[Item]:
    import kstab

    rng = random.Random(seed)
    items = [_item(n, kstab.builtin_document(n)) for n in CLI_BUILTINS]
    items += _seeded_toric(rng, CLI_POLYGONS, (), weighted=False)
    return items


def cli_commands(items: list[Item], seed: int, workdir: str) -> list[tuple[Item | None, list[str]]]:
    """Per input: compute delta, alpha, barycenter and beta, check, and reeb
    on the horospherical builtins; plus `builtin` per builtin.  Formats are
    seeded; csv only where a per-ray table exists."""
    rng = random.Random(seed + 1)
    out = []
    for it in items:
        path = os.path.join(workdir, it.name + ".json")
        ray = ",".join(str(c) for c in it.directions()[0])
        cmds = [
            ["compute", "--invariant", "delta", "--p", str(rng.choice((1, 2))),
             "--format", rng.choice(("json", "csv", "text"))],
            ["compute", "--invariant", "alpha", "--format", rng.choice(("json", "csv", "text"))],
            ["compute", "--invariant", "barycenter", "--format", rng.choice(("json", "text"))],
            ["compute", "--invariant", "beta", f"--ray={ray}", "--format", rng.choice(("json", "text"))],
            ["check", "--format", rng.choice(("json", "text"))],
        ]
        if it.name in ("toric-p1", "toric-bl1p2"):
            cmds.append(["reeb", "--format", rng.choice(("json", "text"))])
        for c in cmds:
            out.append((it, c[:1] + ["--input", path] + c[1:]))
        if it.name in CLI_BUILTINS:
            out.append((None, ["builtin", it.name]))
    return out


class CliRunner:
    """Runs one `kstab` process per op from the work directory, through the
    interpreter running the benchmark, with the checkout's ``src`` first
    on PYTHONPATH."""

    def __init__(self, workdir: str, src: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.peak_rss_kb = 0

    def run(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "kstab.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.workdir,
                                    env=self.env)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # over budget (or interrupted): stop the child and reap it
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr


def cli_reference(item: Item | None, argv: list[str]):
    """What the library says for a command: the exact strings the CLI must
    print, or the expected verdict / Reeb vector / builtin text."""
    import kstab

    cmd = argv[0]
    if cmd == "builtin":
        return json.dumps(kstab.builtin_document(argv[1]), indent=2) + "\n"
    opts = _options(argv)
    si = item.si
    if cmd == "check":
        return kstab.ding_check(si).verdict
    if cmd == "reeb":
        return [float(c) for c in kstab.solve_reeb(kstab.ReebProblem.from_spherical(si)).xi]
    inv = opts["--invariant"]
    if inv == "delta":
        rep = kstab.delta_p(si, Fraction(opts["--p"]))
    elif inv == "alpha":
        rep = kstab.alpha(si)
    elif inv == "barycenter":
        return [_frac(b.exact) for b in kstab.barycenter_g(si)]
    else:
        ray = [Fraction(c) for c in opts["--ray"].split(",")]
        return _frac(kstab.beta_g(si, ray).from_integral.exact)
    return {"value": _frac(rep.value.exact) if rep.value.exact is not None else None,
            "s_p": [r.s_p.exact and _frac(r.s_p.exact) for r in rep.table]}


def _options(argv: list[str]) -> dict[str, str]:
    """``--name value`` and ``--name=value`` pairs of a command line."""
    out, tokens = {}, iter(argv[1:])
    for tok in tokens:
        name, eq, value = tok.partition("=")
        out[name] = value if eq else next(tokens)
    return out


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def check_cli(argv: list[str], stdout: bytes, ref):
    """Compare one CLI report with the library's answer."""
    text = stdout.decode("utf-8")
    cmd = argv[0]
    if cmd == "builtin":
        oracle.require(text == ref, "builtin document differs from the library's")
        return
    opts = _options(argv)
    fmt = opts.get("--format", "json")
    if fmt == "csv":
        lines = text.split("\r\n")
        oracle.require(lines[0].startswith("ray,"), "csv header missing")
        s_col = [ln.split(",")[2] for ln in lines[1:] if ln]
        want = [s or "" for s in ref["s_p"]]
        oracle.require(s_col == want, f"csv S_p column {s_col} != library {want}")
        return
    doc = json.loads(text) if fmt == "json" else _parse_text(text)
    if cmd == "check":
        oracle.require(doc["verdict"] == ref, f"verdict {doc['verdict']} != library {ref}")
    elif cmd == "reeb":
        oracle.require(doc["converged"] is True, "CLI Reeb solve did not converge")
        oracle.require(doc["xi"] == ref, f"xi {doc['xi']} != library {ref}")
    elif opts["--invariant"] == "barycenter":
        got = [b["exact"] for b in doc["barycenter"]]
        oracle.require(got == ref, f"barycenter {got} != library {ref}")
    elif opts["--invariant"] == "beta":
        got = doc["from_integral"]["exact"]
        oracle.require(got == ref, f"beta {got} != library {ref}")
    else:
        got = doc["value"]["exact"]
        oracle.require(got == ref["value"], f"value {got} != library {ref['value']}")
        if fmt == "json":
            s_p = [r["s_p"]["exact"] for r in doc["rays"]]
            oracle.require(s_p == ref["s_p"], f"S_p column {s_p} != library {ref['s_p']}")


def _parse_text(text: str) -> dict:
    """The `text` format's `key: value` lines, JSON values decoded."""
    out = {}
    for line in text.splitlines():
        if line.startswith(" ") or ": " not in line:
            continue
        key, value = line.split(": ", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = {"True": True, "False": False, "None": None}.get(value, value)
    return out
