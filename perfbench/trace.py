"""Spans around kstab's public functions, installed from outside.

`Tracer.install` replaces each target function at every kstab module
binding (``triangulate`` is bound in both ``kstab.geom`` and ``kstab.quad``,
``integrate_numeric`` in ``quad``, ``invariants`` and ``soliton``) and
``Polynomial.compose_affine`` / ``SphericalInput.__init__`` on their
classes; `Tracer.uninstall` puts the originals back.  Nothing in kstab is
edited.

Each span records its name, start, end, parent span, the op it belongs to
and the counts taken from its arguments and return value.  Spans stay in
memory until `Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def _len_result(_args, _kwargs, result) -> dict:
    return {"items": len(result)}


def _dd_rays(_args, _kwargs, result) -> dict:
    return {"items": len(result[0])}


def _triangulate(args, _kwargs, result) -> dict:
    return {"items": len(result), "key": args[0].vertices}


def _composed(_args, _kwargs, result) -> dict:
    return {"items": len(result.terms)}


def _quadrature(_args, _kwargs, result) -> dict:
    return {"items": result.subdivisions, "nonconverged": int(not result.converged)}


def _reeb(_args, _kwargs, result) -> dict:
    return {"items": result.iterations}


# (module, attribute, span name, count extractor); an attribute "C.m" is
# method m of class C in that module.
TARGETS = [
    ("kstab.schema", "validate_document", "schema.validate", None),
    ("kstab.schema", "parse_input_document", "schema.parse", None),
    ("kstab.rootsys", "dh_density", "rootsys.dh_density", None),
    ("kstab.spherical", "SphericalInput.__init__", "spherical.input_build", None),
    ("kstab.spherical", "candidate_set_E", "spherical.candidates", _len_result),
    ("kstab.geom", "double_description", "geom.double_description", _dd_rays),
    ("kstab.geom", "triangulate", "geom.triangulate", _triangulate),
    ("kstab.quad", "integrate_poly", "quad.integrate_poly", None),
    ("kstab.quad", "Polynomial.compose_affine", "quad.compose_affine", _composed),
    ("kstab.quad", "integrate_numeric", "quad.integrate_numeric", _quadrature),
    ("kstab.quad", "dh_moments", "quad.dh_moments", None),
    ("kstab.invariants", "S_p", "invariants.S_p", None),
    ("kstab.invariants", "delta_p", "invariants.delta_p", None),
    ("kstab.invariants", "alpha", "invariants.alpha", None),
    ("kstab.invariants", "barycenter_g", "invariants.barycenter_g", None),
    ("kstab.invariants", "ding_check", "invariants.ding_check", None),
    ("kstab.invariants", "beta_g", "invariants.beta_g", None),
    ("kstab.invariants", "delta_g", "invariants.delta_g", None),
    ("kstab.soliton", "solve_reeb", "soliton.solve_reeb", _reeb),
    ("kstab.soliton", "reeb_functional", "soliton.reeb_functional", None),
    ("kstab.cli", "main", "cli.main", None),
]


def rebind(fn, replacement) -> list[tuple[object, str, object]]:
    """Point every kstab module attribute bound to ``fn`` at
    ``replacement``; returns what `restore` needs to undo it."""
    undo = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "kstab" and not name.startswith("kstab."):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
    return undo


def restore(undo: list[tuple[object, str, object]]):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


class ConvergenceWatch:
    """Counts `integrate_numeric` results with ``converged=False`` at every
    binding, since `S_p` and the moment routines drop that flag."""

    def __init__(self):
        self.nonconverged = 0
        self._undo = []

    def install(self):
        quad = sys.modules["kstab.quad"]
        fn = quad.integrate_numeric

        @functools.wraps(fn)
        def watched(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not result.converged:
                self.nonconverged += 1
            return result

        self._undo = rebind(fn, watched)

    def uninstall(self):
        restore(self._undo)
        self._undo = []


class Tracer:
    """Records spans while installed and `enabled`.  One tracer per run;
    ops are numbered by the caller through `op`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.enabled = True
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(sid)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, count in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, count))
            else:
                fn = getattr(mod, attr)
                self._undo += rebind(fn, self._wrap(name, fn, count))

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def dump(self, path: str):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                counts = {k: v for k, v in s.counts.items() if k != "key"}
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.op,
                                     counts]) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals from spans: for every span name, ``<name>_s`` (self
    time), ``<name>_calls`` and the summed counts ``<name>.<count>``; plus
    the distinct triangulated polytopes per triangulate call and the Reeb
    line-search rejections."""
    out: dict[str, float] = {}
    tri_keys = set()
    functional_calls: dict[int, int] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.name + "_s"] = out.get(s.name + "_s", 0.0) + t
        out[s.name + "_calls"] = out.get(s.name + "_calls", 0) + 1
        for key, value in s.counts.items():
            if key == "key":
                tri_keys.add(value)
            else:
                out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
        if s.name == "soliton.reeb_functional" and s.parent is not None:
            functional_calls[s.parent] = functional_calls.get(s.parent, 0) + 1
    rejected = 0
    for i, s in enumerate(spans):
        if s.name == "soliton.solve_reeb" and "items" in s.counts:
            # one evaluation at xi = 0, one accepted per Newton step
            rejected += functional_calls.get(i, 0) - 1 - s.counts["items"]
    tri_calls = out.get("geom.triangulate_calls", 0)
    out["geom.triangulate_reuse"] = len(tri_keys) / tri_calls if tri_calls else 0.0
    out["soliton.rejected_steps"] = rejected
    return out
