"""Input document schema and parsing.

The on-disk format is UTF-8 JSON, schema version "1".  Rational numbers
travel as strings "p/q" (or plain integers) so nothing is rounded on the
wire; vectors are arrays of rationals.  Unknown fields are rejected.

A document is checked by ``_error``, a small interpreter of the keywords
this schema uses, with the meaning Draft 2020-12 gives them.  It stops at
the first error, depth first in schema order, and words it as jsonschema
words that keyword, so a rejection names one path and one message that
do not depend on any installed package.  The schema itself is a
constant: its validity against the 2020-12 meta-schema, and the
checker's agreement with jsonschema, are checked by the test suite
rather than in every process.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from fractions import Fraction

from .geom import Cone, unit_vec, vec
from .quad import (
    AffinePowerWeight,
    ConstantWeight,
    DHDensity,
    DHFactor,
    Polynomial,
    PolynomialWeight,
    WeightFn,
)
from .geom import AffineForm
from .rootsys import RootSystem, dh_density
from .spherical import ColoredConeData, DivisorRecord, SphericalInput


class SchemaValidationError(Exception):
    """Input document malformed: schema violation or unparsable rational."""


# ASCII digits only ([0-9], where \d takes any Unicode digit); "$(?!\n)"
# is the end of the string, since under re.search "$" alone also matches
# before a final newline
RATIONAL_PATTERN = r"^-?[0-9]+(/[1-9][0-9]*)?$(?!\n)"
_RAT = {
    "oneOf": [
        {"type": "string", "pattern": RATIONAL_PATTERN},
        {"type": "integer"},
    ]
}
_RATVEC = {"type": "array", "items": _RAT}
_RATMAT = {"type": "array", "items": _RATVEC}

_DIVISOR = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "rho": _RATVEC,
        "coeff": _RAT,
        "is_color": {"type": "boolean"},
    },
    "required": ["name", "rho", "coeff", "is_color"],
    "additionalProperties": False,
}

_CONE = {
    "type": "object",
    "properties": {
        "generators": _RATMAT,
        "divisors": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["generators", "divisors"],
    "additionalProperties": False,
}

INPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "kstab input document, schema version 1",
    "type": "object",
    "properties": {
        "schema_version": {"const": "1"},
        "variety": {
            "type": "object",
            "properties": {
                "rank": {"type": "integer", "minimum": 1},
                "dim_x": {"type": "integer", "minimum": 1},
                "divisors": {"type": "array", "items": _DIVISOR, "minItems": 1},
                "anticanonical_divisors": {"type": "array", "items": _DIVISOR,
                                           "minItems": 1},
                "fan": {"type": "array", "items": _CONE, "minItems": 1},
                "valuation_cone": {
                    "oneOf": [
                        {"const": "all"},
                        {
                            "type": "object",
                            "properties": {"generators": _RATMAT},
                            "required": ["generators"],
                            "additionalProperties": False,
                        },
                    ]
                },
                "projection": _RATMAT,
            },
            "required": ["rank", "dim_x", "divisors", "anticanonical_divisors",
                         "fan", "valuation_cone"],
            "additionalProperties": False,
        },
        "root_system": {
            "type": "object",
            "properties": {
                "type": {"enum": ["A", "B", "C", "D", "G"]},
                "rank": {"type": "integer", "minimum": 1, "maximum": 8},
                "active_roots": {
                    "oneOf": [
                        {"const": "all"},
                        {"type": "array",
                         "items": {"type": "integer", "minimum": 0}},
                    ]
                },
                "chi": _RATVEC,
                "embed": _RATMAT,
                "squared": {"type": "boolean"},
            },
            "required": ["type", "rank", "active_roots", "chi", "embed", "squared"],
            "additionalProperties": False,
        },
        "dh": {
            "type": "object",
            "properties": {
                "factors": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "normal": _RATVEC,
                            "offset": _RAT,
                            "multiplicity": {"type": "integer", "minimum": 1},
                            "rho_pair": {"oneOf": [_RAT, {"type": "null"}]},
                        },
                        "required": ["normal", "offset", "multiplicity"],
                        "additionalProperties": False,
                    },
                },
                "normalization": _RAT,
            },
            "required": ["factors"],
            "additionalProperties": False,
        },
        "weight_fn": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {"constant": _RAT},
                    "required": ["constant"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "polynomial": {
                            "type": "object",
                            "properties": {
                                "dim": {"type": "integer", "minimum": 0},
                                "terms": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "exponent": {
                                                "type": "array",
                                                "items": {"type": "integer",
                                                          "minimum": 0},
                                            },
                                            "coeff": _RAT,
                                        },
                                        "required": ["exponent", "coeff"],
                                        "additionalProperties": False,
                                    },
                                },
                            },
                            "required": ["dim", "terms"],
                            "additionalProperties": False,
                        }
                    },
                    "required": ["polynomial"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "affine_power": {
                            "type": "object",
                            "properties": {
                                "xi": _RATVEC,
                                "a": _RAT,
                                "exponent": {"type": "number"},
                            },
                            "required": ["xi", "a", "exponent"],
                            "additionalProperties": False,
                        }
                    },
                    "required": ["affine_power"],
                    "additionalProperties": False,
                },
            ]
        },
    },
    "required": ["schema_version", "variety"],
    "additionalProperties": False,
}


def _fraction(x) -> Fraction:
    try:
        return Fraction(x) if isinstance(x, int) else Fraction(str(x))
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaValidationError(f"bad rational {x!r}: {e}") from e


def _ratvec(xs):
    return vec([_fraction(x) for x in xs])


_TYPES = {  # as Draft 2020-12 reads them: a bool is no number, 1.0 is an integer
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}
_OTHER_TYPE = object()  # a oneOf branch skipped for its type


def _has_type(x, name) -> bool:
    if not isinstance(name, str) or name not in _TYPES:
        raise TypeError(f"schema keyword type: {name!r}")
    return _TYPES[name](x)


def _error(x, schema):
    """None when ``x`` is valid under ``schema`` as Draft 2020-12 decides
    it, else (path, message) of its first error: keywords in schema order,
    properties in schema order and items in array order, depth first.
    Each keyword but ``type`` constrains only instances of its own type,
    and each message is worded as jsonschema words it.

    A ``oneOf`` that accepts no branch reports the error of the one branch
    whose ``type`` the instance has, or, when several have it, of the one
    whose ``required`` keys the instance holds; otherwise, and when it
    accepts several branches, it reports its own message.  Any keyword of
    another form raises TypeError: it is a schema edit this checker does
    not interpret, never a verdict on the instance."""
    for key, value in schema.items():
        if key in ("$schema", "title"):
            continue
        if key == "type":
            if not _has_type(x, value):
                return (), f"{x!r} is not of type {value!r}"
        elif key == "properties":
            if isinstance(x, dict):
                for k, sub in value.items():
                    if k in x:
                        e = _error(x[k], sub)
                        if e is not None:
                            return (k, *e[0]), e[1]
        elif key == "required":
            if isinstance(x, dict):
                for k in value:
                    if k not in x:
                        return (), f"{k!r} is a required property"
        elif key == "additionalProperties" and value is False:
            if isinstance(x, dict):
                known = schema.get("properties", {})
                extras = sorted(k for k in x if k not in known)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    return (), (f"Additional properties are not allowed "
                                f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    e = _error(item, value)
                    if e is not None:
                        return (i, *e[0]), e[1]
        elif key in ("minItems", "minLength"):
            if isinstance(x, list if key == "minItems" else str) and len(x) < value:
                return (), f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "minimum":
            if _TYPES["number"](x) and x < value:
                return (), f"{x!r} is less than the minimum of {value!r}"
        elif key == "maximum":
            if _TYPES["number"](x) and x > value:
                return (), f"{x!r} is greater than the maximum of {value!r}"
        elif key == "pattern":
            if isinstance(x, str) and re.search(value, x) is None:
                return (), f"{x!r} does not match {value!r}"
        elif key == "const" and isinstance(value, str):
            if not (isinstance(x, str) and x == value):
                return (), f"{value!r} was expected"
        elif key == "enum" and all(isinstance(e, str) for e in value):
            if not (isinstance(x, str) and x in value):
                return (), f"{x!r} is not one of {value!r}"
        elif key == "oneOf":
            # a branch whose type the instance lacks fails whatever else it
            # holds, and its error is never the one reported
            errors = []
            for sub in value:
                errors.append(_error(x, sub) if "type" not in sub or _has_type(x, sub["type"])
                              else _OTHER_TYPE)
            valid = errors.count(None)
            if valid == 1:
                continue
            if valid:
                # jsonschema's order: the later valid branches, then the first
                first, *later = [sub for sub, e in zip(value, errors) if e is None]
                reprs = ", ".join(map(repr, [*later, first]))
                return (), f"{x!r} is valid under each of {reprs}"
            typed = [i for i, e in enumerate(errors) if e is not _OTHER_TYPE and "type" in value[i]]
            if len(typed) > 1 and isinstance(x, dict):
                typed = [i for i in typed if all(k in x for k in value[i].get("required", ()))]
            if len(typed) == 1:
                return errors[typed[0]]
            return (), f"{x!r} is not valid under any of the given schemas"
        else:
            raise TypeError(f"schema keyword {key}: {value!r}")
    return None


def _located(e: tuple) -> str:
    """A (path, message) of `_error` as the message at its path, which is
    "(root)" for the checked instance itself."""
    path, message = e
    return f"at {'/'.join(map(str, path)) or '(root)'}: {message}"


def validate_document(doc: dict):
    e = _error(doc, INPUT_SCHEMA)
    if e is not None:
        raise SchemaValidationError(_located(e))
    if "root_system" in doc and "dh" in doc:
        raise SchemaValidationError(
            "give either root_system or dh, not both")


def validate_weight_fn(block):
    """Schema check of a ``weight_fn`` block given on its own; the message
    is that of its first error, schema errors first, at its path inside
    the block."""
    e = _error(block, INPUT_SCHEMA["properties"]["weight_fn"]) or _weight_fn_error(block)
    if e is not None:
        raise SchemaValidationError(_located(e))


def _weight_fn_error(block: dict) -> tuple | None:
    """The first error of a schema-valid ``weight_fn`` block that the schema
    cannot express, as a (path, message) inside the block: a polynomial
    exponent whose length is not dim, or an affine_power exponent that is
    not finite (JSON's NaN, Infinity and 1e400 are numbers to the schema)."""
    if "polynomial" in block:
        p = block["polynomial"]
        for i, t in enumerate(p["terms"]):
            if len(t["exponent"]) != int(p["dim"]):
                return ("polynomial", "terms", i, "exponent"), "polynomial exponent length != dim"
    if "affine_power" in block:
        exponent = block["affine_power"]["exponent"]
        if isinstance(exponent, float) and not math.isfinite(exponent):
            return ("affine_power", "exponent"), \
                f"affine_power exponent must be a finite number, not {exponent}"
    return None


def parse_weight_fn(block: dict | None) -> WeightFn | None:
    """The weight of a ``weight_fn`` block that `validate_weight_fn`
    accepts."""
    if block is None:
        return None
    if "constant" in block:
        return ConstantWeight(_fraction(block["constant"]))
    if "polynomial" in block:
        p = block["polynomial"]
        terms = {tuple(map(int, t["exponent"])): _fraction(t["coeff"]) for t in p["terms"]}
        return PolynomialWeight(Polynomial(int(p["dim"]), terms))
    if "affine_power" in block:
        ap = block["affine_power"]
        return AffinePowerWeight(_ratvec(ap["xi"]), _fraction(ap["a"]), ap["exponent"])
    raise SchemaValidationError("unrecognized weight_fn block")


def check_weight_dimension(g: WeightFn | None, projection, where: str):
    """`WeightFn.check_dimension` as a validation failure at ``where``."""
    if g is not None:
        try:
            g.check_dimension(projection)
        except ValueError as e:
            raise SchemaValidationError(f"{where}: {e}") from e


def parse_input_document(doc: dict) -> tuple[SphericalInput, WeightFn | None]:
    # integer-typed fields go through int(): Draft 2020-12 counts an
    # integral float such as 1.0 as an integer (so does parse_weight_fn)
    validate_document(doc)
    var = doc["variety"]
    rank = int(var["rank"])

    def records(key):
        recs = []
        names = set()
        for d in var[key]:
            if len(d["rho"]) != rank:
                raise SchemaValidationError(f"{key}: rho length != rank")
            if d["name"] in names:
                raise SchemaValidationError(f"{key}: duplicate name {d['name']!r}")
            names.add(d["name"])
            recs.append(DivisorRecord(d["name"], _ratvec(d["rho"]),
                                      _fraction(d["coeff"]), d["is_color"]))
        return tuple(recs)

    divisors = records("divisors")
    anticanonical = records("anticanonical_divisors")

    fan = []
    for c in var["fan"]:
        gens = tuple(_ratvec(g) for g in c["generators"])
        for g in gens:
            if len(g) != rank:
                raise SchemaValidationError("fan generator length != rank")
        fan.append(ColoredConeData(gens, tuple(c["divisors"])))

    vcone = var["valuation_cone"]
    if vcone == "all":
        valuation_cone = Cone.full_space(rank)
    else:
        valuation_cone = Cone(rank, [_ratvec(g) for g in vcone["generators"]])

    if "projection" in var:
        projection = tuple(_ratvec(row) for row in var["projection"])
        for row in projection:
            if len(row) != rank:
                raise SchemaValidationError("projection row length != rank")
    else:
        projection = tuple(unit_vec(i, rank) for i in range(rank))

    if "root_system" in doc:
        rsb = doc["root_system"]
        rs = RootSystem(rsb["type"], int(rsb["rank"]))
        active = None if rsb["active_roots"] == "all" \
            else [int(i) for i in rsb["active_roots"]]
        if active is not None:
            nroots = len(rs.positive_roots_euclidean)
            for i in active:
                if i >= nroots:
                    raise SchemaValidationError(
                        f"active root index {i} out of range for {rs.cartan_type}")
        embed = [_ratvec(r) for r in rsb["embed"]]
        if len(embed) != rs.rank or any(len(r) != rank for r in embed):
            raise SchemaValidationError("embed must be (root rank) x (variety rank)")
        chi = _ratvec(rsb["chi"])
        if len(chi) != rs.rank:
            raise SchemaValidationError("chi length != root system rank")
        density = dh_density(rs, active, chi, embed, rsb["squared"])
    elif "dh" in doc:
        factors = []
        for f in doc["dh"]["factors"]:
            normal = _ratvec(f["normal"])
            if len(normal) != rank:
                raise SchemaValidationError("dh factor normal length != rank")
            rho_pair = f.get("rho_pair")
            factors.append(DHFactor(
                AffineForm(normal, _fraction(f["offset"])),
                int(f["multiplicity"]),
                _fraction(rho_pair) if rho_pair is not None else None))
        normalization = _fraction(doc["dh"].get("normalization", 1))
        density = DHDensity(rank, tuple(factors), normalization)
    else:
        density = DHDensity(rank, ())

    si = SphericalInput(
        rank=rank,
        dim_x=int(var["dim_x"]),
        divisors=divisors,
        anticanonical_divisors=anticanonical,
        fan=tuple(fan),
        valuation_cone=valuation_cone,
        dh=density,
        projection=projection,
    )
    block = doc.get("weight_fn")
    e = None if block is None else _weight_fn_error(block)
    if e is not None:
        raise SchemaValidationError(_located((("weight_fn", *e[0]), e[1])))
    g = parse_weight_fn(block)
    check_weight_dimension(g, projection, "weight_fn")
    return si, g


def load_input(path: str) -> tuple[SphericalInput, WeightFn | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaValidationError(f"invalid JSON: {e}") from e
    return parse_input_document(doc)
