"""Input document schema and parsing.

The on-disk format is UTF-8 JSON, schema version "1".  Rational numbers
travel as strings "p/q" (or plain integers) so nothing is rounded on the
wire; vectors are arrays of rationals.  Unknown fields are rejected.

A document is accepted by ``_conforms``, a small interpreter of the
keywords this schema uses, with the meaning jsonschema gives them under
Draft 2020-12.  jsonschema is imported only when a document or a
``weight_fn`` block fails that check: it words the rejection (its
best-matching error), so a valid input never loads it.  The schema itself
is a constant, so its validity against the 2020-12 meta-schema, and the
agreement of ``_conforms`` with jsonschema, are checked by the test suite
rather than in every process.
"""

from __future__ import annotations

import json
import numbers
import re
from fractions import Fraction
from functools import cache

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
                "complete": {"type": "boolean"},
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


class _UnknownKeyword(Exception):
    """A schema keyword ``_conforms`` does not interpret."""


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}


def _valid(x, schema) -> bool:
    """Draft 2020-12 validity of ``x`` as jsonschema decides it, for the
    keywords of INPUT_SCHEMA.  Each keyword but ``type`` constrains only
    instances of its own type.  Any other keyword raises _UnknownKeyword
    rather than returning False: inside ``oneOf`` a False branch could
    leave exactly one other branch valid and so accept the instance."""
    for key, value in schema.items():
        if key in ("$schema", "title"):
            continue
        if key == "type":
            if not isinstance(value, str) or value not in _TYPES:
                raise _UnknownKeyword(key)
            ok = _TYPES[value](x)
        elif key == "properties":
            ok = not isinstance(x, dict) or all(
                _valid(x[k], sub) for k, sub in value.items() if k in x)
        elif key == "required":
            ok = not isinstance(x, dict) or all(k in x for k in value)
        elif key == "additionalProperties" and value is False:
            ok = not isinstance(x, dict) or all(
                k in schema.get("properties", {}) for k in x)
        elif key == "items":
            ok = not isinstance(x, list) or all(_valid(e, value) for e in x)
        elif key == "minItems":
            ok = not isinstance(x, list) or len(x) >= value
        elif key == "minLength":
            ok = not isinstance(x, str) or len(x) >= value
        elif key == "minimum":
            ok = not _TYPES["number"](x) or not x < value
        elif key == "maximum":
            ok = not _TYPES["number"](x) or not x > value
        elif key == "pattern":
            ok = not isinstance(x, str) or re.search(value, x) is not None
        elif key == "const" and isinstance(value, str):
            ok = isinstance(x, str) and x == value
        elif key == "enum" and all(isinstance(e, str) for e in value):
            ok = isinstance(x, str) and x in value
        elif key == "oneOf":
            ok = sum(_valid(x, sub) for sub in value) == 1
        else:
            raise _UnknownKeyword(key)
        if not ok:
            return False
    return True


def _conforms(instance, schema) -> bool:
    """True only if ``instance`` is valid under ``schema``.  False when it
    is not, or when the schema holds a keyword ``_valid`` does not
    interpret: a schema edit can then only send a document on to
    jsonschema, never wave it through."""
    try:
        return _valid(instance, schema)
    except _UnknownKeyword:
        return False


@cache
def _validator():
    """The schema's validator, built on first use only."""
    from jsonschema.validators import validator_for

    return validator_for(INPUT_SCHEMA)(INPUT_SCHEMA)


@cache
def _weight_fn_validator():
    """The same validator for a standalone ``weight_fn`` block."""
    return _validator().evolve(schema=INPUT_SCHEMA["properties"]["weight_fn"])


def _best_error(validator, instance):
    from jsonschema.exceptions import best_match

    return best_match(validator.iter_errors(instance))


def validate_document(doc: dict):
    e = None if _conforms(doc, INPUT_SCHEMA) else _best_error(_validator(), doc)
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise SchemaValidationError(f"at {path}: {e.message}") from e
    if "root_system" in doc and "dh" in doc:
        raise SchemaValidationError(
            "give either root_system or dh, not both")


def validate_weight_fn(block):
    """Schema check of a ``weight_fn`` block given on its own; the message
    is that of the best-matching schema error."""
    if _conforms(block, INPUT_SCHEMA["properties"]["weight_fn"]):
        return
    e = _best_error(_weight_fn_validator(), block)
    if e is not None:
        raise SchemaValidationError(e.message) from e


def parse_weight_fn(block: dict | None) -> WeightFn | None:
    if block is None:
        return None
    if "constant" in block:
        return ConstantWeight(_fraction(block["constant"]))
    if "polynomial" in block:
        p = block["polynomial"]
        dim = int(p["dim"])
        terms = {tuple(map(int, t["exponent"])): _fraction(t["coeff"]) for t in p["terms"]}
        for e in terms:
            if len(e) != dim:
                raise SchemaValidationError("polynomial exponent length != dim")
        return PolynomialWeight(Polynomial(dim, terms))
    if "affine_power" in block:
        ap = block["affine_power"]
        return AffinePowerWeight(_ratvec(ap["xi"]), _fraction(ap["a"]),
                                 ap["exponent"])
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
        complete=var.get("complete", True),
    )
    g = parse_weight_fn(doc.get("weight_fn"))
    check_weight_dimension(g, projection, "weight_fn")
    return si, g


def load_input(path: str) -> tuple[SphericalInput, WeightFn | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaValidationError(f"invalid JSON: {e}") from e
    return parse_input_document(doc)
