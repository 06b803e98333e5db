"""The schema's own checker: its literal (path, message) per keyword, and
its agreement with jsonschema, the reference."""

import copy
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from conftest import random_toric_input
from kstab.fixtures import BUILTIN_NAMES, builtin_document
from kstab.invariants import barycenter_g, delta_p
from kstab.schema import _RAT, INPUT_SCHEMA, _error, parse_input_document

WEIGHT_SCHEMA = INPUT_SCHEMA["properties"]["weight_fn"]
DOCUMENT_VALIDATOR = validator_for(INPUT_SCHEMA)(INPUT_SCHEMA)
WEIGHT_VALIDATOR = DOCUMENT_VALIDATOR.evolve(schema=WEIGHT_SCHEMA)

# what a mutation puts in place of a value, or under an added key
SUBSTITUTES = (None, True, False, 0, 1.0, math.nan, "1/0", "1\n", [], {})
ADDED_KEYS = ("extra", "rank", "coeff", "constant", "polynomial", "exponent")


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _vec(v) -> list[str]:
    return [_frac(c) for c in v]


def toric_document(si) -> dict:
    """The input document of a toric ``SphericalInput`` (full valuation
    cone), with its density factors when it has any."""
    def records(recs):
        return [{"name": d.name, "rho": _vec(d.rho), "coeff": _frac(d.coeff),
                 "is_color": d.is_color} for d in recs]

    doc = {
        "schema_version": "1",
        "variety": {
            "rank": si.rank,
            "dim_x": si.dim_x,
            "divisors": records(si.divisors),
            "anticanonical_divisors": records(si.anticanonical_divisors),
            "fan": [{"generators": [_vec(g) for g in c.generators],
                     "divisors": list(c.divisor_names)} for c in si.fan],
            "valuation_cone": "all",
            "projection": [_vec(row) for row in si.projection],
        },
    }
    if si.dh.factors:
        doc["dh"] = {"factors": [
            {"normal": _vec(f.form.normal), "offset": _frac(f.form.offset),
             "multiplicity": f.multiplicity} for f in si.dh.factors]}
    return doc


def weight_blocks(dim: int) -> list[dict]:
    xi = ["1/5"] + ["0"] * (dim - 1) if dim else []
    return [
        {"constant": "2"},
        {"constant": 3},
        {"polynomial": {"dim": dim, "terms": [
            {"exponent": [0] * dim, "coeff": "2"},
            {"exponent": [1] * dim, "coeff": -1}]}},
        {"affine_power": {"xi": xi, "a": "3", "exponent": 0.5}},
        {"affine_power": {"xi": xi, "a": 3, "exponent": 2}},
    ]


@st.composite
def documents(draw) -> dict:
    """A valid document: a builtin or a random toric one, with or without
    a weight."""
    if draw(st.booleans()):
        doc = builtin_document(draw(st.sampled_from(BUILTIN_NAMES)))
    else:
        seed = draw(st.integers(min_value=0, max_value=10 ** 6))
        doc = toric_document(random_toric_input(random.Random(seed)))
    weights = weight_blocks(len(doc["variety"]["projection"]))
    weight = draw(st.sampled_from([None, *weights]))
    if weight is not None:
        doc["weight_fn"] = weight
    return doc


def _sites(node):
    """Every (container, key) under ``node``, outermost first."""
    if isinstance(node, (dict, list)):
        for key in list(node.keys() if isinstance(node, dict) else range(len(node))):
            yield node, key
            yield from _sites(node[key])


def mutate(draw, instance):
    """A copy of ``instance`` after up to three mutations: drop an entry,
    add a key, or substitute a value."""
    def substitute():
        return copy.deepcopy(draw(st.sampled_from(SUBSTITUTES)))

    holder = [copy.deepcopy(instance)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        parent, key = draw(st.sampled_from(list(_sites(holder))))
        kind = draw(st.sampled_from(("drop", "add", "substitute")))
        if kind == "drop" and parent is not holder:
            del parent[key]
        elif kind == "add" and isinstance(parent[key], dict):
            parent[key][draw(st.sampled_from(ADDED_KEYS))] = substitute()
        else:
            parent[key] = substitute()
    return holder[0]


def _reference_errors(validator, instance) -> set:
    """Every (path, message) jsonschema reports for ``instance``, with the
    errors inside each ``oneOf``."""
    found = set()
    stack = list(validator.iter_errors(instance))
    while stack:
        e = stack.pop()
        found.add((tuple(e.absolute_path), e.message))
        stack.extend(e.context)
    return found


def _agrees(validator, instance):
    """The checker accepts what jsonschema accepts, and an error it reports
    is one jsonschema reports too, worded alike."""
    error = _error(instance, validator.schema)
    assert (error is None) == validator.is_valid(instance), json.dumps(instance)
    if error is not None:
        assert error in _reference_errors(validator, instance), (json.dumps(instance), error)


def test_builtin_documents_conform():
    for name in BUILTIN_NAMES:
        assert _error(builtin_document(name), INPUT_SCHEMA) is None, name


@settings(max_examples=400, deadline=None)
@given(documents(), st.data())
def test_conforms_agrees_with_jsonschema_on_mutated_documents(doc, data):
    _agrees(DOCUMENT_VALIDATOR, mutate(data.draw, doc))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.data())
def test_conforms_agrees_with_jsonschema_on_mutated_weight_blocks(dim, data):
    block = data.draw(st.sampled_from(weight_blocks(dim)))
    _agrees(WEIGHT_VALIDATOR, mutate(data.draw, block))


_OBJECT_A = {"type": "object", "properties": {"a": {}}, "required": ["a"],
             "additionalProperties": False}
_OBJECT_B = {"type": "object", "properties": {"b": {}}, "required": ["b"],
             "additionalProperties": False}

# one row per keyword branch of the checker and per oneOf outcome: the
# first error, depth first in schema order, as a literal (path, message)
WORDING = [
    ({"type": "integer", "minimum": 1}, 1.0, None),
    ({"type": "integer"}, True, ((), "True is not of type 'integer'")),
    ({"properties": {"a": {"properties": {"b": {"type": "string"}}}}}, {"a": {"b": 1}},
     (("a", "b"), "1 is not of type 'string'")),
    ({"properties": {"b": {"type": "string"}, "a": {"type": "string"}}}, {"a": 1, "b": 2},
     (("b",), "2 is not of type 'string'")),
    ({"required": ["z"], "properties": {"a": {"type": "string"}}}, {"a": 1},
     ((), "'z' is a required property")),
    ({"required": ["a", "b"]}, {"b": 1}, ((), "'a' is a required property")),
    (_OBJECT_A, {"a": 1, "x": 2}, ((), "Additional properties are not allowed ('x' was unexpected)")),
    (_OBJECT_A, {"z": 1, "a": 1, "y": 2},
     ((), "Additional properties are not allowed ('y', 'z' were unexpected)")),
    ({"items": {"type": "integer"}}, [1, "2", None], ((1,), "'2' is not of type 'integer'")),
    ({"minItems": 1}, [], ((), "[] should be non-empty")),
    ({"minItems": 2}, [1], ((), "[1] is too short")),
    ({"minLength": 1}, "", ((), "'' should be non-empty")),
    ({"minLength": 3}, "ab", ((), "'ab' is too short")),
    ({"minimum": 1}, 0, ((), "0 is less than the minimum of 1")),
    ({"maximum": 8}, 9.5, ((), "9.5 is greater than the maximum of 8")),
    ({"pattern": "^a$"}, "b", ((), "'b' does not match '^a$'")),
    ({"const": "all"}, "some", ((), "'all' was expected")),
    ({"enum": ["A", "B"]}, "C", ((), "'C' is not one of ['A', 'B']")),
    # oneOf: the one branch of the instance's type
    ({"oneOf": [{"type": "string", "minLength": 2}, {"type": "integer"}]}, "a",
     ((), "'a' is too short")),
    ({"oneOf": [{"type": "array"}, {"type": "object", "properties": {"a": {"type": "integer"}}}]},
     {"a": "1"}, (("a",), "'1' is not of type 'integer'")),
    # ... else the one of that type whose required keys the instance holds
    ({"oneOf": [_OBJECT_A, _OBJECT_B]}, {"b": 1, "c": 2},
     ((), "Additional properties are not allowed ('c' was unexpected)")),
    # ... else its own message
    ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, None,
     ((), "None is not valid under any of the given schemas")),
    ({"oneOf": [{"const": "all"}, {"type": "array"}]}, "some",
     ((), "'some' is not valid under any of the given schemas")),
    ({"oneOf": [_OBJECT_A, _OBJECT_B]}, {"a": 1, "b": 2},
     ((), "{'a': 1, 'b': 2} is not valid under any of the given schemas")),
    ({"oneOf": [_OBJECT_A, _OBJECT_B]}, {},
     ((), "{} is not valid under any of the given schemas")),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1,
     ((), "1 is valid under each of {'type': 'integer'}, {'type': 'number'}")),
    ({"oneOf": [{"type": "string", "required": ["a"], "minLength": 9},
                {"type": "string", "required": ["z"], "pattern": "^x"}]},
     "abc", ((), "'abc' is not valid under any of the given schemas")),  # required reads objects only
]


@pytest.mark.parametrize("schema, instance, expected", WORDING)
def test_first_error_is_worded_by_the_checker(schema, instance, expected):
    assert _error(instance, schema) == expected


@pytest.mark.parametrize("schema, instance", [row[:2] for row in WORDING])
def test_first_error_is_one_jsonschema_reports(schema, instance):
    _agrees(validator_for(schema)(schema), instance)


@pytest.mark.parametrize("schema, instance", [
    ({"type": "integer"}, True),           # a bool is not an integer
    ({"type": "number"}, False),           # ... nor a number
    ({"type": "integer"}, 2.0),            # an integral float is one
    ({"type": "integer"}, math.inf),
    ({"type": "number", "minimum": 1}, math.nan),
    ({"type": "number", "maximum": 1}, math.nan),
    ({"type": "integer", "minimum": 1, "maximum": 8}, 8.0),
    ({"type": "string", "pattern": r"^\d+$"}, "1\n"),  # `$` matches before a final newline
    ({"type": "string", "pattern": r"^\d+$"}, "x1"),
    ({"type": "string", "minLength": 1}, ""),
    ({"minimum": 1, "minLength": 1, "minItems": 1}, []),  # each keyword reads its own type
    ({"const": "all"}, ["all"]),
    ({"enum": ["A", "B"]}, "C"),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),  # two branches match
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5),
    ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, None),
    (_RAT, "1\n"),
    (_RAT, "\u0661/2"),                     # ARABIC-INDIC DIGIT ONE
])
def test_conforms_agrees_with_jsonschema_on_each_keyword(schema, instance):
    _agrees(validator_for(schema)(schema), instance)


@pytest.mark.parametrize("schema, instance", [
    ({"type": "object", "minProperties": 0}, {}),
    ({"type": "array", "items": {"type": "integer", "multipleOf": 1}}, [1]),
    ({"oneOf": [{"type": "integer", "multipleOf": 1}, {"type": "integer"}]}, 1),
    ({"const": 1}, 1),
    ({"enum": ["A", 1]}, "A"),
    ({"type": ["integer", "string"]}, 1),
    ({"additionalProperties": {"type": "string"}}, {}),
])
def test_an_unknown_keyword_never_conforms(schema, instance):
    # jsonschema may well accept these; the checker refuses to read them
    with pytest.raises(TypeError):
        _error(instance, schema)


@pytest.mark.parametrize("text", ["1\n", "-3/4\n", "\u0661/2", "1/\u0662", "\uff11"])
def test_rationals_are_ascii_digits_to_the_end_of_the_string(text):
    assert _error(text, _RAT) is not None
    assert not validator_for(_RAT)(_RAT).is_valid(text)


def _floats_for_integers(doc: dict) -> dict:
    """A copy of ``doc`` with every integer-typed field as a float."""
    doc = copy.deepcopy(doc)
    var = doc["variety"]
    var["rank"], var["dim_x"] = float(var["rank"]), float(var["dim_x"])
    rs = doc.get("root_system")
    if rs is not None:
        rs["rank"] = float(rs["rank"])
        if rs["active_roots"] != "all":
            rs["active_roots"] = [float(i) for i in rs["active_roots"]]
    for f in doc.get("dh", {}).get("factors", []):
        f["multiplicity"] = float(f["multiplicity"])
    poly = doc.get("weight_fn", {}).get("polynomial")
    if poly is not None:
        poly["dim"] = float(poly["dim"])
        for t in poly["terms"]:
            t["exponent"] = [float(k) for k in t["exponent"]]
    return doc


def _with_density_and_weight(name: str) -> dict:
    doc = builtin_document(name)
    if "root_system" in doc:
        doc["root_system"]["active_roots"] = [0, 2]
    else:
        rank = doc["variety"]["rank"]
        doc["dh"] = {"factors": [{"normal": ["1"] + ["0"] * (rank - 1), "offset": "3",
                                  "multiplicity": 2}]}
    dim = len(doc["variety"]["projection"])
    terms = [{"exponent": [0] * dim, "coeff": "2"}]
    if dim:
        terms.append({"exponent": [2] + [0] * (dim - 1), "coeff": "1"})
    doc["weight_fn"] = {"polynomial": {"dim": dim, "terms": terms}}
    return doc


@pytest.mark.parametrize("name", ["wonderful-a2", "toric-bl1p2"])
def test_integral_floats_are_read_as_integers(name):
    # Draft 2020-12 counts 1.0 as an integer, so these documents are valid
    doc = _with_density_and_weight(name)
    floats = _floats_for_integers(doc)
    assert _error(floats, INPUT_SCHEMA) is None and DOCUMENT_VALIDATOR.is_valid(floats)
    si, g = parse_input_document(doc)
    si_f, g_f = parse_input_document(floats)
    assert type(si_f.rank) is int and type(si_f.dim_x) is int
    assert si_f.dh == si.dh and g_f == g
    assert delta_p(si_f, 2) == delta_p(si, 2)
    assert barycenter_g(si_f, g_f) == barycenter_g(si, g)
