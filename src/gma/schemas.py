"""JSON Schemas for the command-line configs, and their validator.

Every config carries schemaVersion = 1 and is validated before any
computation; unknown keys are rejected.  Rationals (toric configs) are
written as integers or "p/q" strings so the checker stays exact.

The validator implements the 14 keywords the schemas use, with draft
2020-12 semantics: `type`, `properties`, `required`,
`additionalProperties`, `items`, `minItems`, `maxItems`, `minimum`,
`maximum`, `exclusiveMinimum`, `const`, `enum`, `oneOf` and `pattern`.
Each schema is compiled once, at import, into nested closures.  A
rejected config is reported by its most relevant error, ranked as
jsonschema's `best_match` ranks them, in jsonschema's wording.
"""

from __future__ import annotations

import numbers
import re

SCHEMA_VERSION = 1

_NUMBER = {"type": "number"}
# `pattern` ignores non-strings, so integers pass it unchecked
_RATIONAL = {"type": ["integer", "string"], "pattern": r"^-?\d+(/[1-9]\d*)?$"}
_GRID_SHAPE = {
    "type": "array",
    "items": {"type": "integer", "minimum": 8},
    "minItems": 1,
    "maxItems": 3,
}
_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": _NUMBER, "minItems": 1, "maxItems": 3},
    "minItems": 1,
    "maxItems": 3,
}
_COEFFS = {"type": "array", "items": {"type": "number", "minimum": 0}}
_TRIG = {
    "type": "object",
    "properties": {
        "constant": _NUMBER,
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "amplitude": _NUMBER,
                    "wave": {"type": "array", "items": {"type": "integer"}},
                    "phase": _NUMBER,
                },
                "required": ["amplitude", "wave"],
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}
_POINT2 = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
_SMOOTH = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"type": {"const": "constant"}, "value": _NUMBER},
            "required": ["type", "value"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "quadratic"}, "coefficient": _NUMBER},
            "required": ["type", "coefficient"],
            "additionalProperties": False,
        },
    ]
}
_POTENTIAL = {
    "type": "object",
    "properties": {
        "gamma": {"type": "number", "minimum": 0},
        "center": _POINT2,
        "smooth": _SMOOTH,
    },
    "required": ["gamma", "center"],
    "additionalProperties": False,
}
_DOMAIN = {
    "type": "object",
    "properties": {"lo": _POINT2, "hi": _POINT2},
    "required": ["lo", "hi"],
    "additionalProperties": False,
}
_KERNEL_CHOICE = {
    "type": "object",
    "properties": {"type": {"enum": ["polynomial", "constant"]}},
    "required": ["type"],
    "additionalProperties": False,
}
# the 3-D hull search costs about C(V,3) V: about 0.05 s at 32 random vertices, 0.5-0.9 s at 64
_VERTICES = {
    "type": "array",
    "items": {"type": "array", "items": _RATIONAL, "minItems": 1, "maxItems": 3},
    "minItems": 2,
    "maxItems": 64,
}


def _schema(properties, required):
    props = {"schemaVersion": {"const": SCHEMA_VERSION}}
    props.update(properties)
    return {
        "type": "object",
        "properties": props,
        "required": ["schemaVersion"] + required,
        "additionalProperties": False,
    }


# kernel cone enumerates index subsets, so its n is bounded like the identity sweep's
_KERNEL_N = {"type": "integer", "minimum": 1, "maximum": 8}

_GEOMETRY_PROPS = {
    "n": {"type": "integer", "minimum": 1, "maximum": 3},
    "gridShape": _GRID_SHAPE,
    "chi": _MATRIX,
    "omega0": _MATRIX,
    "c": _COEFFS,
    "scheme": {"enum": ["spectral", "fd"]},
}
_GEOMETRY_REQUIRED = ["n", "gridShape", "chi", "omega0", "c"]

SCHEMAS = {
    ("kernel", "cone"): _schema(
        {
            "n": _KERNEL_N,
            "c": _COEFFS,
            "t": {"type": "number", "minimum": 0, "maximum": 1},
            "lambda": {"type": "array", "items": _NUMBER, "minItems": 1},
        },
        ["n", "c", "lambda"],
    ),
    ("kernel", "fm"): _schema(
        {
            "n": {"type": "integer", "minimum": 1},
            "c": _COEFFS,
            "ratio": {"type": "number", "exclusiveMinimum": 0},
            "kSafety": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
        ["n", "c", "ratio"],
    ),
    ("kernel", "identities"): _schema(
        {
            "nList": {
                "type": "array",
                "items": _KERNEL_N,
                "minItems": 1,
            },
            "samples": {"type": "integer", "minimum": 1, "maximum": 100000},
        },
        [],
    ),
    ("solve", "run"): _schema(
        {
            **_GEOMETRY_PROPS,
            "f": {
                "oneOf": [
                    _TRIG,
                    {
                        "type": "object",
                        "properties": {"gridFile": {"type": "string"}},
                        "required": ["gridFile"],
                        "additionalProperties": False,
                    },
                ]
            },
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
            "dtInit": {"type": "number", "minimum": 1e-4, "maximum": 1},  # solver._DT_MIN
            "referencePhi": _TRIG,
        },
        _GEOMETRY_REQUIRED + ["f"],
    ),
    ("solve", "manufacture"): _schema(
        {
            **_GEOMETRY_PROPS,
            "phi": _TRIG,
        },
        _GEOMETRY_REQUIRED + ["phi"],
    ),
    ("solve", "classpath"): _schema(
        {
            **_GEOMETRY_PROPS,
            "f": _TRIG,
            "sList": {"type": "array", "items": _NUMBER, "minItems": 1},
        },
        _GEOMETRY_REQUIRED + ["f", "sList"],
    ),
    ("toric", "check"): _schema(
        {
            "pOmega": _VERTICES,
            "pChi": _VERTICES,
            "c": {"type": "array", "items": _RATIONAL},
            "faceLabels": {"type": "object", "additionalProperties": {"type": "string"}},
        },
        ["pOmega", "pChi", "c"],
    ),
    ("psh", "mollify"): _schema(
        {
            "potential": _POTENTIAL,
            "kernel": _KERNEL_CHOICE,
            "delta": {"type": "number", "exclusiveMinimum": 0},
            "x": _POINT2,
            "domain": _DOMAIN,
        },
        ["potential", "kernel", "delta", "x"],
    ),
    ("psh", "lelong"): _schema(
        {
            "potential": _POTENTIAL,
            "x": _POINT2,
            "deltaList": {"type": "array", "items": _NUMBER, "minItems": 1},
            "r": {"type": "number", "exclusiveMinimum": 0},
            "domain": _DOMAIN,
        },
        ["potential", "x", "deltaList", "r"],
    ),
    ("psh", "cn"): _schema(
        {
            "kernel": _KERNEL_CHOICE,
            "n": {"type": "integer", "minimum": 1},
        },
        ["kernel", "n"],
    ),
    ("psh", "glue"): _schema(
        {
            **_GEOMETRY_PROPS,
            "t": {"type": "number", "minimum": 0, "maximum": 1},
            "local": _TRIG,
            "global": _TRIG,
            "eta": {"type": "number", "exclusiveMinimum": 0},
            "offset": _NUMBER,
        },
        _GEOMETRY_REQUIRED + ["local", "global", "eta", "offset"],
    ),
}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class SchemaError(ValueError):
    pass


def _is_number(x):
    return type(x) is float or type(x) is int or (
        not isinstance(x, bool) and isinstance(x, numbers.Number))


def _is_integer(x):
    # draft 2020-12: an integral float such as 2.0 is an integer, a boolean is not
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, int) and not isinstance(x, bool)


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "integer": _is_integer,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _equal(one, two):
    """JSON equality of the schemas' scalar consts and enum options: True is not 1, 1.0 is 1."""
    if isinstance(one, bool) or isinstance(two, bool):
        return type(one) is type(two) and one == two
    return one == two


class _Error:
    """One failed keyword: `path` from the instance its schema validates,
    `context` the errors of every `oneOf` branch."""

    __slots__ = ("path", "keyword", "instance", "detail", "leads", "typed", "context")

    def __init__(self, keyword, instance, detail, typed, leads=True, context=()):
        self.path = ()
        self.keyword = keyword
        self.instance = instance
        self.detail = detail  # the message, after the instance's repr when leads
        self.leads = leads
        self.typed = typed  # the instance has the type its schema names
        self.context = context

    def relevance(self):
        """`best_match`'s key: shallow, then late paths, then not oneOf, then mistyped."""
        return (-len(self.path), self.path, self.keyword != "oneOf", not self.typed)

    def message(self):
        message = f"{self.instance!r} {self.detail}" if self.leads else self.detail
        if isinstance(self.instance, list):  # an array by its length, not its contents
            message = message.replace(repr(self.instance), f"array of length {len(self.instance)}")
        return message


def _located(errors, step):
    for error in errors:
        error.path = (step,) + error.path
    return errors


def _compile(schema):
    """check(instance) -> the list of its errors, empty when it is valid.

    Keywords run in the schema's order and every one runs, as in
    jsonschema, so ties in relevance go to the same error."""
    names = schema.get("type", ())
    tests = [_TYPES[name] for name in ((names,) if isinstance(names, str) else names)]
    typed = tests[0] if len(tests) == 1 else lambda x: any(test(x) for test in tests)
    checks = [_KEYWORDS[keyword](value, schema, typed) for keyword, value in schema.items()]

    def check(x):
        errors = []
        for keyword_check in checks:
            found = keyword_check(x)
            if found:
                errors += found
        return errors

    return check


def _type(value, schema, typed):
    names = [value] if isinstance(value, str) else value
    detail = "is not of type " + ", ".join(repr(name) for name in names)

    def check(x):
        if not typed(x):
            return [_Error("type", x, detail, False)]

    return check


def _properties(value, schema, typed):
    children = [(name, _compile(sub)) for name, sub in value.items()]

    def check(x):
        if isinstance(x, dict):
            errors = []
            for name, child in children:
                if name in x:
                    found = child(x[name])
                    if found:
                        errors += _located(found, name)
            return errors

    return check


def _required(value, schema, typed):
    def check(x):
        if isinstance(x, dict):
            return [_Error("required", x, f"{name!r} is a required property", typed(x),
                           leads=False) for name in value if name not in x]

    return check


def _additional_properties(value, schema, typed):
    known = schema.get("properties", {})
    if value is False:
        def check(x):
            if isinstance(x, dict):
                extras = sorted((name for name in x if name not in known), key=str)
                if extras:
                    names = ", ".join(repr(name) for name in extras)
                    verb = "was" if len(extras) == 1 else "were"
                    detail = f"Additional properties are not allowed ({names} {verb} unexpected)"
                    return [_Error("additionalProperties", x, detail, typed(x), leads=False)]
    else:
        child = _compile(value)

        def check(x):
            if isinstance(x, dict):
                errors = []
                for name in x:
                    if name not in known:
                        found = child(x[name])
                        if found:
                            errors += _located(found, name)
                return errors
    return check


def _items(value, schema, typed):
    child = _compile(value)

    def check(x):
        if isinstance(x, list):
            errors = []
            for index, item in enumerate(x):
                found = child(item)
                if found:
                    errors += _located(found, index)
            return errors

    return check


def _min_items(value, schema, typed):
    detail = "should be non-empty" if value == 1 else "is too short"

    def check(x):
        if isinstance(x, list) and len(x) < value:
            return [_Error("minItems", x, detail, typed(x))]

    return check


def _max_items(value, schema, typed):
    detail = "is expected to be empty" if value == 0 else "is too long"

    def check(x):
        if isinstance(x, list) and len(x) > value:
            return [_Error("maxItems", x, detail, typed(x))]

    return check


def _bound(keyword, fails, detail):
    def compile_bound(value, schema, typed):
        text = f"{detail} {value!r}"

        def check(x):
            if _is_number(x) and fails(x, value):
                return [_Error(keyword, x, text, typed(x))]

        return check

    return compile_bound


def _const(value, schema, typed):
    detail = f"{value!r} was expected"

    def check(x):
        if not _equal(x, value):
            return [_Error("const", x, detail, typed(x), leads=False)]

    return check


def _enum(value, schema, typed):
    detail = f"is not one of {value!r}"

    def check(x):
        if not any(_equal(option, x) for option in value):
            return [_Error("enum", x, detail, typed(x))]

    return check


def _one_of(value, schema, typed):
    branches = [_compile(sub) for sub in value]

    def check(x):
        context = []
        for index, branch in enumerate(branches):
            found = branch(x)
            if not found:
                break
            context += found
        else:
            return [_Error("oneOf", x, "is not valid under any of the given schemas", typed(x),
                           context=context)]
        also = [value[j] for j in range(index + 1, len(value)) if not branches[j](x)]
        if also:
            schemas = ", ".join(repr(sub) for sub in also + [value[index]])
            return [_Error("oneOf", x, f"is valid under each of {schemas}", typed(x))]

    return check


def _pattern(value, schema, typed):
    regex = re.compile(value)
    detail = f"does not match {value!r}"

    def check(x):
        if isinstance(x, str) and not regex.search(x):
            return [_Error("pattern", x, detail, typed(x))]

    return check


_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _bound("minimum", lambda x, v: x < v, "is less than the minimum of"),
    "maximum": _bound("maximum", lambda x, v: x > v, "is greater than the maximum of"),
    "exclusiveMinimum": _bound("exclusiveMinimum", lambda x, v: x <= v,
                               "is less than or equal to the minimum of"),
    "const": _const,
    "enum": _enum,
    "oneOf": _one_of,
    "pattern": _pattern,
}

_CHECKS = {key: _compile(schema) for key, schema in SCHEMAS.items()}


def _best_match(errors):
    """(path, error) of the error `best_match` picks: the most relevant one, and
    inside a failed oneOf the most relevant branch error while it is unique."""
    best = max(errors, key=_Error.relevance)
    path = best.path
    while best.context:
        ranked = sorted(best.context, key=_Error.relevance)
        if len(ranked) > 1 and ranked[0].relevance() == ranked[1].relevance():
            break
        best = ranked[0]
        path += best.path
    return path, best


def validate(command, subcommand, config):
    """Validate a config document; raises SchemaError with a readable path."""
    try:
        check = _CHECKS[(command, subcommand)]
    except KeyError:
        raise SchemaError(f"no schema for {command} {subcommand}") from None
    errors = check(config)
    if errors:
        path, error = _best_match(errors)
        where = "/".join(str(p) for p in path) or "<root>"
        raise SchemaError(f"config invalid at {where}: {error.message()}")
