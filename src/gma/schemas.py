"""JSON Schemas for the command-line configs.

Every config carries schemaVersion = 1 and is validated before any
computation; unknown keys are rejected.  Rationals (toric configs) are
written as integers or "p/q" strings so the checker stays exact.
"""

from __future__ import annotations

import jsonschema

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
# the 3-D hull search costs about C(V,3) V: about 0.15 s at 32 random vertices, 2-3 s at 64
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


_VALIDATORS = {
    key: jsonschema.validators.validator_for(schema)(schema)
    for key, schema in SCHEMAS.items()
}


class SchemaError(ValueError):
    pass


def validate(command, subcommand, config):
    """Validate a config document; raises SchemaError with a readable path."""
    try:
        validator = _VALIDATORS[(command, subcommand)]
    except KeyError:
        raise SchemaError(f"no schema for {command} {subcommand}") from None
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        message, instance = error.message, error.instance
        if isinstance(instance, list):  # an array by its length, not its contents
            message = message.replace(repr(instance), f"array of length {len(instance)}")
        raise SchemaError(f"config invalid at {where}: {message}")
