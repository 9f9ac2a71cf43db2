"""The config validator of `gma.schemas` against jsonschema as an oracle.

Every config that `tests/test_cli.py` writes is checked as it is written
(see `write_config` there); the tests here add the benchmark's configs and
mutations of one full config per schema: each keyword of each schema is
pushed to both sides of its edge.  Both validators must accept the same
configs and word each rejection the same, byte for byte.
"""

import copy
import json
import math
import sys
from pathlib import Path

import jsonschema
import pytest
from schema_oracle import disagreements, gma_error, reference_error

import gma.schemas
from gma.schemas import SCHEMAS

GEOMETRY = {
    "schemaVersion": 1,
    "n": 2,
    "gridShape": [16, 16],
    "chi": [[1.0, 0.0], [0.0, 1.0]],
    "omega0": [[1.2, 0.1], [0.1, 1.0]],
    "c": [0.5],
    "scheme": "spectral",
}
TRIG = {"constant": 0.1, "terms": [{"amplitude": 0.01, "wave": [1, 0], "phase": 0.3}]}
POTENTIAL = {"gamma": 0.7, "center": [0.1, -0.2], "smooth": {"type": "constant", "value": 1.0}}
DOMAIN = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}

# one or more configs per schema that set every optional key, one per oneOf branch
FULL_CONFIGS = {
    ("kernel", "cone"): [{"schemaVersion": 1, "n": 2, "c": [1.0], "t": 0.5, "lambda": [1.0, 2.0]}],
    ("kernel", "fm"): [{"schemaVersion": 1, "n": 2, "c": [1.0], "ratio": 1.0, "kSafety": 0.5}],
    ("kernel", "identities"): [{"schemaVersion": 1, "nList": [1, 3], "samples": 10}],
    ("solve", "run"): [
        {**GEOMETRY, "f": TRIG, "tolerance": 1e-9, "dtInit": 0.5, "referencePhi": TRIG},
        {**GEOMETRY, "f": {"gridFile": "f.grid"}},
    ],
    ("solve", "manufacture"): [{**GEOMETRY, "phi": TRIG}],
    ("solve", "classpath"): [{**GEOMETRY, "f": TRIG, "sList": [0.0, 0.5]}],
    ("toric", "check"): [{
        "schemaVersion": 1,
        "pOmega": [[0, 0], [2, 0], [0, "3/2"]],
        "pChi": [[0, 0], [1, 0], [0, 1]],
        "c": ["1/2"],
        "faceLabels": {"-1,-1": "E"},
    }],
    ("psh", "mollify"): [
        {"schemaVersion": 1, "potential": POTENTIAL, "kernel": {"type": "polynomial"},
         "delta": 0.05, "x": [0.1, -0.2], "domain": DOMAIN},
        {"schemaVersion": 1,
         "potential": {**POTENTIAL, "smooth": {"type": "quadratic", "coefficient": 0.5}},
         "kernel": {"type": "constant"}, "delta": 0.05, "x": [0.1, -0.2]},
    ],
    ("psh", "lelong"): [{"schemaVersion": 1, "potential": POTENTIAL, "x": [0.1, -0.2],
                         "deltaList": [0.02, 0.01], "r": 0.4, "domain": DOMAIN}],
    ("psh", "cn"): [{"schemaVersion": 1, "kernel": {"type": "constant"}, "n": 1}],
    ("psh", "glue"): [{**GEOMETRY, "t": 1.0, "local": TRIG, "global": {"constant": 0.0},
                       "eta": 0.5, "offset": 0.0}],
}

# one value of each JSON type, plus the numbers at which integer and bounds turn
SAMPLES = [None, True, False, 0, 1, -1, 2.0, 1.5, -0.0, 1e300, 5e-324, 10**300,
           "", "x", "1/2", [], [1], [None, "a"], {}, {"a": 1}]
RATIONAL_TEXTS = ["-3/4", "12", "1/0", "1/2/3", "1/-2", "01/07", "a", "1\n", " 1", "٣", ""]


def _keywords(schema):
    """Every keyword used in schema and in the schemas nested in it."""
    found = set(schema)
    for key, value in schema.items():
        if key == "properties":
            subs = value.values()
        elif key == "oneOf":
            subs = value
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            subs = [value]
        else:
            subs = []
        for sub in subs:
            found |= _keywords(sub)
    return found


def _bound_values(bound):
    return [bound, bound - 1, bound + 1, bound * (1 - 2**-52), bound * (1 + 2**-52),
            float(bound), True, str(bound)]


def _mutations(schema, x):
    """(keyword, instance) pairs: x changed at or below the schema's keywords,
    at least one per keyword occurrence that x reaches."""
    out = []
    for key, value in schema.items():
        if key == "type":
            out += [("type", s) for s in SAMPLES]
        elif key == "properties" and isinstance(x, dict):
            for name, sub in value.items():
                if name in x:
                    out.append(("properties", {**x, name: None}))
                    out += [(k, {**x, name: y}) for k, y in _mutations(sub, x[name])]
        elif key == "required" and isinstance(x, dict):
            out += [("required", {k: v for k, v in x.items() if k != name}) for name in value]
            out.append(("required", {}))
        elif key == "additionalProperties" and isinstance(x, dict):
            if value is False:
                out += [("additionalProperties", {**x, "bogus": 1}),
                        ("additionalProperties", {**x, "zz": [], "aa": None, "B": 2})]
            else:
                out += [("additionalProperties", {**x, "extra": s}) for s in SAMPLES]
                out += [("additionalProperties", {**x, "z": None, "a": 1})]
                for name in [n for n in x if n not in schema.get("properties", {})]:
                    out += [(k, {**x, name: y}) for k, y in _mutations(value, x[name])]
        elif key == "items" and isinstance(x, list):
            out += [("items", x + [s]) for s in (None, "x", 1.5)]
            for i in sorted({0, len(x) - 1} if x else ()):  # the first and the last item
                out += [(k, x[:i] + [y] + x[i + 1:]) for k, y in _mutations(value, x[i])]
        elif key == "minItems" and isinstance(x, list):
            out += [("minItems", x[:value - 1]), ("minItems", x[:value])]
        elif key == "maxItems" and isinstance(x, list) and x:
            out += [("maxItems", x + [x[-1]] * (value - len(x) + extra)) for extra in (0, 1)]
        elif key in ("minimum", "maximum", "exclusiveMinimum"):
            out += [(key, v) for v in _bound_values(value)]
        elif key == "const":
            near = value.upper() if isinstance(value, str) else float(value)
            out += [("const", v) for v in (value, near, True, str(value), [value], 2)]
        elif key == "enum":
            options = value + [value[0].upper(), "nope", value, None]
            out += [("enum", v) for v in options]
        elif key == "oneOf":
            out += [("oneOf", {}), ("oneOf", [])]
            out += [("oneOf", {**x, **y}) for y in ({"gridFile": "f.grid"}, {"type": "constant"})
                    if isinstance(x, dict)]
            for sub in value:
                out += _mutations(sub, x)
        elif key == "pattern":
            out += [("pattern", v) for v in RATIONAL_TEXTS + [2.0, 1.5, True]]
    return out


def _cases():
    for key, configs in FULL_CONFIGS.items():
        for index, config in enumerate(configs):
            yield pytest.param(key, config, id=f"{'-'.join(key)}-{index}")


def test_full_configs_cover_every_schema_and_are_valid():
    assert set(FULL_CONFIGS) == set(SCHEMAS)
    for key, configs in FULL_CONFIGS.items():
        for config in configs:
            assert gma_error(key, config) is None
            assert reference_error(key, config) is None


def test_schemas_use_exactly_the_validated_keywords():
    used = set().union(*map(_keywords, SCHEMAS.values()))
    assert used == {"type", "properties", "required", "additionalProperties", "items",
                    "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
                    "const", "enum", "oneOf", "pattern"}


@pytest.mark.parametrize("key", sorted(SCHEMAS), ids="-".join)
def test_every_keyword_of_every_schema_is_mutated(key):
    mutated = {k for config in FULL_CONFIGS[key] for k, _ in _mutations(SCHEMAS[key], config)}
    assert mutated == _keywords(SCHEMAS[key])


@pytest.mark.parametrize("key, config", _cases())
def test_validator_agrees_with_jsonschema_on_every_mutation(key, config):
    mutations = _mutations(SCHEMAS[key], copy.deepcopy(config))
    verdicts = []
    for keyword, mutated in mutations:
        found = disagreements(mutated, keys=[key])
        assert found == [], (keyword, mutated)
        verdicts.append(gma_error(key, mutated) is None)
    assert any(verdicts) and not all(verdicts)


def test_validator_agrees_with_jsonschema_on_the_benchmark_configs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    for name in workloads.WORKLOADS:
        for seed in (0, 1):
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir()
            # the solver workload manufactures its sources first; only its configs matter here
            workloads.prepare(name, seed, workdir, lambda argv: (0, ""))
            written = sorted(workdir.glob("*.json"))
            assert written
            for path in written:
                assert disagreements(json.loads(path.read_text())) == [], path.name


@pytest.mark.parametrize("schema, instance", [
    # overlapping branches: valid under both is not valid under oneOf
    ({"oneOf": [{"type": "number"}, {"minimum": 0}]}, 3),
    ({"oneOf": [{"type": "number"}, {"minimum": 0}]}, -3),
    ({"oneOf": [{"type": "number"}, {"minimum": 0}]}, "x"),
    ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, 2.0),
    ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, True),
    ({"type": "array", "items": {"type": "integer"}, "maxItems": 0}, [[1], 2.5]),
    ({"enum": ["a", 1]}, [1]),
    ({"enum": ["a", 1]}, True),
    # the branch error whose instance has its schema's type ranks first
    ({"oneOf": [{"type": "string"}, {"type": "integer", "minimum": 5}]}, 2),
    ({"pattern": "b"}, "ab"),  # a search, not a match from the start
    ({"const": 0}, False),
    ({"const": 0}, -0.0),
    ({"type": "number", "exclusiveMinimum": 0, "maximum": 1}, math.nan),
    ({"type": "number", "exclusiveMinimum": 0, "maximum": 1}, math.inf),
])
def test_keyword_semantics_match_jsonschema_beyond_the_schemas(schema, instance):
    check = gma.schemas._compile(schema)
    oracle = jsonschema.validators.validator_for(schema)(schema)
    assert (not check(instance)) == oracle.is_valid(instance)
    best = jsonschema.exceptions.best_match(oracle.iter_errors(instance))
    if best is not None:
        path, error = gma.schemas._best_match(check(instance))
        assert (list(path), error.message()) == (
            list(best.absolute_path),
            best.message.replace(repr(instance), f"array of length {len(instance)}")
            if isinstance(instance, list) else best.message,
        )
