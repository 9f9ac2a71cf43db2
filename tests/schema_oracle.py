"""jsonschema as the oracle of `gma.schemas.validate`.

`reference_error` is the validation `gma.schemas` ran on jsonschema before
it had a validator of its own: `best_match` over `iter_errors`, located and
worded as `validate` words it.  `disagreements` runs a config through both
validators against every schema.
"""

import jsonschema

from gma.schemas import SCHEMAS, SchemaError, validate

_ORACLES = {key: jsonschema.validators.validator_for(s)(s) for key, s in SCHEMAS.items()}


def reference_error(key, config):
    """jsonschema's one-line verdict on config: None, or the SchemaError message."""
    error = jsonschema.exceptions.best_match(_ORACLES[key].iter_errors(config))
    if error is None:
        return None
    where = "/".join(str(p) for p in error.absolute_path) or "<root>"
    message, instance = error.message, error.instance
    if isinstance(instance, list):
        message = message.replace(repr(instance), f"array of length {len(instance)}")
    return f"config invalid at {where}: {message}"


def gma_error(key, config):
    """`gma.schemas.validate`'s verdict on config: None, or its SchemaError message."""
    try:
        validate(*key, config)
    except SchemaError as exc:
        return str(exc)
    return None


def disagreements(config, keys=SCHEMAS):
    """(key, gma's verdict, jsonschema's verdict) for each schema on which they differ."""
    found = []
    for key in keys:
        ours, theirs = gma_error(key, config), reference_error(key, config)
        if ours != theirs:
            found.append((key, ours, theirs))
    return found
