"""Grid file format: one-line JSON header + raw little-endian float64.

Layout: a single UTF-8 JSON line (terminated by ``\n``) holding the
dimension, grid shape and byte order, followed immediately by the raw
array bytes in row-major order.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HEADER_KEYS = {"schema_version", "n", "grid_shape", "byte_order", "dtype"}


def write_grid(path, values):
    values = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    if not np.all(np.isfinite(values)):
        raise ValueError("write_grid: non-finite values")
    header = {
        "schema_version": 1,
        "n": values.ndim,
        "grid_shape": list(values.shape),
        "byte_order": "little",
        "dtype": "float64",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(values.tobytes(order="C"))


def read_grid(path):
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"grid file {path}: malformed header") from exc
        if not isinstance(header, dict) or not HEADER_KEYS <= set(header):
            raise ValueError(f"grid file {path}: header misses required keys")
        if header["byte_order"] != "little" or header["dtype"] != "float64":
            raise ValueError(f"grid file {path}: unsupported encoding")
        shape = header["grid_shape"]
        if not isinstance(shape, list) or not all(type(s) is int and s > 0 for s in shape):
            raise ValueError(f"grid file {path}: grid_shape must list positive integers")
        if len(shape) != header["n"]:
            raise ValueError(f"grid file {path}: shape/dimension mismatch")
        nbytes = 8 * math.prod(shape)  # Python integers, so no wraparound
        if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"grid file {path}: truncated payload")
        values = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(shape)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid file {path}: non-finite values")
    return values.copy()
