"""Grid file round trips: JSON-line header plus raw little-endian payload."""

import json

import numpy as np
import pytest

from gma.gridio import read_grid, write_grid


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((6, 4, 8))
    path = tmp_path / "field.grid"
    write_grid(path, values)
    back = read_grid(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, values)


def test_header_is_json_first_line(tmp_path):
    path = tmp_path / "field.grid"
    write_grid(path, np.zeros((4, 4)))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
    assert header["n"] == 2
    assert header["grid_shape"] == [4, 4]
    assert header["byte_order"] == "little"
    assert header["dtype"] == "float64"


def test_read_rejects_malformed_inputs(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_bytes(b"not json\n\x00\x00")
    with pytest.raises(ValueError, match="header"):
        read_grid(path)

    path.write_bytes(b'{"n": 1}\n')
    with pytest.raises(ValueError, match="keys"):
        read_grid(path)

    good = tmp_path / "good.grid"
    write_grid(good, np.ones(8))
    payload = good.read_bytes()
    (tmp_path / "short.grid").write_bytes(payload[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_grid(tmp_path / "short.grid")


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_grid(tmp_path / "nan.grid", np.array([1.0, np.inf]))


@pytest.mark.parametrize(
    "shape, match",
    [
        ([-8, 8], "positive integers"),
        ([0, 8], "positive integers"),
        ([8.0, 8], "positive integers"),
        ([True, 8], "positive integers"),
        ("88", "positive integers"),
        ([2**62, 4], "truncated"),
        ([2**64, 2**64], "truncated"),
    ],
)
def test_read_rejects_bad_grid_shape_before_reading(tmp_path, shape, match):
    # the payload holds one value; a declared size is checked against it first
    header = {"schema_version": 1, "n": 2, "grid_shape": shape,
              "byte_order": "little", "dtype": "float64"}
    path = tmp_path / "bad.grid"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(8))
    with pytest.raises(ValueError, match=rf"^grid file .*: .*{match}"):
        read_grid(path)
