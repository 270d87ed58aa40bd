import json
import re
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poolattn.dpt import MAGIC, read_dpt, read_tensor, write_dpt
from poolattn.errors import DptFormatError
from poolattn.rng import Rng


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (2, 2, 3, 2)])
def test_round_trip_bitwise(tmp_path, dtype, shape):
    arr = Rng(5).fill_uniform(shape, 100.0, dtype)
    path = tmp_path / "t.dpt"
    write_dpt(path, arr)
    back = read_dpt(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def _finite_arrays(dtype):
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=4, max_side=5),
                      elements=st.floats(allow_nan=False, allow_infinity=False,
                                         width=8 * np.dtype(dtype).itemsize))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(_finite_arrays))
def test_round_trip_property(tmp_path_factory, arr):
    # Any finite f32/f64 tensor of rank 1-4, subnormals, -0.0 and extremes included.
    path = tmp_path_factory.getbasetemp() / "round-trip.dpt"
    write_dpt(path, arr)
    back = read_tensor(path)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr) and back.tobytes() == arr.tobytes()


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.dpt"
    write_dpt(path, np.ones((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(DptFormatError, match="payload length mismatch"):
        read_dpt(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "t.dpt"
    write_dpt(path, np.ones(3))
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(DptFormatError, match="magic"):
        read_dpt(path)


def test_bad_version(tmp_path):
    path = tmp_path / "t.dpt"
    write_dpt(path, np.ones(3))
    data = bytearray(path.read_bytes())
    data[8] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(DptFormatError, match="version"):
        read_dpt(path)


def test_rejects_unsupported_rank_and_dtype(tmp_path):
    with pytest.raises(DptFormatError):
        write_dpt("/tmp/never-written.dpt", np.ones((2, 2, 2, 2, 2)))
    with pytest.raises(DptFormatError):
        write_dpt("/tmp/never-written.dpt", np.ones(3, dtype=np.int32))
    # The JSON form holds to the same ranks as DPT files and `ops`.
    path = tmp_path / "t.json"
    for shape, data in (([], [3]), ([1, 1, 1, 1, 2], [1, 2])):
        path.write_text(json.dumps({"shape": shape, "data": data}))
        message = f"{path}: rank {len(shape)} outside 1..4"
        with pytest.raises(DptFormatError, match=re.escape(message)):
            read_tensor(path)


def test_json_tensor_form(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": [2, 2], "data": [1, 2, 3, 4]}))
    arr = read_tensor(path)
    assert arr.dtype == np.float64
    assert np.array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])
    path.write_text(json.dumps({"shape": [2], "data": [1, 2], "dtype": "f32"}))
    assert read_tensor(path).dtype == np.float32


def test_json_tensor_shape_mismatch(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": [3], "data": [1, 2]}))
    with pytest.raises(DptFormatError):
        read_tensor(path)


def test_read_tensor_dispatches_on_magic(tmp_path):
    path = tmp_path / "t.dpt"
    arr = Rng(6).fill_uniform((3, 3), 1.0)
    write_dpt(path, arr)
    assert path.read_bytes()[:8] == MAGIC
    assert np.array_equal(read_tensor(path), arr)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"\x00\x01\x02 not a tensor at all")
    with pytest.raises(DptFormatError):
        read_tensor(path)


def test_read_tensor_reads_the_file_once(tmp_path, monkeypatch):
    arr = Rng(7).fill_uniform((2, 3), 1.0)
    dpt_path = tmp_path / "t.dpt"
    write_dpt(dpt_path, arr)
    json_path = tmp_path / "t.json"
    json_path.write_text(json.dumps({"shape": [2, 3], "data": arr.reshape(-1).tolist()}))
    reads = []
    original = pathlib.Path.read_bytes

    def counted(self):
        reads.append(self)
        return original(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counted)
    for path in (dpt_path, json_path):
        reads.clear()
        assert np.array_equal(read_tensor(path), arr)
        assert reads == [path]
