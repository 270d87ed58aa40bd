import json
import re
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poolattn import ops
from poolattn.dpt import MAGIC, read_dpt, read_tensor, write_dpt
from poolattn.errors import DimensionError, DptFormatError
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
    # The writer refuses a zero-size dim, as both readers do.
    never = tmp_path / "never-written.dpt"
    with pytest.raises(DptFormatError, match=re.escape(f"{never}: shape must be")):
        write_dpt(never, np.ones((2, 0)))
    assert not never.exists()
    # The JSON form holds to the same ranks as DPT files.
    path = tmp_path / "t.json"
    for shape, data in (([], [3]), ([1, 1, 1, 1, 2], [1, 2])):
        path.write_text(json.dumps({"shape": shape, "data": data}))
        message = f"{path}: rank {len(shape)} outside 1..4"
        with pytest.raises(DptFormatError, match=re.escape(message)):
            read_tensor(path)
    # A shape is a list of integers: nothing is cast to one.
    for shape in ("12", [2.7], [True, 2], [2.0], {"0": 2}):
        path.write_text(json.dumps({"shape": shape, "data": [1, 2]}))
        with pytest.raises(DptFormatError, match=re.escape(f"{path}: shape must be")):
            read_tensor(path)
    # The data must be numbers too: a boolean or a string is not cast to one.
    for data in ([True, False], [True, 1], [1, "2"], [1, None], [[1], [2, 3]]):
        path.write_text(json.dumps({"shape": [2], "data": data}))
        with pytest.raises(DptFormatError, match=re.escape(f"{path}: JSON tensor data must")):
            read_tensor(path)


def _rule_cases(dtype):
    shapes = hnp.array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=3)
    elements = (None if dtype == np.int32 else
                st.floats(allow_nan=False, allow_infinity=False, width=8 * dtype().itemsize))
    return hnp.arrays(dtype, shapes, elements=elements)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([np.float32, np.float64, np.int32]).flatmap(_rule_cases))
def test_writer_and_readers_hold_to_the_ops_rule(tmp_path_factory, arr):
    # `write_dpt` takes exactly the arrays of rank 1..4, DPT's own bound, that the `ops`
    # operand rule takes, `read_dpt` returns each bit for bit, and the JSON form takes
    # exactly the same shapes.
    def accepted(a):
        if not 1 <= a.ndim <= 4:
            return False
        try:
            ops._check_dims(a, "rule", a.ndim)
        except DimensionError:
            return False
        return True

    base = tmp_path_factory.getbasetemp()
    path = base / "rule.dpt"
    path.unlink(missing_ok=True)
    if accepted(arr):
        write_dpt(path, arr)
        back = read_dpt(path)
        assert (back.dtype, back.shape, back.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())
    else:
        with pytest.raises(DptFormatError):
            write_dpt(path, arr)
        assert not path.exists()
    as_float = arr if arr.dtype.kind == "f" else arr.astype(np.float64)
    json_path = base / "rule.json"
    json_path.write_text(json.dumps({"shape": list(arr.shape),
                                     "data": as_float.reshape(-1).tolist(),
                                     "dtype": ops.dtype_name(as_float.dtype)}))
    if accepted(as_float):
        back = read_tensor(json_path)
        assert (back.dtype, back.shape, back.tobytes()) == (as_float.dtype, as_float.shape,
                                                            as_float.tobytes())
    else:
        with pytest.raises(DptFormatError):
            read_tensor(json_path)


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


@pytest.mark.parametrize("text, message", [("1e309", "overflows f64"),
                                           ("-1e309", "overflows f64"),
                                           ("Infinity", "holds NaN or Inf"),
                                           ("NaN", "holds NaN or Inf")])
def test_json_tensor_overflow_is_not_reported_as_inf(tmp_path, text, message):
    # A finite decimal beyond f64's range is a value the reader cannot hold; the literals
    # Infinity and NaN are values it refuses.
    path = tmp_path / "t.json"
    for dtype in ("f64", "f32"):
        path.write_text(f'{{"shape": [2], "data": [1.5, {text}], "dtype": "{dtype}"}}')
        with pytest.raises(DptFormatError, match=message):
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
