"""DPT binary tensor files plus the hand-editable JSON tensor form.

Layout, all little-endian:
    magic   8 bytes  b"DPTENSOR"
    version 1 byte   0x01
    dtype   1 byte   0 = float32, 1 = float64
    rank    1 byte   1..4
    dims    rank x uint32
    payload row-major values

A JSON file {"shape": [...], "data": [...], "dtype": "f64"} is accepted
anywhere a DPT file is, for small hand-written fixtures. read_tensor also
rejects NaN and Inf, so a bad input is reported as a format error that
names the file.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DptFormatError
from .ops import _ALLOWED, DTYPES     # _ALLOWED is indexed by the dtype code

MAGIC = b"DPTENSOR"
VERSION = 1


def _check_shape(path: str | Path, shape) -> tuple[int, ...]:
    """The shape rule of DPT files and JSON tensors: rank 1..4, the format's own bound,
    and every dim an integer >= 1, as `ops` requires."""
    if not isinstance(shape, (list, tuple)) or not all(type(d) is int and d >= 1 for d in shape):
        raise DptFormatError(f"{path}: shape must be a list of integers >= 1, got {shape!r}")
    if not 1 <= len(shape) <= 4:
        raise DptFormatError(f"{path}: rank {len(shape)} outside 1..4")
    return tuple(shape)


def write_dpt(path: str | Path, arr: np.ndarray) -> None:
    _check_shape(path, np.shape(arr))       # before ascontiguousarray makes 0-d arrays 1-d
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _ALLOWED:
        raise DptFormatError(f"DPT stores float32/float64 only, got {arr.dtype}")
    header = MAGIC + struct.pack("<BBB", VERSION, _ALLOWED.index(arr.dtype), arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as f:       # the payload goes from the array's own buffer
        f.write(header)
        f.write(memoryview(arr.astype(arr.dtype.newbyteorder("<"), copy=False)))


def read_dpt(path: str | Path) -> np.ndarray:
    return _parse_dpt(path, Path(path).read_bytes())


def _parse_dpt(path: str | Path, raw: bytes) -> np.ndarray:
    if len(raw) < 11:
        raise DptFormatError(f"{path}: file too short for a DPT header")
    if raw[:8] != MAGIC:
        raise DptFormatError(f"{path}: bad magic {raw[:8]!r}")
    version, code, rank = struct.unpack("<BBB", raw[8:11])
    if version != VERSION:
        raise DptFormatError(f"{path}: unsupported version {version}")
    if code >= len(_ALLOWED):
        raise DptFormatError(f"{path}: unknown dtype code {code}")
    dims_end = 11 + 4 * rank
    if len(raw) < dims_end:
        raise DptFormatError(f"{path}: truncated dims block")
    dims = _check_shape(path, struct.unpack(f"<{rank}I", raw[11:dims_end]))
    dtype = _ALLOWED[code]
    expected = math.prod(dims) * dtype.itemsize
    if len(raw) - dims_end != expected:
        raise DptFormatError(f"{path}: payload length mismatch, expected {expected} bytes, "
                             f"got {len(raw) - dims_end}")
    values = np.frombuffer(raw, dtype=dtype.newbyteorder("<"), offset=dims_end)
    return values.astype(dtype, copy=True).reshape(dims)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a finite tensor from either a DPT file or the JSON form, with one file read."""
    raw = Path(path).read_bytes()
    arr = _parse_dpt(path, raw) if raw[:8] == MAGIC else _read_json_tensor(path, raw)
    if not np.isfinite(arr).all():
        raise DptFormatError(f"{path}: tensor holds NaN or Inf values")
    return arr


def _read_json_tensor(path: str | Path, raw: bytes) -> np.ndarray:
    def finite_float(text: str) -> float:     # json.loads reads 1e309 as inf
        value = float(text)
        if math.isinf(value):
            raise DptFormatError(f"{path}: JSON tensor data overflows f64")
        return value

    try:
        obj = json.loads(raw.decode("utf-8"), parse_float=finite_float)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DptFormatError(f"{path}: neither DPT nor JSON tensor ({exc})") from exc
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise DptFormatError(f"{path}: JSON tensor needs 'shape' and 'data' fields")
    name = obj.get("dtype", "f64")
    if not isinstance(name, str) or name not in DTYPES:
        raise DptFormatError(f"{path}: JSON tensor dtype must be "
                             f"{' or '.join(map(repr, DTYPES))}")
    shape = _check_shape(path, obj["shape"])
    data = np.asarray(obj["data"], dtype=object).reshape(-1)   # no boolean or string cast
    if data.size != math.prod(shape) or any(type(v) not in (int, float) for v in data):
        raise DptFormatError(f"{path}: JSON tensor data must be {math.prod(shape)} numbers "
                             f"for shape {shape}")
    try:
        wide = data.astype(np.float64)
    except OverflowError as exc:      # an integer beyond float64's range
        raise DptFormatError(f"{path}: JSON tensor data overflows {name} ({exc})") from exc
    with np.errstate(over="ignore"):  # a finite number beyond f32's range casts to inf
        arr = wide.astype(DTYPES[name], copy=False)
    if (np.isinf(arr) != np.isinf(wide)).any():
        raise DptFormatError(f"{path}: JSON tensor data overflows {name}")
    return arr.reshape(shape)
