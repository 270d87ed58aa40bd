"""Dense numeric primitives on row-major float32/float64 numpy arrays.

Arrays are the universal value carrier. An entry point checks each array it takes by
the operand rule, `_check_dims` (float32 or float64, the rank the operation names,
every dim >= 1), or by the matching rule, `_check_like` (another operand's shape and
dtype). Operations are pure, but sgd_step updates its parameter arrays in place and
demands exclusive access to them, and softmax and softmax_backward write over their
operand (`in_place=True`) or into a new array, so an attention map is held once.

Finiteness is checked once per stage output, not once per primitive: the
primitives check their operands, not their results, and enter no np.errstate;
each stage of `attention`, `network` and `pooling` runs inside one (`_quiet`)
and checks each output once. softmax's input check is the attention map's, and
cross_entropy_logits and sgd_step are training's loss and update stages. So a
public entry point still raises NonFiniteError on NaN/Inf anywhere. An output check
(`_finite`) is one BLAS dot of squares, and scans the array only when that is not
finite; matmul tests the accepted case in one condition before naming any fault.

softmax makes six passes over each slice of its map: line max, slice min,
subtract, exp, sum, divide. The two extremes are its input check, and they bound
the smallest weight from below, so the subnormal flush runs only on a slice where
a weight can fall below tiny. softmax_backward along axis 0 adds its products a
block of rows at a time, in numpy's order, and holds no slice-sized product.

matmul delegates to numpy's BLAS. It must stay within 1e-12 relative of
the index-ascending reference (`tests/oracles.py` `loop_matmul`) and is
bitwise reproducible call-to-call on one machine. Its operands may be
transposed views (`a.T`): BLAS reads them in place, so callers make no copy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import instrument
from .errors import ConfigurationError, DimensionError, LabelError, NonFiniteError
from .rng import Rng

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
DTYPES = {"f32": F32, "f64": F64}      # the names flags, files and reports use
_ALLOWED = tuple(DTYPES.values())
_TINY = {dtype: float(np.finfo(dtype).tiny) for dtype in _ALLOWED}   # softmax's flush bound
# Entries per slice of the softmax walks; one slice holds a C x C map up to C = 1024.
# A slice is 4 MiB in f32 and 8 MiB in f64, more than a 2 MiB per-core L2. Every
# size gives the same bits, and 2^20 is kept because smaller slices measured no
# faster along rows and slower along columns, where each slice costs numpy calls
# per line: at 2^17 SPA's 325 x 9216 f32 softmax took 18 ms, not 12, and its
# backward 28, not 10 (one BLAS thread, 2-vCPU x86-64).
_SLICE = 1 << 20
# Rows of products that softmax_backward's axis-0 walk adds per numpy sum, after the
# running total, which rides in as the block's first row. At 32 a 35 x 256 f32 backward
# took 0.017 ms, not 0.075 one row at a time, and 325 x 9216 4.5, not 5.4 (timeit
# minima, one BLAS thread, 2-vCPU x86-64).
_ROW_BLOCK = 32

def _quiet(fn):
    """Run a stage inside one np.errstate silencing FP warnings; finiteness is checked
    once per stage output, so a public entry point still raises on NaN/Inf anywhere."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return wrapper


def resolve_dtype(name: str) -> np.dtype:
    """The dtype a name of DTYPES stands for; ConfigurationError for any other name."""
    if name not in DTYPES:
        raise ConfigurationError(f"dtype must be {' or '.join(DTYPES)}, got {name!r}")
    return DTYPES[name]


def dtype_name(dtype) -> str:
    """The DTYPES name of float32/float64; ConfigurationError for any other dtype."""
    dtype = np.dtype(dtype)
    for name, allowed in DTYPES.items():
        if dtype == allowed:
            return name
    raise ConfigurationError(f"dtype {dtype} is not float32/float64")


def _check_dims(a: np.ndarray, op: str, rank: int) -> None:
    """The operand rule: float32 or float64, rank `rank`, every dim >= 1. The first
    fault, in that order, raises DimensionError starting with `op`."""
    if a.dtype not in _ALLOWED:
        raise DimensionError(f"{op}: dtype {a.dtype} is not float32/float64")
    if a.ndim != rank:
        raise DimensionError(f"{op}: expected rank-{rank}, got shape {a.shape}")
    if 0 in a.shape:
        raise DimensionError(f"{op}: every dim must be >= 1, got shape {a.shape}")


def _check_like(a: np.ndarray, shape: tuple[int, ...], dtype: np.dtype, what: str) -> None:
    """The matching rule: `a` has exactly `shape` and `dtype`, or DimensionError naming `what`."""
    if a.shape != shape or a.dtype != dtype:
        raise DimensionError(f"{what} is {a.dtype} {a.shape}, expected {dtype} {shape}")


def _finite(a: np.ndarray, op: str) -> np.ndarray:
    """a, or NonFiniteError if it holds NaN or +-inf. A sum of squares is NaN or inf when
    any entry is, so one BLAS dot clears finite arrays; only a dot that is not finite,
    which finite entries give when it overflows (silently, in its stage's errstate),
    leads to the full scan. ravel(order="K") is a view of a C- or F-ordered array."""
    r = a.ravel(order="K")
    if not (math.isfinite(np.dot(r, r)) or np.isfinite(a).all()):
        raise NonFiniteError(f"{op} produced non-finite values")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b through numpy's BLAS; the product is left for its stage to check. The
    checks that name a fault run only when the one test of the accepted case fails."""
    if not (a.ndim == b.ndim == 2 and a.dtype == b.dtype and a.dtype in _ALLOWED
            and a.shape[1] == b.shape[0] and a.size and b.size):
        _check_dims(a, "matmul", 2)
        _check_dims(b, "matmul", 2)
        if a.dtype != b.dtype:
            raise DimensionError(f"matmul: mixed dtypes {a.dtype} vs {b.dtype}")
        if a.shape[1] != b.shape[0]:
            raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    return np.matmul(a, b)


def _slices(shape: tuple[int, int], axis: int, op: str):
    """Index pairs cutting a rank-2 map into whole rows (axis=1) or whole columns
    (axis=0), at most _SLICE entries each, in order.

    A slice holds at least two lines unless the map has one, and a lone last line
    joins the slice before it: numpy sums a single line pairwise, but a block of
    lines laid across the summed axis one entry at a time, and a slice must give
    the bits of the whole map. So a line longer than half a slice makes a slice of
    two or three lines.
    """
    if axis not in (0, 1):
        raise DimensionError(f"{op}: axis must be 0 or 1, got {axis}")
    count, length = shape[1 - axis], shape[axis]
    step = max(2, _SLICE // length)
    whole = slice(None)
    start = 0
    while start < count:
        stop = count if start + step >= count - 1 else start + step
        yield (slice(start, stop), whole) if axis == 1 else (whole, slice(start, stop))
        start = stop


def softmax(a: np.ndarray, axis: int, in_place: bool = False) -> np.ndarray:
    """Softmax along `axis` of a rank-2 array, shifted by the max for stability.

    Each weight is 0 or lies in [tiny, 1], tiny = np.finfo(dtype).tiny: weights
    that underflow into subnormals are flushed to 0, because BLAS runs many
    times slower on subnormal operands (a peaked CPA map in f32 has dozens) and
    such a weight changes a sum by less than tiny. Only the input is checked:
    with finite input the max entry adds exp(0) = 1 to each sum.

    The map is walked in slices of whole rows (axis=1) or columns (axis=0) of at
    most _SLICE entries; six passes run on one slice while it is in cache: each
    line's max, the slice's min, subtract, exp, sum and divide. Each line is
    reduced in the order numpy uses on the whole map, so the result is the same
    bit for bit. The two extremes are the input check: a NaN or +inf makes its
    line's max NaN or +inf, a NaN or -inf makes the min NaN or -inf. They also
    bound every weight from below: with `low` the slice's min, `top` its largest
    line max and `length` a line's length, a weight is exp(x - max) / sum >=
    exp(low - top) / length to within a few ulps, as each of the `length` terms
    of a sum is at most 1. So when exp(low - top) >= 4 * tiny * length no weight
    of the slice is below tiny, and the flush (a compare and a masked store)
    would change nothing and is skipped; otherwise it runs.

    The weights are written over `a` (`in_place=True`) or into a new array laid out
    like `a`. A non-finite input raises when its slice is reached, so earlier slices
    of the result may already hold weights.
    """
    _check_dims(a, "softmax", 2)
    out = a if in_place else np.empty_like(a)
    tiny = _TINY[a.dtype]
    for part in _slices(a.shape, axis, "softmax"):
        src, dst = a[part], out[part]
        peaks = src.max(axis=axis, keepdims=True)
        top, low = float(peaks.max()), float(src.min())
        if not (math.isfinite(top) and math.isfinite(low)):
            raise NonFiniteError("softmax input produced non-finite values")
        np.subtract(src, peaks, out=dst)
        np.exp(dst, out=dst)
        dst /= dst.sum(axis=axis, keepdims=True)
        if math.exp(low - top) < 4 * tiny * src.shape[axis]:
            dst[dst < tiny] = 0
    instrument.add("softmax", 5 * out.size)
    return out


def softmax_backward(s: np.ndarray, grad: np.ndarray, axis: int,
                     in_place: bool = False) -> np.ndarray:
    """Gradient through softmax along `axis` given its output s and upstream grad:
    s * (grad - sum(grad * s)).

    Walks the same slices as `softmax`, each line's sum in the whole map's
    order, so the result is the same bit for bit. Along axis 0 on row-major
    operands of two or more columns numpy sums a slice's products row after row,
    so they are added in that order, _ROW_BLOCK rows per sum, and no slice-sized
    product is held (one slice is the whole T x N map of a 48 x 48 SPA).
    Elsewhere (axis 1, column-major, a single column) a slice's products are
    formed whole and summed as numpy sums them. `s` meets the operand rule, `grad` the
    matching rule against `s`. The result is written over `grad` (`in_place=True`) or
    into a new array laid out like `grad`; it flows unchecked into its stage's gradients.
    """
    _check_dims(s, "softmax_backward", 2)
    _check_like(grad, s.shape, s.dtype, "softmax_backward: grad")
    out = grad if in_place else np.empty_like(grad)
    by_rows = (axis == 0 and s.shape[1] > 1 and s.flags.c_contiguous
               and grad.flags.c_contiguous)
    for part in _slices(s.shape, axis, "softmax_backward"):
        src, g, dst = s[part], grad[part], out[part]
        if by_rows:
            inner = _sum_products_by_rows(g, src)
        else:
            inner = (g * src).sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=dst)
        dst *= src
    return out


def _sum_products_by_rows(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(g * s).sum(axis=0) bit for bit, one block of rows at a time: numpy adds the rows
    of a row-major block one after another into a copy of the first, so a block whose
    first row is the running total continues the whole sum."""
    rows = len(s)
    buf = np.empty((min(rows, _ROW_BLOCK + 1), s.shape[1]), s.dtype)
    np.multiply(g[:len(buf)], s[:len(buf)], out=buf)
    total = buf.sum(axis=0)
    for start in range(len(buf), rows, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, rows)
        block = buf[:stop - start + 1]
        block[0] = total
        np.multiply(g[start:stop], s[start:stop], out=block[1:])
        total = block.sum(axis=0)
    return total


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """The (C*k*k) x (H*W) columns of x zero-padded by (k-1)/2: row (c, di, dj) holds
    channel c shifted by tap (di, dj), the order of a C_out x C_in x k x k weight's rows."""
    c, h, wd = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + wd] = x
    s = xp.strides
    windows = np.ndarray((c, k, k, h, wd), xp.dtype, xp, 0, (*s, s[1], s[2]))
    return windows.reshape(c * k * k, h * wd)               # the one copy


def _conv(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """conv2d_same unchecked: one GEMM of the C_out x (C_in*k*k) weights and the columns."""
    c_out, _, k, _ = w.shape
    _, h, wd = x.shape
    return np.matmul(w.reshape(c_out, -1), _im2col(x, k)).reshape(c_out, h, wd)


def _check_conv(x: np.ndarray, w: np.ndarray, op: str) -> None:
    """Both conv directions' operands: rank-3 x, rank-4 w of x's dtype and channels, odd k x k."""
    _check_dims(x, op, 3)
    _check_dims(w, f"{op} weights", 4)
    _, c_in, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ConfigurationError(f"{op}: kernel must be square and odd, got {k}x{k2}")
    if (c_in, w.dtype) != (x.shape[0], x.dtype):
        raise DimensionError(f"{op}: weights {w.dtype} {w.shape} vs input {x.dtype} {x.shape}")


def conv2d_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 zero-padded convolution preserving spatial size; kernel must be odd."""
    _check_conv(x, w, "conv2d_same")
    return _conv(x, w)


def conv2d_same_backward(x: np.ndarray, w: np.ndarray,
                         grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d_same wrt input and weights, one GEMM each: the weights' against
    the input's columns, the input's a convolution of grad_out with the weights
    flipped in space and transposed in channels."""
    _check_conv(x, w, "conv2d_same_backward")
    c_out, _, k, _ = w.shape
    _check_like(grad_out, (c_out, *x.shape[1:]), x.dtype, "conv2d_same_backward: grad_out")
    grad_w = np.matmul(grad_out.reshape(c_out, -1), _im2col(x, k).T).reshape(w.shape)
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _conv(grad_out, flipped), grad_w


@_quiet
def cross_entropy_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-pixel negative log softmax probability and its analytic gradient."""
    _check_dims(logits, "cross_entropy_logits", 3)
    k, h, w = logits.shape
    lab = np.asarray(labels)
    if lab.shape != (h, w):
        raise DimensionError(f"cross_entropy_logits: labels {lab.shape} vs spatial dims {(h, w)}")
    if lab.dtype.kind not in "iu":
        raise LabelError(f"labels must be integer class ids, got dtype {lab.dtype}")
    if lab.min() < 0 or lab.max() >= k:
        bad = np.argwhere((lab < 0) | (lab >= k))[0]
        raise LabelError(f"label {int(lab[tuple(bad)])} out of range [0, {k}) "
                         f"at pixel ({int(bad[0])}, {int(bad[1])})")
    flat = logits.reshape(k, h * w)
    shifted = flat - flat.max(axis=0, keepdims=True)
    expv = np.exp(shifted)
    total = expv.sum(axis=0, keepdims=True)
    idx = lab.reshape(-1)
    picked = shifted[idx, np.arange(h * w)] - np.log(total[0])
    loss = float(-picked.mean())
    grad = expv / total
    grad[idx, np.arange(h * w)] -= 1.0
    grad /= h * w
    return loss, _finite(grad.reshape(k, h, w).astype(logits.dtype), "cross_entropy_logits")


@_quiet
def sgd_step(params: list[np.ndarray], grads: list[np.ndarray], lr: float,
             momentum: float, velocity: list[np.ndarray]) -> None:
    """In-place heavy-ball update: v <- momentum*v + g; p <- p - lr*v."""
    if not len(params) == len(grads) == len(velocity):
        raise DimensionError(f"sgd_step: got {len(params)} params, {len(grads)} grads, "
                             f"{len(velocity)} velocities")
    for p, g, v in zip(params, grads, velocity):
        _check_like(g, p.shape, p.dtype, "sgd_step: grad")
        _check_like(v, p.shape, p.dtype, "sgd_step: velocity")
        v *= momentum
        v += g
        p -= lr * v
        _finite(p, "sgd_step")


def init_weight(rng: Rng, shape: tuple[int, ...], fan_in: int,
                dtype: np.dtype = F64) -> np.ndarray:
    """Uniform [-a, a] init with a = sqrt(1/fan_in)."""
    return rng.fill_uniform(shape, math.sqrt(1.0 / fan_in), dtype)
