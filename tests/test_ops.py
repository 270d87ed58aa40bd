import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolattn import instrument, ops
from poolattn.attention import (CpaMode, CpaModule, SpaMode, cpa_forward, init_projection,
                                spa_forward, spa_module)
from poolattn.errors import (ConfigurationError, DimensionError, LabelError,
                             NonFiniteError, PoolSizeError)
from poolattn.pooling import PyramidSpec, bin_edges, pyramid_pool
from poolattn.rng import Rng

from oracles import (loop_adaptive_pool, loop_conv2d_same, loop_conv2d_same_backward,
                     loop_matmul, loop_softmax_rows, unflushed_softmax, whole_softmax_backward)


# --- _finite --------------------------------------------------------------

# Finite entries; the square of +-1e20 in f32, +-1e200 in f64 and the largest overflows,
# so an array holding one gives an inf dot of squares and only the full scan clears it.
_FINITE_ENTRIES = {np.float32: [0.0, -1.5, 1e-40, 1e20, -1e20, 3e38],
                   np.float64: [0.0, -1.5, 5e-324, 1e200, -1e200, 1.7e308]}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.sampled_from(["C", "T", "sliced"]),
       st.integers(1, 6), st.integers(1, 6), st.data())
def test_finite_raises_exactly_when_an_entry_is_nan_or_inf(dtype, layout, m, n, data):
    size = 2 * m * n
    base = np.array(data.draw(st.lists(st.sampled_from(_FINITE_ENTRIES[dtype]),
                                       min_size=size, max_size=size)), dtype)
    for i, bad in data.draw(st.lists(st.tuples(st.integers(0, size - 1),
                                               st.sampled_from([np.nan, np.inf, -np.inf])),
                                     max_size=2)):
        base[i] = bad
    a = {"C": base[:m * n].reshape(m, n),
         "T": base[:m * n].reshape(n, m).T,
         "sliced": base.reshape(m, 2 * n)[:, ::2]}[layout]     # odd columns hidden
    with np.errstate(all="ignore"):                            # as inside a stage
        if np.isfinite(a).all():
            assert ops._finite(a, "probe") is a
        else:
            with pytest.raises(NonFiniteError, match="probe produced non-finite values"):
                ops._finite(a, "probe")


# --- matmul ---------------------------------------------------------------

def test_matmul_identity_bitwise():
    a = Rng(1).fill_uniform((3, 3), 1.0)
    eye = np.eye(3)
    assert np.array_equal(ops.matmul(eye, a), a)
    assert np.array_equal(ops.matmul(a, eye), a)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0], [1.0]])
    assert np.array_equal(ops.matmul(a, b), [[3.0], [7.0]])


def test_matmul_rejects_zero_dim():
    with pytest.raises(DimensionError):
        ops.matmul(np.zeros((2, 0)), np.zeros((0, 2)))


def test_matmul_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ops.matmul(np.ones((2, 3)), np.ones((2, 3)))


_F64, _F32 = np.ones((2, 3)), np.ones((3, 2), np.float32)


@pytest.mark.parametrize("a, b, message", [
    (np.ones(3), np.ones((3, 2)), "expected rank-2, got shape (3,)"),
    (_F64, np.ones((3, 2, 2)), "expected rank-2, got shape (3, 2, 2)"),
    (np.ones((2, 3), np.int64), np.ones((3, 2)), "dtype int64 is not float32/float64"),
    (_F64, np.ones((3, 2), np.int32), "dtype int32 is not float32/float64"),
    (_F64, _F32, "mixed dtypes float64 vs float32"),
    (_F64, np.ones((2, 3)), "inner dims differ, (2, 3) x (2, 3)"),
    (np.ones((0, 3)), np.ones((3, 2)), "every dim must be >= 1, got shape (0, 3)"),
    (np.ones((2, 0)), np.ones((0, 2)), "every dim must be >= 1, got shape (2, 0)"),
    (_F64, np.ones((3, 0)), "every dim must be >= 1, got shape (3, 0)"),
    # Byte order is part of the dtype: a big-endian operand is refused, one or both.
    (np.ones((2, 3), ">f8"), np.ones((3, 2)), "dtype >f8 is not float32/float64"),
    (np.ones((2, 3), ">f8"), np.ones((3, 2), ">f8"), "dtype >f8 is not float32/float64"),
])
def test_matmul_names_each_bad_operand(a, b, message):
    # The accepted case is tested in one condition; every other operand still gets the
    # message its own check gives.
    with pytest.raises(DimensionError) as err:
        ops.matmul(a, b)
    assert str(err.value) == f"matmul: {message}"


def test_matmul_matches_index_ascending_oracle():
    rng = Rng(2)
    for _ in range(10):
        a = rng.fill_uniform((5, 7), 2.0)
        b = rng.fill_uniform((7, 4), 2.0)
        fast = ops.matmul(a, b)
        ref = loop_matmul(a, b)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_matmul_deterministic_repeat():
    rng = Rng(3)
    a = rng.fill_uniform((6, 6), 1.0)
    b = rng.fill_uniform((6, 6), 1.0)
    assert np.array_equal(ops.matmul(a, b), ops.matmul(a, b))


# --- softmax --------------------------------------------------------------

def test_softmax_equal_values_uniform():
    out = ops.softmax(np.full((2, 5), 3.7), axis=1)
    assert np.allclose(out, 0.2, rtol=0, atol=1e-15)


def test_softmax_closed_form():
    out = ops.softmax(np.array([[0.0, math.log(3.0)]]), axis=1)
    assert np.allclose(out, [[0.25, 0.75]], rtol=0, atol=1e-15)


def test_softmax_counts_its_own_flops():
    a = Rng(5).fill_uniform((6, 9), 1.0)
    with instrument.counting() as tally:
        ops.softmax(a, axis=0)
        ops.softmax(a, axis=1)
    assert tally == {"softmax": 2 * 5 * a.size}


def test_softmax_single_column_is_ones():
    out = ops.softmax(Rng(4).fill_uniform((6, 1), 50.0), axis=1)
    assert np.array_equal(out, np.ones((6, 1)))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_softmax_rows_sum_to_one(dtype, tol):
    rng = Rng(5)
    for _ in range(20):
        a = rng.fill_uniform((8, 11), 50.0, dtype)
        sums = ops.softmax(a, axis=1).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < tol


def test_softmax_shift_invariance():
    # Shifting any output position's logits by one constant leaves the
    # normalized weights unchanged, along either axis.
    rng = Rng(6)
    a = rng.fill_uniform((4, 9), 10.0)
    shifts = rng.fill_uniform((4, 1), 5.0)
    assert np.allclose(ops.softmax(a, axis=1), ops.softmax(a + shifts, axis=1),
                       rtol=0, atol=1e-14)
    cols = np.ascontiguousarray(a.T)
    per_position = np.ascontiguousarray(shifts.T)
    assert np.allclose(ops.softmax(cols, axis=0), ops.softmax(cols + per_position, axis=0),
                       rtol=0, atol=1e-14)
    assert np.allclose(ops.softmax(cols, axis=0),
                       np.ascontiguousarray(ops.softmax(a, axis=1).T), rtol=0, atol=1e-15)


def test_softmax_matches_oracle():
    a = Rng(7).fill_uniform((5, 6), 20.0)
    assert np.allclose(ops.softmax(a, axis=1), loop_softmax_rows(a), rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(np.float64, 1e-12), (np.float32, 1e-5)]), st.integers(0, 1),
       st.integers(1, 12), st.integers(1, 12), st.floats(1.0, 2000.0),
       st.integers(0, 2**32 - 1))
def test_softmax_flushes_subnormal_weights_property(dtype_tol, axis, m, n, spread, seed):
    # Logits spread up to 2000 wide underflow exp in f32 (past ~87) and in f64 (past ~708).
    # Both memory layouts: the flush must reach a column-major result too.
    dtype, tol = dtype_tol
    tiny = np.finfo(dtype).tiny
    a = Rng(seed).fill_uniform((m, n), spread, dtype)
    for logits in (a, np.asfortranarray(a)):
        out = ops.softmax(logits, axis=axis)
        ref = unflushed_softmax(logits, axis)
        assert out.dtype == dtype
        assert not np.any((out > 0) & (out < tiny))
        assert np.all(np.abs(out - ref) < tiny)
        assert np.max(np.abs(out.sum(axis=axis) - 1.0)) < tol


def test_softmax_flush_reaches_every_slice_of_a_large_map():
    # 1100 x 1100 > 2^20 entries, so the walk takes more than one slice of lines;
    # the last one starts at line 2^20 // 1100 = 953.
    a = Rng(9).fill_uniform((1100, 1100), 100.0, np.float32)
    tiny = np.finfo(np.float32).tiny
    for axis in (0, 1):
        ref = unflushed_softmax(a, axis)
        subnormal = (ref > 0) & (ref < tiny)
        assert (subnormal[953:] if axis == 1 else subnormal[:, 953:]).any()
        out = ops.softmax(a, axis=axis)
        assert not np.any((out > 0) & (out < tiny))
        assert np.array_equal(out[~subnormal], ref[~subnormal])


def _flushed_softmax(a, axis):
    ref = unflushed_softmax(a, axis)
    ref[ref < np.finfo(ref.dtype).tiny] = 0
    return ref


def _assert_walk_matches_whole_map(a, axis):
    """softmax and softmax_backward, into a new array and in place, bitwise against the
    whole map."""
    grad = Rng(21).fill_uniform(a.shape, 1.0, a.dtype)
    if a.flags.f_contiguous:
        grad = np.asfortranarray(grad)
    ref = _flushed_softmax(a, axis)
    out = ops.softmax(a, axis=axis)
    assert np.array_equal(out, ref)
    assert out.flags.f_contiguous == ref.flags.f_contiguous
    in_place = a.copy(order="K")
    assert ops.softmax(in_place, axis=axis, in_place=True) is in_place
    assert np.array_equal(in_place, ref)
    ref_grad = whole_softmax_backward(ref, grad, axis)
    assert np.array_equal(ops.softmax_backward(ref, grad, axis), ref_grad)
    assert ops.softmax_backward(ref, grad, axis, in_place=True) is grad
    assert np.array_equal(grad, ref_grad)


# Maps spanning several 2^20-entry slices along either axis: (2500, 1000) ends in a
# ragged slice both ways; (2097, 1000) along rows and (1000, 2097) along columns leave
# one lone last line, which joins the slice before it.
@pytest.mark.parametrize("shape", [(2500, 1000), (2097, 1000), (1000, 2097)],
                         ids=["2500x1000", "2097x1000", "1000x2097"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_softmax_slice_walk_matches_whole_map_bitwise(shape, dtype, order):
    a = np.asarray(Rng(20).fill_uniform(shape, 50.0, dtype), order=order)
    for axis in (0, 1):
        _assert_walk_matches_whole_map(a, axis)


def test_softmax_line_longer_than_a_slice_matches_whole_map_bitwise():
    # Four lines of 2^20 + 3 entries: two slices of two lines, each past 2^20.
    rows = Rng(22).fill_uniform((4, (1 << 20) + 3), 50.0, np.float32)
    _assert_walk_matches_whole_map(rows, axis=1)
    _assert_walk_matches_whole_map(np.ascontiguousarray(rows.T), axis=0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.sampled_from(["C", "F"]),
       st.integers(0, 1), st.integers(1, 40), st.integers(1, 40), st.integers(1, 200),
       st.integers(0, 2**32 - 1))
def test_softmax_slice_walk_property(dtype, order, axis, m, n, slice_entries, seed):
    # Any slice size, down to slices shorter than one line, keeps the whole-map bits.
    a = np.asarray(Rng(seed).fill_uniform((m, n), 50.0, dtype), order=order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops, "_SLICE", slice_entries)
        _assert_walk_matches_whole_map(a, axis)


# Along axis 0 softmax_backward sums a first block of _ROW_BLOCK + 1 rows of products,
# then each later block after the running total: these row counts end exactly on a
# block, one row past one or partway through one (325 = 33 + 9 * 32 + 4).
_B = ops._ROW_BLOCK


@pytest.mark.parametrize("rows", [2, _B, _B + 1, _B + 2, 2 * _B + 1, 2 * _B + 2, 2 * _B + 16, 325])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_backward_row_blocks_match_the_row_loop_bitwise(rows, dtype):
    s = ops.softmax(Rng(23).fill_uniform((rows, 40), 50.0, dtype), axis=0)
    grad = Rng(24).fill_uniform(s.shape, 1.0, dtype)
    inner = grad[0] * s[0]
    for row in range(1, rows):
        inner += grad[row] * s[row]
    got = ops.softmax_backward(s, grad, axis=0)
    assert got.tobytes() == (s * (grad - inner)).tobytes()
    assert got.tobytes() == whole_softmax_backward(s, grad, 0).tobytes()


@pytest.mark.parametrize("op", ["softmax", "softmax_backward"])
def test_softmax_pair_names_itself_when_refusing_an_axis(op):
    s = ops.softmax(np.ones((2, 3)), axis=1)
    call = {"softmax": lambda: ops.softmax(s, axis=2),
            "softmax_backward": lambda: ops.softmax_backward(s, np.ones((2, 3)), axis=2)}[op]
    with pytest.raises(DimensionError) as err:
        call()
    assert str(err.value) == f"{op}: axis must be 0 or 1, got 2"


def test_softmax_nan_in_the_last_slice_raises():
    a = Rng(23).fill_uniform((2500, 1000), 1.0, np.float32)
    a[-1, -1] = np.nan      # in the last slice of rows and of columns alike
    for axis in (0, 1):
        with pytest.raises(NonFiniteError, match="softmax input"):
            ops.softmax(a, axis=axis)
        in_place = a.copy()
        with pytest.raises(NonFiniteError, match="softmax input"):
            ops.softmax(in_place, axis=axis, in_place=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_rejects_nonfinite_input(bad):
    a = Rng(8).fill_uniform((3, 4), 1.0)
    a[1, 2] = bad
    for axis in (0, 1):
        with pytest.raises(NonFiniteError, match="softmax input"):
            ops.softmax(a, axis=axis)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.sampled_from(["C", "F"]),
       st.integers(0, 1), st.integers(1, 30), st.integers(1, 30), st.integers(1, 200),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2**32 - 1), st.data())
def test_softmax_one_nonfinite_entry_anywhere_raises(dtype, order, axis, m, n, slice_entries,
                                                     bad, seed, data):
    # The input check is each line's max (NaN, +inf) and each slice's min (NaN, -inf).
    a = np.asarray(Rng(seed).fill_uniform((m, n), 50.0, dtype), order=order)
    a[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))] = bad
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops, "_SLICE", slice_entries)
        with pytest.raises(NonFiniteError, match="softmax input"):
            ops.softmax(a, axis=axis)
        in_place = a.copy(order="K")
        with pytest.raises(NonFiniteError, match="softmax input"):
            ops.softmax(in_place, axis=axis, in_place=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["below tiny", "above tiny", "below skip", "at or above skip"])
def test_softmax_flush_and_its_skip_at_their_boundaries_match_whole_map_bitwise(dtype, case):
    # Lines of zeros, one entry d in one of them: that line's weight exp(d) / (length - 1
    # + exp(d)) is the smallest, with low - top = d. The flush is skipped where
    # exp(d) >= 4 * tiny * length and runs elsewhere; either way the bits are those of
    # the whole map flushed.
    tiny = float(np.finfo(dtype).tiny)
    length = 64
    exp_d = {"below tiny": tiny * (length - 1) * 0.99, "above tiny": tiny * (length - 1) * 1.01,
             "below skip": 4 * tiny * length * 0.99,
             "at or above skip": 4 * tiny * length * 1.01}[case]
    a = np.zeros((6, length), dtype)
    a[3, 5] = math.log(exp_d)
    d = float(a[3, 5])
    assert (math.exp(d) >= 4 * tiny * length) == (case == "at or above skip")
    smallest = unflushed_softmax(a, axis=1)[3, 5]
    assert (smallest < tiny) == (case == "below tiny")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops, "_SLICE", 2 * length)     # three slices, one holding d
        for m, axis in ((a, 1), (np.ascontiguousarray(a.T), 0)):
            ref = _flushed_softmax(m, axis)
            assert np.array_equal(ops.softmax(m, axis=axis), ref)
            in_place = m.copy()
            assert np.array_equal(ops.softmax(in_place, axis=axis, in_place=True), ref)


# --- convolutions ----------------------------------------------------------

def test_conv2d_same_1x1_reduces_to_conv1x1():
    x = Rng(10).fill_uniform((3, 5, 4), 1.0)
    w = Rng(11).fill_uniform((2, 3), 1.0)
    assert np.allclose(ops.conv2d_same(x, w.reshape(2, 3, 1, 1)),
                       ops.matmul(w, x.reshape(3, 20)).reshape(2, 5, 4), rtol=0, atol=1e-15)


def test_conv2d_same_averaging_kernel_interior():
    x = np.full((1, 6, 6), 2.5)
    w = np.full((1, 1, 3, 3), 1.0 / 9.0)
    out = ops.conv2d_same(x, w)
    assert out.shape == (1, 6, 6)
    assert np.allclose(out[0, 1:-1, 1:-1], 2.5, rtol=0, atol=1e-12)


def test_conv2d_same_single_pixel_center_kernel():
    x = np.array([[[4.25]]])
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    assert np.array_equal(ops.conv2d_same(x, w), x)


def test_conv2d_same_even_kernel_rejected():
    with pytest.raises(ConfigurationError):
        ops.conv2d_same(np.ones((1, 4, 4)), np.ones((1, 1, 2, 2)))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_conv_refuses_weights_of_another_dtype_or_an_even_kernel(direction):
    # Both directions run one operand check: weights of another dtype than the input's
    # are refused, not upcast, as are weights of other channels and an even kernel.
    op = "conv2d_same" if direction == "forward" else "conv2d_same_backward"
    x = np.ones((2, 4, 4))
    call = {"forward": lambda w: ops.conv2d_same(x, w),
            "backward": lambda w: ops.conv2d_same_backward(x, w, np.ones((3, 4, 4)))}[direction]
    for w in (np.ones((3, 2, 3, 3), np.float32), np.ones((3, 1, 3, 3))):
        with pytest.raises(DimensionError) as err:
            call(w)
        assert str(err.value) == f"{op}: weights {w.dtype} {w.shape} vs input float64 (2, 4, 4)"
    with pytest.raises(ConfigurationError, match=f"^{op}: kernel must be square and odd"):
        call(np.ones((3, 2, 2, 2)))


def test_conv2d_same_backward_matches_finite_difference():
    rng = Rng(12)
    x = rng.fill_uniform((2, 4, 4), 1.0)
    w = rng.fill_uniform((3, 2, 3, 3), 0.5)
    probe = rng.fill_uniform((3, 4, 4), 1.0)
    gx, gw = ops.conv2d_same_backward(x, w, probe)
    h = 1e-6
    for arr, grad in ((x, gx), (w, gw)):
        flat = arr.reshape(-1)
        for idx in range(0, flat.size, 7):
            orig = flat[idx]
            flat[idx] = orig + h
            up = float(np.sum(probe * ops.conv2d_same(x, w)))
            flat[idx] = orig - h
            down = float(np.sum(probe * ops.conv2d_same(x, w)))
            flat[idx] = orig
            assert abs((up - down) / (2 * h) - grad.reshape(-1)[idx]) < 1e-7


@pytest.mark.parametrize("c_in, c_out, h, w, k", [(3, 16, 16, 16, 3), (16, 16, 8, 8, 3),
                                                  (2, 3, 5, 7, 5), (4, 2, 2, 3, 5),
                                                  (1, 1, 1, 1, 3), (3, 2, 4, 4, 1)])
def test_conv2d_same_im2col_matches_tap_loop(c_in, c_out, h, w, k):
    # One GEMM over the im2col columns sums the taps in another order than the loop.
    rng = Rng(13)
    x = rng.fill_uniform((c_in, h, w), 1.0)
    wt = rng.fill_uniform((c_out, c_in, k, k), 0.5)
    g = rng.fill_uniform((c_out, h, w), 1.0)
    got = (ops.conv2d_same(x, wt), *ops.conv2d_same_backward(x, wt, g))
    ref = (loop_conv2d_same(x, wt), *loop_conv2d_same_backward(x, wt, g))
    for name, a, b in zip(("out", "grad_x", "grad_w"), got, ref):
        assert a.shape == b.shape and a.flags.c_contiguous, name
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


# --- pooling primitive ------------------------------------------------------
# Adaptive average pooling to n x n is a one-level pyramid.

def _adaptive_pool(x, n):
    return pyramid_pool(x, PyramidSpec((n,))).reshape(x.shape[0], n, n)


def test_adaptive_pool_full_size_is_identity():
    x = Rng(13).fill_uniform((2, 4, 4), 1.0)
    assert np.array_equal(_adaptive_pool(x, 4), x)


def test_adaptive_pool_global_mean():
    x = Rng(14).fill_uniform((3, 5, 5), 1.0)
    out = _adaptive_pool(x, 1)
    assert np.allclose(out.reshape(3), x.mean(axis=(1, 2)), rtol=0, atol=1e-15)


def test_adaptive_pool_hand_case():
    x = np.arange(1, 17, dtype=np.float64).reshape(1, 4, 4)
    out = _adaptive_pool(x, 2)
    assert np.array_equal(out[0], [[3.5, 5.5], [11.5, 13.5]])


def test_adaptive_pool_partition_preserves_sum():
    rng = Rng(15)
    for h, w, n in [(8, 8, 3), (7, 9, 4), (11, 6, 5), (5, 5, 2), (9, 9, 7)]:
        x = rng.fill_uniform((2, h, w), 3.0)
        out = _adaptive_pool(x, n)
        rows = bin_edges(h, n)
        cols = bin_edges(w, n)
        weighted = sum(out[:, i, j] * (re - rs) * (ce - cs)
                       for i, (rs, re) in enumerate(zip(rows, rows[1:]))
                       for j, (cs, ce) in enumerate(zip(cols, cols[1:])))
        total = x.sum(axis=(1, 2))
        assert np.max(np.abs(weighted - total)) < 1e-9 * np.max(np.abs(total))


def test_adaptive_pool_matches_oracle_nondivisible():
    x = Rng(16).fill_uniform((2, 8, 7), 1.0)
    assert np.allclose(_adaptive_pool(x, 3), loop_adaptive_pool(x, 3),
                       rtol=0, atol=1e-13)


def test_adaptive_pool_oversize_rejected():
    with pytest.raises(PoolSizeError, match="5"):
        _adaptive_pool(np.ones((1, 4, 4)), 5)


# --- loss ------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    loss, _ = ops.cross_entropy_logits(np.zeros((2, 3, 3)), np.zeros((3, 3), dtype=int))
    assert abs(loss - math.log(2.0)) < 1e-15


def test_cross_entropy_confident_correct():
    logits = np.zeros((2, 2, 2))
    logits[1] = 50.0
    loss, _ = ops.cross_entropy_logits(logits, np.ones((2, 2), dtype=int))
    assert loss < 1e-12


def test_cross_entropy_hand_gradient():
    loss, grad = ops.cross_entropy_logits(np.zeros((2, 1, 1)), np.zeros((1, 1), dtype=int))
    assert abs(loss - math.log(2.0)) < 1e-15
    assert np.allclose(grad.reshape(2), [-0.5, 0.5], rtol=0, atol=1e-15)


def test_cross_entropy_gradient_finite_difference():
    rng = Rng(17)
    logits = rng.fill_uniform((3, 2, 2), 2.0)
    labels = np.array([[0, 2], [1, 1]])
    _, grad = ops.cross_entropy_logits(logits, labels)
    h = 1e-6
    flat = logits.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up, _ = ops.cross_entropy_logits(logits, labels)
        flat[idx] = orig - h
        down, _ = ops.cross_entropy_logits(logits, labels)
        flat[idx] = orig
        assert abs((up - down) / (2 * h) - grad.reshape(-1)[idx]) < 1e-8


def test_cross_entropy_label_error_names_pixel():
    logits = np.zeros((2, 2, 2))
    labels = np.array([[0, 1], [0, 7]])
    with pytest.raises(LabelError, match=r"\(1, 1\)"):
        ops.cross_entropy_logits(logits, labels)


def test_cross_entropy_rejects_float_labels():
    with pytest.raises(LabelError, match="integer"):
        ops.cross_entropy_logits(np.zeros((2, 2, 2)), np.zeros((2, 2)))


# --- optimizer ---------------------------------------------------------------

def test_sgd_zero_lr_keeps_params():
    p = np.array([1.0, 2.0])
    v = np.zeros(2)
    ops.sgd_step([p], [np.array([5.0, -3.0])], 0.0, 0.9, [v])
    assert np.array_equal(p, [1.0, 2.0])


def test_sgd_no_momentum_plain_step():
    p = np.array([1.0])
    ops.sgd_step([p], [np.array([2.0])], 0.1, 0.0, [np.zeros(1)])
    assert np.allclose(p, [0.8], rtol=0, atol=1e-15)


def test_sgd_two_momentum_steps_hand_case():
    p = np.array([1.0])
    v = np.zeros(1)
    for _ in range(2):
        ops.sgd_step([p], [np.array([1.0])], 0.1, 0.9, [v])
    assert abs(p[0] - 0.71) < 1e-15


def test_sgd_shape_mismatch():
    with pytest.raises(DimensionError):
        ops.sgd_step([np.zeros(2)], [np.zeros(3)], 0.1, 0.0, [np.zeros(2)])


def test_sgd_refuses_a_grad_of_another_dtype():
    # An f32 gradient for an f64 parameter is refused before any parameter changes.
    p = np.zeros(2)
    with pytest.raises(DimensionError) as err:
        ops.sgd_step([p], [np.ones(2, np.float32)], 0.1, 0.0, [np.zeros(2)])
    assert str(err.value) == "sgd_step: grad is float32 (2,), expected float64 (2,)"
    assert np.array_equal(p, [0.0, 0.0])


# --- stage checks ------------------------------------------------------------

def test_nonfinite_result_is_internal_error():
    # Each stage output is checked once, and the error names the stage: an f64 input
    # at 1e200 overflows the T x N map, whose check is the softmax's input check; a
    # wide-open gate overflows the residual output.
    rng = Rng(24)
    x = rng.fill_uniform((3, 6, 6), 1.0)
    m = spa_module(init_projection(rng, 3), SpaMode.ONLY_ODD, odd_spec=PyramidSpec((1, 3)),
                   lam=1.0)
    with pytest.raises(NonFiniteError, match="softmax input"):
        spa_forward(x * 1e200, m)
    m.lam[...] = 1e300
    with pytest.raises(NonFiniteError, match="spa out"):
        spa_forward(x * 1e150, m)
    with pytest.raises(NonFiniteError, match="cpa map"):
        cpa_forward(x * 1e200, CpaModule(None, CpaMode.SUBTRACT, 1.0))
