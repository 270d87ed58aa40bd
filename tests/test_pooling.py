import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolattn import pooling
from poolattn.attention import param_count
from poolattn.errors import ConfigurationError, DimensionError, NonFiniteError, PoolSizeError
from poolattn.gradcheck import MANIFEST
from poolattn.pooling import (PAPER_EVEN, PAPER_ODD, TOY_EVEN_MATCHED, TOY_ODD,
                              TOY_ODD_MATCHED, PyramidSpec, anchor_count, bin_edges,
                              boundary_histogram, interior_offsets, parse_spec,
                              pyramid_pool, pyramid_pool_backward)
from poolattn.rng import Rng

from oracles import (contiguous_pyramid_pool, loop_bin_edges, loop_pyramid_pool,
                     loop_pyramid_pool_backward)

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


@st.composite
def _pool_case(draw):
    """(H, W, spec) with H != W and a random strictly increasing spec that fits both."""
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12).filter(lambda v: v != h))
    sizes = draw(st.lists(st.integers(1, min(h, w)), min_size=1, max_size=4, unique=True))
    return h, w, PyramidSpec(tuple(sorted(sizes)))


def test_paper_anchor_counts():
    assert anchor_count(PAPER_EVEN) == 325
    assert anchor_count(PAPER_ODD) == 325


def test_trivial_and_matched_anchor_counts():
    assert anchor_count(PyramidSpec((1,))) == 1
    assert anchor_count(TOY_ODD) == 35
    assert anchor_count(TOY_EVEN_MATCHED) == anchor_count(TOY_ODD_MATCHED) == 165


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        PyramidSpec(())
    with pytest.raises(ConfigurationError):
        PyramidSpec((3, 3))
    with pytest.raises(ConfigurationError):
        PyramidSpec((2, 1))
    with pytest.raises(ConfigurationError):
        PyramidSpec((0, 2))
    for sizes in ((1, 2.5), (True, 3), (1, 2.0), (np.float64(1), 2)):
        with pytest.raises(ConfigurationError, match="integers"):
            PyramidSpec(sizes)
    assert PyramidSpec((np.int64(1), np.int32(3))).sizes == (1, 3)


def test_parse_spec():
    assert parse_spec("paper-even") is PAPER_EVEN
    assert parse_spec("1,3,5").sizes == (1, 3, 5)
    with pytest.raises(ConfigurationError):
        parse_spec("no-such-preset")


def test_pyramid_pool_full_resolution_is_flatten():
    x = Rng(1).fill_uniform((3, 4, 4), 1.0)
    out = pyramid_pool(x, PyramidSpec((4,)))
    assert np.array_equal(out, x.reshape(3, 16))


def test_pyramid_pool_global_mean_column():
    x = Rng(2).fill_uniform((2, 5, 5), 1.0)
    out = pyramid_pool(x, PyramidSpec((1,)))
    assert np.allclose(out.reshape(2), x.mean(axis=(1, 2)), rtol=0, atol=1e-15)


def test_pyramid_pool_hand_case():
    x = np.arange(1, 17, dtype=np.float64).reshape(1, 4, 4)
    out = pyramid_pool(x, PyramidSpec((1, 2)))
    assert np.array_equal(out[0], [8.5, 3.5, 5.5, 11.5, 13.5])


def test_pyramid_pool_matches_oracle():
    rng = Rng(3)
    for h, w, sizes in [(6, 6, (1, 2, 3)), (7, 5, (1, 4)), (9, 9, (2, 5))]:
        x = rng.fill_uniform((3, h, w), 2.0)
        assert np.allclose(pyramid_pool(x, PyramidSpec(sizes)),
                           loop_pyramid_pool(x, sizes), rtol=0, atol=1e-13)


def _manifest_pool_cases():
    """(C, H, W, sizes) for every pyramid the SPA and network manifest entries pool."""
    cases = []
    for _, kind, cfg in MANIFEST:
        if kind in ("spa", "network"):
            h = cfg.get("height", cfg.get("size"))
            w = cfg.get("width", h)
            channels = cfg.get("c", cfg.get("channels"))
            for c in {channels, cfg.get("chat", channels)}:
                cases += [(c, h, w, cfg[key]) for key in ("odd", "even") if key in cfg]
    return cases


@DTYPES
def test_pool_matches_contiguous_oracle_bytewise(dtype):
    # Paper shapes, the gradient manifest and the train-demo 16x16 pyramids:
    # every pinned value rests on these exact bits.
    cases = [(32, 96, 96, PAPER_EVEN.sizes), (64, 96, 96, PAPER_ODD.sizes)]
    cases += _manifest_pool_cases()
    cases += [(16, 16, 16, spec.sizes) for spec in (TOY_ODD, TOY_EVEN_MATCHED, TOY_ODD_MATCHED)]
    rng = Rng(9)
    for c, h, w, sizes in cases:
        x = rng.fill_uniform((c, h, w), 2.0, dtype)
        got = pyramid_pool(x, PyramidSpec(sizes))
        want = contiguous_pyramid_pool(x, sizes)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes(), (c, h, w, sizes)


@DTYPES
@settings(max_examples=40, deadline=None)
@given(_pool_case(), st.integers(0, 2**32 - 1))
def test_pool_matches_contiguous_oracle_bytewise_property(dtype, case, seed):
    h, w, spec = case
    x = Rng(seed).fill_uniform((3, h, w), 2.0, dtype)
    got = pyramid_pool(x, spec)
    want = contiguous_pyramid_pool(x, spec.sizes)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_pool_bins_larger_than_numpy_buffer_match_loop_oracle():
    # 91 x 91 = 8281-pixel strided bins: more than np.getbufsize() elements,
    # still summed as one pairwise sum of the gathered bin.
    x = Rng(10).fill_uniform((2, 182, 182), 2.0)
    assert np.allclose(pyramid_pool(x, PyramidSpec((1, 2))), loop_pyramid_pool(x, (1, 2)),
                       rtol=0, atol=1e-13)


def test_pool_gathers_once_per_call_from_a_read_only_cached_plan(monkeypatch):
    # One gather of every bin's pixels but the one-bin level's 96 x 96, which is
    # summed without one; the anchors' reorder is a take of the C x T sums.
    c, h, w = 2, 96, 96
    areas = [int(r) * int(k) for n in PAPER_ODD.sizes
             for r in np.diff(loop_bin_edges(h, n)) for k in np.diff(loop_bin_edges(w, n))]
    gathered = sum(areas) - h * w
    calls = []
    take = np.take

    def counting_take(a, indices, *args, **kwargs):
        calls.append((a.shape, np.shape(indices)))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", counting_take)
    pooling._pool_plan.cache_clear()
    x = Rng(11).fill_uniform((c, h, w), 1.0)
    want = contiguous_pyramid_pool(x, PAPER_ODD.sizes)
    for _ in range(3):
        assert pyramid_pool(x, PAPER_ODD).tobytes() == want.tobytes()
    assert [i for a, i in calls if a == (c, h * w)] == [(gathered,)] * 3
    assert [i for a, i in calls if a != (c, h * w)] == [(anchor_count(PAPER_ODD),)] * 3
    info = pooling._pool_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    plan = pooling._pool_plan(PAPER_ODD.sizes, h, w)
    arrays = [plan.pixels, plan.order, plan.areas]
    arrays += [a for _, _, rows, cols in plan.levels for a in (rows, cols)]
    assert len(arrays) == 3 + 2 * len(PAPER_ODD.sizes)
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_pyramid_pool_size_error_names_size_that_misses_width():
    with pytest.raises(PoolSizeError, match="5"):
        pyramid_pool(np.ones((1, 6, 4)), PyramidSpec((1, 5)))


@pytest.mark.parametrize("grad, error", [
    (np.ones((1, 5, 1)), DimensionError),
    (np.ones((1, 5), dtype=np.float16), DimensionError),
    (np.ones((1, 5), dtype=np.int64), DimensionError),
    (np.array([[1.0, np.nan, 1.0, 1.0, 1.0]]), NonFiniteError),
], ids=["rank3", "float16", "int64", "nan"])
def test_backward_checks_grad(grad, error):
    with pytest.raises(error):
        pyramid_pool_backward(grad, PyramidSpec((1, 2)), 4, 4)


def test_bin_edges_follow_floor_rule():
    for extent in range(1, 14):
        for n in range(1, extent + 1):
            assert bin_edges(extent, n) == loop_bin_edges(extent, n)
    with pytest.raises(PoolSizeError, match="5"):
        bin_edges(4, 5)


def test_pyramid_pool_checks_input_and_output():
    with pytest.raises(DimensionError):
        pyramid_pool(np.ones((4, 4)), PyramidSpec((1,)))
    with pytest.raises(DimensionError):
        pyramid_pool(np.ones((1, 4, 4), dtype=np.float16), PyramidSpec((1,)))
    with pytest.raises(NonFiniteError):
        pyramid_pool(np.full((1, 2, 2), 3e38, dtype=np.float32), PyramidSpec((1, 2)))


def test_pyramid_pool_size_error_names_size():
    with pytest.raises(PoolSizeError, match="5"):
        pyramid_pool(np.ones((1, 4, 4)), PyramidSpec((1, 5)))


def test_anchor_values_stay_within_channel_range():
    rng = Rng(4)
    for _ in range(10):
        x = rng.fill_uniform((4, 8, 8), 3.0)
        out = pyramid_pool(x, PyramidSpec((1, 3, 5)))
        lo = x.min(axis=(1, 2), keepdims=True).reshape(4, 1)
        hi = x.max(axis=(1, 2), keepdims=True).reshape(4, 1)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_channel_permutation_equivariance():
    rng = Rng(5)
    x = rng.fill_uniform((5, 6, 6), 1.0)
    perm = np.array([3, 0, 4, 1, 2])
    spec = PyramidSpec((1, 2, 3))
    assert np.array_equal(pyramid_pool(x[perm], spec), pyramid_pool(x, spec)[perm])


def test_backward_global_pool_spreads_uniformly():
    grad = np.array([[2.0]])
    out = pyramid_pool_backward(grad, PyramidSpec((1,)), 2, 2)
    assert np.array_equal(out, np.full((1, 2, 2), 0.5))


def test_backward_full_resolution_is_reshape():
    grad = Rng(6).fill_uniform((2, 9), 1.0)
    out = pyramid_pool_backward(grad, PyramidSpec((3,)), 3, 3)
    assert np.array_equal(out, grad.reshape(2, 3, 3))


def test_backward_adjoint_identity():
    rng = Rng(7)
    cases = [((1,), 3, 4), ((1, 2), 5, 5), ((1, 3), 7, 6), ((2, 4), 8, 8),
             ((1, 2, 3), 6, 9), ((1, 3, 5), 11, 7), ((3,), 9, 9), ((1, 5), 10, 10),
             ((2, 3), 5, 8), ((1, 2, 4), 9, 12)]
    for sizes, h, w in cases:
        spec = PyramidSpec(sizes)
        for _ in range(10):
            x = rng.fill_uniform((3, h, w), 2.0)
            u = rng.fill_uniform((3, anchor_count(spec)), 2.0)
            lhs = float(np.sum(pyramid_pool(x, spec) * u))
            rhs = float(np.sum(x * pyramid_pool_backward(u, spec, h, w)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@DTYPES
def test_backward_matches_loop_oracle_bitwise(dtype):
    # The adjoint divides by each bin's area and adds the levels in spec
    # order, exactly as the per-bin loop does; one ulp off would move training.
    rng = Rng(8)
    cases = [(PAPER_ODD.sizes, 96, 96), (PAPER_EVEN.sizes, 96, 96), ((1, 3, 5), 11, 7),
             ((2, 4), 9, 13), ((1, 2, 3), 6, 6), ((1, 5, 7, 9, 13), 20, 24)]
    for sizes, h, w in cases:
        spec = PyramidSpec(sizes)
        grad = rng.fill_uniform((3, anchor_count(spec)), 2.0, dtype)
        got = pyramid_pool_backward(grad, spec, h, w)
        assert got.dtype == grad.dtype
        assert np.array_equal(got, loop_pyramid_pool_backward(grad, sizes, h, w)), (sizes, h, w)


@DTYPES
@settings(max_examples=40, deadline=None)
@given(_pool_case(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_backward_matches_loop_oracle_bitwise_property(dtype, case, channels, seed):
    h, w, spec = case
    grad = Rng(seed).fill_uniform((channels, anchor_count(spec)), 2.0, dtype)
    got = pyramid_pool_backward(grad, spec, h, w)
    want = loop_pyramid_pool_backward(grad, spec.sizes, h, w)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@DTYPES
@pytest.mark.parametrize("case", ["negative-zero", "area-above-128"])
def test_pool_and_adjoint_match_oracles_bytewise_at_edges(dtype, case):
    # All -0.0: a zero's sign bit rides on where each sum starts, so it shows any other
    # start. Bins of 156 to 182 pixels pass numpy's 128-element pairwise block, so
    # its sum recurses.
    c, h, w, sizes = (3, 6, 7, (1, 2, 3)) if case == "negative-zero" else (2, 25, 27, (1, 2))
    spec = PyramidSpec(sizes)
    rng = Rng(12)
    x = rng.fill_uniform((c, h, w), 2.0, dtype)
    grad = rng.fill_uniform((c, anchor_count(spec)), 2.0, dtype)
    if case == "negative-zero":
        x, grad = np.full_like(x, -0.0), np.full_like(grad, -0.0)
    else:
        rows, cols = np.diff(loop_bin_edges(h, 2)), np.diff(loop_bin_edges(w, 2))
        assert sorted(np.outer(rows, cols).ravel()) == [156, 168, 169, 182]
    assert pyramid_pool(x, spec).tobytes() == contiguous_pyramid_pool(x, sizes).tobytes()
    got = pyramid_pool_backward(grad, spec, h, w)
    assert got.tobytes() == loop_pyramid_pool_backward(grad, sizes, h, w).tobytes()


def test_threads_pooling_at_once_give_the_serial_bytes():
    # Four threads on two cores build or read the one cached plan and gather from it
    # at once, switching every 10 us; the plan is read-only and every buffer written
    # is the call's own, so each call gives the bytes of a serial one.
    spec = PAPER_ODD
    xs = [Rng(13 + i).fill_uniform((8, 40, 44), 2.0, (np.float32, np.float64)[i % 2])
          for i in range(4)]
    grads = [Rng(17 + i).fill_uniform((8, anchor_count(spec)), 2.0, x.dtype)
             for i, x in enumerate(xs)]
    want = [(pyramid_pool(x, spec).tobytes(), pyramid_pool_backward(g, spec, 40, 44).tobytes())
            for x, g in zip(xs, grads)]
    pooling._pool_plan.cache_clear()
    barrier = threading.Barrier(len(xs))
    got = [[] for _ in xs]

    def work(i):
        barrier.wait()
        for _ in range(20):
            got[i].append((pyramid_pool(xs[i], spec).tobytes(),
                           pyramid_pool_backward(grads[i], spec, 40, 44).tobytes()))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[pair] * 20 for pair in want]


@DTYPES
@settings(max_examples=40, deadline=None)
@given(_pool_case(), st.integers(0, 2**32 - 1))
def test_pool_partition_preserves_mass(dtype, case, seed):
    # Each level's bins tile the map, so bin means weighted by bin areas sum to the total.
    h, w, spec = case
    x = Rng(seed).fill_uniform((2, h, w), 3.0, dtype)
    out = pyramid_pool(x, spec).astype(np.float64)
    total = x.astype(np.float64).sum(axis=(1, 2))
    tol = 16 * np.finfo(dtype).eps * 3.0 * h * w
    col = 0
    for n in spec.sizes:
        rows, cols = np.diff(loop_bin_edges(h, n)), np.diff(loop_bin_edges(w, n))
        weighted = out[:, col : col + n * n] @ np.outer(rows, cols).reshape(-1)
        col += n * n
        assert np.max(np.abs(weighted - total)) <= tol, n


@DTYPES
@settings(max_examples=40, deadline=None)
@given(_pool_case(), st.integers(0, 2**32 - 1))
def test_backward_adjoint_identity_property(dtype, case, seed):
    h, w, spec = case
    rng = Rng(seed)
    x = rng.fill_uniform((2, h, w), 2.0, dtype)
    u = rng.fill_uniform((2, anchor_count(spec)), 2.0, dtype)
    lhs = float(np.sum(pyramid_pool(x, spec).astype(np.float64) * u))
    rhs = float(np.sum(x.astype(np.float64) * pyramid_pool_backward(u, spec, h, w)))
    scale = float(np.sum(np.abs(x))) * float(np.max(np.abs(u))) * len(spec.sizes)
    assert abs(lhs - rhs) <= 16 * np.finfo(dtype).eps * scale


@DTYPES
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), max_size=3, unique=True))),
    st.integers(0, 2**32 - 1))
def test_full_resolution_level_is_identity(dtype, case, seed):
    # A level with one bin per pixel copies the map forward and the gradient back.
    n, lower = case
    spec = PyramidSpec(tuple(sorted(set(lower) | {n})))
    rng = Rng(seed)
    x = rng.fill_uniform((2, n, n), 1.0, dtype)
    assert np.array_equal(pyramid_pool(x, spec)[:, -n * n:], x.reshape(2, n * n))
    grad = np.zeros((2, anchor_count(spec)), dtype=dtype)
    grad[:, -n * n:] = rng.fill_uniform((2, n * n), 1.0, dtype)
    assert np.array_equal(pyramid_pool_backward(grad, spec, n, n),
                          grad[:, -n * n:].reshape(2, n, n))


def test_backward_anchor_mismatch():
    with pytest.raises(DimensionError):
        pyramid_pool_backward(np.ones((2, 4)), PyramidSpec((1, 2)), 4, 4)


def test_boundary_histogram_single_level():
    assert boundary_histogram(PyramidSpec((1,)), 8) == [(0, 1), (8, 1)]


def test_boundary_histogram_two_bins():
    assert boundary_histogram(PyramidSpec((2,)), 8) == [(0, 1), (4, 1), (8, 1)]


def test_boundary_histogram_endpoints_count_levels():
    hist = dict(boundary_histogram(PAPER_EVEN, 96))
    assert hist[0] == len(PAPER_EVEN.sizes)
    assert hist[96] == len(PAPER_EVEN.sizes)


def test_boundary_histogram_matches_bin_rule():
    spec = PyramidSpec((1, 3, 5))
    hist = dict(boundary_histogram(spec, 11))
    expected = {}
    for n in spec.sizes:
        for edge in set(loop_bin_edges(11, n)):
            expected[edge] = expected.get(edge, 0) + 1
    assert hist == expected


def test_union_coverage_beats_single_parity():
    odd = interior_offsets(PAPER_ODD, 96)
    union = odd | interior_offsets(PAPER_EVEN, 96)
    assert len(union) > len(odd)


def test_pyramid_has_zero_parameters():
    assert param_count(PAPER_EVEN) == 0
    # no weight tensors anywhere on the object: sizes are its only field
    assert [f.name for f in dataclasses.fields(PyramidSpec)] == ["sizes"]
    assert not any(isinstance(v, np.ndarray) for v in vars(PAPER_EVEN).values())
