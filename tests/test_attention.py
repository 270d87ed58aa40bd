import dataclasses
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolattn import gradcheck, instrument, ops
from poolattn.accounting import cost_cpa, cost_spa
from poolattn.attention import (CpaMode, CpaModule, ProjectionWeights, SpaMode, SpaModule,
                                cpa_backward, cpa_forward, cpa_stages, cpa_stages_backward,
                                init_projection,
                                nonlocal_backward, nonlocal_forward, param_count,
                                spa_backward, spa_forward, spa_module, spa_stages,
                                spa_stages_backward)
from poolattn.errors import ConfigurationError, DimensionError, PoolSizeError
from poolattn.pooling import PAPER_EVEN, PAPER_ODD, PyramidSpec, anchor_count
from poolattn.rng import Rng

from oracles import (direct_cpa, loop_cpa, loop_nonlocal, project_then_pool_spa,
                     unflushed_softmax)


def _random_case(seed, c, size, chat=None):
    rng = Rng(seed)
    proj = init_projection(rng, c, chat)
    x = rng.fill_uniform((c, size, size), 1.0)
    return rng, proj, x


# --- non-local baseline -----------------------------------------------------

def test_nonlocal_gate_closed_is_bitwise_identity():
    for seed in range(5):
        _, proj, x = _random_case(seed, 3, 4)
        out, _ = nonlocal_forward(x, proj, 0.0)
        assert np.array_equal(out, x)


def test_nonlocal_single_position():
    rng, proj, x = _random_case(11, 2, 1)
    out, attn = nonlocal_forward(x, proj, 0.6)
    assert np.array_equal(attn, [[1.0]])
    gamma = ops.matmul(proj.w_v, x.reshape(2, 1))
    assert np.allclose(out.reshape(2, 1), 0.6 * gamma + x.reshape(2, 1),
                       rtol=0, atol=1e-15)


def test_nonlocal_matches_loop_oracle():
    rng, proj, x = _random_case(12, 2, 3)
    lam = 0.8
    out, attn = nonlocal_forward(x, proj, lam)
    oracle_out, oracle_attn = loop_nonlocal(x, proj.w_q, proj.w_k, proj.w_v, lam)
    assert np.max(np.abs(out - oracle_out)) < 1e-12
    assert np.max(np.abs(attn - oracle_attn)) < 1e-12


def test_nonlocal_rows_are_stochastic():
    _, proj, x = _random_case(13, 4, 5)
    _, attn = nonlocal_forward(x, proj, 1.0)
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-10


def test_nonlocal_channel_mismatch():
    _, proj, _ = _random_case(14, 3, 4)
    with pytest.raises(DimensionError):
        nonlocal_forward(np.ones((2, 4, 4)), proj, 0.5)


# --- spatial pool attention ---------------------------------------------------

def test_spa_gate_closed_is_bitwise_identity():
    spec = PyramidSpec((1, 2))
    for seed in range(5):
        _, proj, x = _random_case(seed, 3, 4)
        out, _ = spa_forward(x, SpaModule(proj, SpaMode.ONLY_EVEN, spec, spec, 0.0))
        assert np.array_equal(out, x)


def test_spa_full_resolution_equals_nonlocal():
    for seed in range(10):
        for c, size in [(2, 3), (4, 5)]:
            rng, proj, x = _random_case(seed, c, size)
            lam = 0.3 + 0.1 * seed
            spec = PyramidSpec((size,))
            mode = SpaMode.ONLY_ODD if size % 2 else SpaMode.ONLY_EVEN
            spa_out, _ = spa_forward(x, SpaModule(proj, mode, spec, spec, lam))
            nb_out, _ = nonlocal_forward(x, proj, lam)
            assert np.max(np.abs(spa_out - nb_out)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.data(), st.floats(0.05, 3.0),
       st.integers(0, 2**32 - 1))
def test_spa_full_resolution_equals_nonlocal_property(c, size, data, lam, seed):
    chat = data.draw(st.integers(1, c))
    _, proj, x = _random_case(seed, c, size, chat)
    spec = PyramidSpec((size,))
    spa_out, spa_attn = spa_forward(x, SpaModule(proj, SpaMode.ONLY_ODD, spec, spec, lam))
    nb_out, nb_attn = nonlocal_forward(x, proj, lam)
    assert np.max(np.abs(spa_out - nb_out)) <= 1e-12
    assert np.max(np.abs(spa_attn - nb_attn.T)) <= 1e-12


def test_spa_paper_specs_attention_shape():
    rng = Rng(20)
    proj = init_projection(rng, 2)
    x = rng.fill_uniform((2, 96, 96), 1.0)
    module = SpaModule(proj, SpaMode.MIXED, PAPER_EVEN, PAPER_ODD, 0.5)
    _, attn = spa_forward(x, module)
    assert attn.shape == (325, 9216)


def test_spa_columns_are_stochastic():
    rng, proj, x = _random_case(21, 3, 6)
    module = SpaModule(proj, SpaMode.ONLY_ODD, PyramidSpec((1, 3)), PyramidSpec((1, 3)), 1.0)
    _, attn = spa_forward(x, module)
    assert np.max(np.abs(attn.sum(axis=0) - 1.0)) < 1e-10


def test_spa_anchor_mismatch_rejected():
    _, proj, _ = _random_case(22, 2, 6)
    with pytest.raises(ConfigurationError):
        SpaModule(proj, SpaMode.MIXED, PyramidSpec((1, 2)), PyramidSpec((1, 3)), 0.0)


def test_spa_pool_size_error_propagates():
    _, proj, x = _random_case(23, 2, 4)
    spec = PyramidSpec((1, 5))
    with pytest.raises(PoolSizeError):
        spa_forward(x, SpaModule(proj, SpaMode.ONLY_ODD, spec, spec, 0.0))


def _assert_spa_matches_project_then_pool(m, x, g):
    """Forward, map and every gradient within 1e-12 of the largest reference entry."""
    out, attn, cache = spa_stages(x, m)
    grads = spa_stages_backward(cache, g)
    ref_out, ref_attn, ref_grads = project_then_pool_spa(
        x, m.proj.w_q, m.proj.w_k, m.proj.w_v, float(m.lam), m.k_spec.sizes, m.v_spec.sizes, g)
    for key, got, ref in (("out", out, ref_out), ("attn", attn, ref_attn),
                          *((k, grads[k], v) for k, v in ref_grads.items())):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), key


_MANIFEST_SPA = [(name, config) for name, kind, config in gradcheck.MANIFEST if kind == "spa"]


@pytest.mark.parametrize("config", [c for _, c in _MANIFEST_SPA] + [
    {"c": 64, "chat": 32, "height": 96, "width": 96, "mode": "mixed",
     "odd": PAPER_ODD.sizes, "even": PAPER_EVEN.sizes}],
    ids=[n for n, _ in _MANIFEST_SPA] + ["paper-mixed-c64-96x96"])
def test_spa_matches_project_then_pool_oracle(config):
    # Pooling before the key and value projections only reorders sums.
    rng = Rng(90)
    odd, even = (PyramidSpec(tuple(config[k])) if k in config else None
                 for k in ("odd", "even"))
    m = spa_module(init_projection(rng, config["c"], config["chat"]), SpaMode(config["mode"]),
                   odd_spec=odd, even_spec=even, lam=0.5 + rng.next_unit())
    shape = (config["c"], config["height"], config["width"])
    _assert_spa_matches_project_then_pool(m, rng.fill_uniform(shape, 1.0),
                                          rng.fill_uniform(shape, 1.0))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 8), st.booleans(), st.data(),
       st.integers(0, 2**32 - 1))
def test_spa_matches_project_then_pool_oracle_property(c, h, w, distinct, data, seed):
    chat = data.draw(st.integers(1, c))
    if distinct and min(h, w) >= 5:
        k_spec, v_spec = PyramidSpec((5,)), PyramidSpec((3, 4))    # 25 anchors each
    else:
        sizes = data.draw(st.lists(st.integers(1, min(h, w)), min_size=1, max_size=3,
                                   unique=True))
        k_spec = v_spec = PyramidSpec(tuple(sorted(sizes)))
    rng = Rng(seed)
    m = SpaModule(init_projection(rng, c, chat), SpaMode.MIXED, k_spec, v_spec,
                  0.1 + rng.next_unit())
    _assert_spa_matches_project_then_pool(m, rng.fill_uniform((c, h, w), 1.0),
                                          rng.fill_uniform((c, h, w), 1.0))


def test_spa_module_factory_mode_assignment():
    _, proj, _ = _random_case(24, 2, 10)
    odd = PyramidSpec((1, 3, 5, 7, 9))
    even = PyramidSpec((1, 8, 10))
    mixed = spa_module(proj, SpaMode.MIXED, odd_spec=odd, even_spec=even)
    assert mixed.k_spec is even and mixed.v_spec is odd
    only_odd = spa_module(proj, SpaMode.ONLY_ODD, odd_spec=odd)
    assert only_odd.k_spec is odd and only_odd.v_spec is odd
    only_even = spa_module(proj, SpaMode.ONLY_EVEN, even_spec=even)
    assert only_even.k_spec is even and only_even.v_spec is even
    with pytest.raises(ConfigurationError):
        spa_module(proj, SpaMode.MIXED, odd_spec=odd)


# --- The one-call backwards and the forward they follow -----------------------------
# SPA and CPA keep their last forward in one slot; the SPA tests take the CPA cases
# as further parameters or loops.

def _spa_case(dtype, seed=70):
    """x, a mixed-mode module on two distinct 25-anchor pyramids, and an upstream gradient."""
    rng = Rng(seed)
    m = SpaModule(init_projection(rng, 4, 3, dtype), SpaMode.MIXED, PyramidSpec((5,)),
                  PyramidSpec((3, 4)), 0.7)
    x = rng.fill_uniform((4, 10, 10), 1.0, dtype)
    x[0, 0, 0] = 0.0                         # a zero whose sign a case flips
    return x, m, rng.fill_uniform((4, 10, 10), 1.0, dtype)


def _cpa_case(dtype, seed=70, proj=True, mode=CpaMode.SUBTRACT):
    """x, a CPA module (projected or plain) and an upstream gradient."""
    rng = Rng(seed)
    m = CpaModule(init_projection(rng, 4, None, dtype) if proj else None, mode, 0.7)
    x = rng.fill_uniform((4, 10, 10), 1.0, dtype)
    x[0, 0, 0] = 0.0
    return x, m, rng.fill_uniform((4, 10, 10), 1.0, dtype)


_MECHANISMS = {SpaModule: (spa_forward, spa_backward, spa_stages, spa_stages_backward),
               CpaModule: (cpa_forward, cpa_backward, cpa_stages, cpa_stages_backward)}


def _assert_bitwise(got, ref):
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key].dtype == ref[key].dtype and got[key].shape == ref[key].shape, key
        assert got[key].tobytes() == ref[key].tobytes(), key


def _forward_tally(x, m):
    """The forward's FLOPs by stage, from the closed form."""
    c, h, w = x.shape
    if isinstance(m, SpaModule):
        cost = cost_spa(c, m.proj.reduced, h, w, m.k_spec, m.v_spec, x.dtype)
        return {"proj": cost.flops_proj, "pool": cost.flops_pool, "map": cost.flops_map,
                "softmax": cost.flops_softmax, "agg": cost.flops_agg}
    cost = cost_cpa(c, h, w, m.proj is not None, x.dtype)
    tally = {"proj": cost.flops_proj, "map": cost.flops_map, "maxdiff": cost.flops_extra,
             "softmax": cost.flops_softmax, "agg": cost.flops_agg}
    return {k: v for k, v in tally.items() if v}       # plain CPA tallies no proj


_HELD = {"f32": partial(_spa_case, ops.F32), "f64": partial(_spa_case, ops.F64),
         **{f"cpa-{'proj' if proj else 'plain'}-{mode.value}-{name}":
            partial(_cpa_case, dtype, proj=proj, mode=mode)
            for name, dtype in (("f32", ops.F32), ("f64", ops.F64))
            for proj in (False, True) for mode in CpaMode}}


@pytest.mark.parametrize("case", list(_HELD))
def test_spa_backward_reuses_the_held_forward_bit_for_bit(case):
    x, m, g = _HELD[case]()
    forward, backward, stages, stages_backward = _MECHANISMS[type(m)]
    ref = stages_backward(stages(x, m)[2], g)
    with instrument.counting() as forward_tally:
        out, attn = forward(x, m)
    assert forward_tally == _forward_tally(x, m)
    for _ in range(2):                       # a second backward reuses it as well
        with instrument.counting() as tally:
            grads = backward(x, m, g)
        assert tally == {}
        _assert_bitwise(grads, ref)


def test_spa_forward_returns_a_read_only_map():
    for make in (_spa_case, _cpa_case):
        x, m, _ = make(ops.F64)
        _, attn = _MECHANISMS[type(m)][0](x, m)
        with pytest.raises(ValueError):
            attn[0, 0] = 1.0
        with pytest.raises(ValueError):
            attn *= 2
        with pytest.raises(ValueError):     # the buffer the kept forward reads is frozen
            attn.base[0, 0] = 1.0


def _edit(a, x, m, to=lambda v: v + 0.25):
    """Change a's first entry in place (0-d gates included); the call is (x, m) again."""
    first = (0,) * a.ndim
    a[first] = to(a[first])
    return x, m


def _replace(x, m, **fields):
    """x and a new module: m with other fields, built and checked as any module."""
    return x, dataclasses.replace(m, **fields)


def _as_f64(x, m, held):
    """x and m's weights recast to float64: equal values, the other dtype."""
    w = m.proj
    return _replace(x.astype(ops.F64), m, proj=ProjectionWeights(
        w.w_q.astype(ops.F64), w.w_k.astype(ops.F64), w.w_v.astype(ops.F64)))


def _writable(x, m, held):
    """The held map's buffer unfrozen, so a caller could have written into it."""
    held[1].base.flags.writeable = True
    return x, m


def _new_proj(x, m):
    """Other weights of m.proj's shape, or square ones where m has none."""
    return init_projection(Rng(71), 4, None if m.proj is None else m.proj.reduced, x.dtype)


# Each changes what the held forward read, or lets go of its map, before the backward.
_EDITS = {
    "x-in-place": lambda x, m, held: _edit(x, x, m),
    "x-zero-sign": lambda x, m, held: _edit(x, x, m, to=lambda v: -v),
    "w_q-in-place": lambda x, m, held: _edit(m.proj.w_q, x, m),
    "w_k-in-place": lambda x, m, held: _edit(m.proj.w_k, x, m),
    "w_v-in-place": lambda x, m, held: _edit(m.proj.w_v, x, m),
    "proj-reassigned": lambda x, m, held: _replace(x, m, proj=_new_proj(x, m)),
    "x-other-dtype": _as_f64,
    "map-dropped": lambda x, m, held: held.clear() or (x, m),
    "map-made-writable": _writable,
}
_MISSES = {
    **{name: (_spa_case, edit) for name, edit in _EDITS.items()},
    "lam-in-place": (_spa_case, lambda x, m, held: _edit(m.lam, x, m)),
    "k_spec-reassigned": (_spa_case,
                          lambda x, m, held: _replace(x, m, k_spec=PyramidSpec((3, 4)))),
    "v_spec-reassigned": (_spa_case,
                          lambda x, m, held: _replace(x, m, v_spec=PyramidSpec((5,)))),
    **{f"cpa-{name}": (_cpa_case, edit) for name, edit in _EDITS.items()},
    "cpa-mu-in-place": (_cpa_case, lambda x, m, held: _edit(m.mu, x, m)),
    "cpa-mode-reassigned": (_cpa_case,
                            lambda x, m, held: _replace(x, m, mode=CpaMode.SQUARE)),
    "cpa-proj-to-none": (_cpa_case, lambda x, m, held: _replace(x, m, proj=None)),
    "cpa-proj-from-none": (partial(_cpa_case, proj=False),
                           lambda x, m, held: _replace(x, m, proj=_new_proj(x, m))),
}


@pytest.mark.parametrize("case", list(_MISSES))
def test_spa_backward_runs_the_forward_again_after_any_change(case):
    make, change = _MISSES[case]
    x, m, g = make(ops.F32)
    forward, backward, stages, stages_backward = _MECHANISMS[type(m)]
    held = list(forward(x, m))
    x, m = change(x, m, held)
    g = g.astype(x.dtype)
    ref = stages_backward(stages(x, m)[2], g)
    with instrument.counting() as tally:
        grads = backward(x, m, g)
    assert tally == _forward_tally(x, m)
    _assert_bitwise(grads, ref)


def test_spa_forward_backward_pairs_in_threads_match_serial_bit_for_bit():
    # One module, three inputs on three threads (more than the cores of a small host).
    # Every thread's forward runs before any backward, so at most one backward finds
    # its own forward kept; the others must see that it is not theirs.
    for make in (_spa_case, _cpa_case):
        _, m, _ = make(ops.F32)
        forward, backward = _MECHANISMS[type(m)][:2]
        inputs = [make(ops.F32, seed)[::2] for seed in (72, 73, 74)]

        def pair(x, g, between=lambda: None):
            out, attn = forward(x, m)
            between()
            return {"out": out, "attn": np.array(attn), **backward(x, m, g)}

        serial = [pair(x, g) for x, g in inputs]
        results = [[] for _ in inputs]
        barrier = threading.Barrier(len(inputs), timeout=60)

        def run(i):
            for _ in range(20):
                results[i].append(pair(*inputs[i], between=barrier.wait))
                barrier.wait()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for ref, got in zip(serial, results):
            assert len(got) == 20
            for result in got:
                _assert_bitwise(result, ref)


# --- channel pool attention ----------------------------------------------------

def test_cpa_gate_closed_is_bitwise_identity():
    for seed in range(5):
        rng = Rng(seed)
        x = rng.fill_uniform((4, 3, 3), 1.0)
        for mode in CpaMode:
            out, _ = cpa_forward(x, CpaModule(None, mode, 0.0))
            assert np.array_equal(out, x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([ops.F32, ops.F64]), st.integers(1, 5), st.integers(1, 6),
       st.integers(1, 6), st.floats(0.01, 20.0), st.data(), st.integers(0, 2**32 - 1))
def test_closed_gate_is_bitwise_identity_property(dtype, c, h, w, scale, data, seed):
    chat = data.draw(st.integers(1, c))
    sizes = data.draw(st.lists(st.integers(1, min(h, w)), min_size=1, max_size=3, unique=True))
    spec = PyramidSpec(tuple(sorted(sizes)))
    rng = Rng(seed)
    x = rng.fill_uniform((c, h, w), scale, dtype)
    proj = init_projection(rng, c, chat, dtype)
    outs = [nonlocal_forward(x, proj, 0.0)[0],
            spa_forward(x, SpaModule(proj, SpaMode.MIXED, spec, spec, 0.0))[0]]
    for cpa_proj in (None, init_projection(rng, c, None, dtype)):
        outs += [cpa_forward(x, CpaModule(cpa_proj, mode, 0.0))[0] for mode in CpaMode]
    for out in outs:
        assert out.dtype == dtype and np.array_equal(out, x)


@pytest.mark.parametrize("c,size,mode", [(64, 96, CpaMode.SUBTRACT),
                                         (32, 32, CpaMode.SUBTRACT),
                                         (64, 48, CpaMode.SQUARE)])
def test_cpa_f32_map_has_no_subnormal_weights(monkeypatch, c, size, mode):
    # The benchmark's seed-0 draw (input, upstream gradient, then weights from Rng(1));
    # each shape's unflushed map holds subnormal weights (41, 80 and 2 of them).
    rng = Rng(1)
    x = rng.fill_uniform((c, size, size), 1.0, ops.F32)
    g = rng.fill_uniform((c, size, size), 1.0, ops.F32)
    m = CpaModule(init_projection(rng, c, None, ops.F32), mode, 1.0)

    def run():
        out, attn, cache = cpa_stages(x, m)
        return out, attn, cpa_stages_backward(cache, g)

    out, attn, grads = run()
    monkeypatch.setattr(ops, "softmax", unflushed_softmax)
    ref_out, ref_attn, ref_grads = run()
    tiny = np.finfo(np.float32).tiny
    assert np.any((ref_attn > 0) & (ref_attn < tiny))
    assert not np.any((attn > 0) & (attn < tiny))
    assert np.array_equal(out, ref_out)
    assert np.array_equal(grads["x"], ref_grads["x"])
    # A weight-gradient entry sums C*N terms, and a flushed weight moves each by
    # about its own size, below tiny.
    bound = tiny * c * size * size
    for key in ("mu", "w_q", "w_k", "w_v"):
        assert np.max(np.abs(grads[key] - ref_grads[key])) <= bound, key


def test_cpa_single_channel():
    rng = Rng(30)
    x = rng.fill_uniform((1, 3, 3), 1.0)
    out, attn = cpa_forward(x, CpaModule(None, CpaMode.SUBTRACT, 0.4))
    assert np.array_equal(attn, [[1.0]])
    assert np.allclose(out, 0.4 * x + x, rtol=0, atol=1e-15)


def test_cpa_two_channel_hand_case_matches_oracle():
    x = np.array([[1.0, 2.0], [3.0, -1.0]]).reshape(2, 1, 2)
    module = CpaModule(None, CpaMode.SUBTRACT, 0.7)
    out, attn = cpa_forward(x, module)
    oracle_out, oracle_attn = loop_cpa(x, None, "subtract", 0.7)
    assert np.max(np.abs(out - oracle_out)) < 1e-12
    assert np.max(np.abs(attn - oracle_attn)) < 1e-12


@pytest.mark.parametrize("mode", ["subtract", "square"])
@pytest.mark.parametrize("with_proj", [False, True])
def test_cpa_matches_loop_oracle(mode, with_proj):
    rng = Rng(31)
    for _ in range(3):
        x = rng.fill_uniform((4, 3, 4), 1.0)
        proj = init_projection(rng, 4) if with_proj else None
        module = CpaModule(proj, CpaMode(mode), 0.6)
        out, attn = cpa_forward(x, module)
        triple = None if proj is None else (proj.w_q, proj.w_k, proj.w_v)
        oracle_out, oracle_attn = loop_cpa(x, triple, mode, 0.6)
        assert np.max(np.abs(out - oracle_out)) < 1e-12
        assert np.max(np.abs(attn - oracle_attn)) < 1e-12


def _cpa_run(x, m, g):
    """(out, map, gradients) of the library CPA, the backward from the forward cache."""
    out, attn, cache = cpa_stages(x, m)
    return out, attn, cpa_stages_backward(cache, g)


def _rel_errors(got, ref, x):
    """Per output, the largest deviation from `ref` over a scale: for the map its
    largest entry, for out that of out or x (out = mu·agg + x can cancel), for each
    gradient the largest entry of any gradient.

    When the max-difference map saturates, the w_q and w_k gradients are a remainder
    many orders below the others and carry the rounding of the larger terms: f32
    against f64 they differ by up to 14x their own size in the direct form too.
    """
    assert list(got[2]) == list(ref[2])
    grad_scale = max(float(np.max(np.abs(v))) for v in ref[2].values())
    scales = {"out": float(max(np.max(np.abs(ref[0])), np.max(np.abs(x)))),
              "attn": float(np.max(np.abs(ref[1])))}
    pairs = [("out", got[0], ref[0]), ("attn", got[1], ref[1]),
             *((k, got[2][k], v) for k, v in ref[2].items())]
    return {key: float(np.max(np.abs(a.astype(np.float64) - b)))
            / max(scales.get(key, grad_scale), np.finfo(np.float64).tiny)
            for key, a, b in pairs}


@pytest.mark.parametrize("dtype", [ops.F32, ops.F64], ids=["f32", "f64"])
@pytest.mark.parametrize("mode", list(CpaMode), ids=[m.value for m in CpaMode])
def test_projection_free_cpa_is_bitwise_the_direct_form(dtype, mode):
    # Without projections the Gram-matrix algebra makes the same BLAS calls in the
    # same order as projecting q = k = v = X, so every output keeps its bits.
    rng = Rng(34)
    for shape in ((1, 2, 3), (3, 4, 5), (16, 24, 24), (64, 96, 96)):
        x = rng.fill_uniform(shape, 1.0, dtype)
        g = rng.fill_uniform(shape, 1.0, dtype)
        m = CpaModule(None, mode, 0.5 + rng.next_unit())
        out, attn, grads = _cpa_run(x, m, g)
        ref_out, ref_attn, ref_grads = direct_cpa(x, m, g)
        assert list(grads) == list(ref_grads) == ["mu", "x"]
        for got, ref in ((out, ref_out), (attn, ref_attn),
                         *((grads[k], ref_grads[k]) for k in ref_grads)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref), shape


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8), st.sampled_from(list(CpaMode)),
       st.integers(0, 2**32 - 1))
def test_projected_cpa_matches_the_direct_form_property(c, h, w, mode, seed):
    # W_q·G·W_kᵀ and (attn·W_v)·X regroup the products of projecting every position:
    # in f64 every output is within 1e-12 of the direct form (relative as `_rel_errors`
    # says). The f32 run on the same inputs stays within ~1000 f32 ulps of its f64 twin
    # (out, map) and within the package's 1e-3 rule (gradients).
    rng = Rng(seed)
    x32 = rng.fill_uniform((c, h, w), 1.0, ops.F32)
    g32 = rng.fill_uniform((c, h, w), 1.0, ops.F32)
    proj32 = init_projection(rng, c, None, ops.F32)
    mu = 0.5 + rng.next_unit()
    proj64 = ProjectionWeights(*(w.astype(np.float64) for w in proj32.params.values()))
    m64, m32 = CpaModule(proj64, mode, mu), CpaModule(proj32, mode, mu)
    x64, g64 = x32.astype(np.float64), g32.astype(np.float64)
    got64 = _cpa_run(x64, m64, g64)
    for key, err in _rel_errors(got64, direct_cpa(x64, m64, g64), x64).items():
        assert err <= 1e-12, key
    for key, err in _rel_errors(_cpa_run(x32, m32, g32), got64, x64).items():
        assert err <= (1e-4 if key in ("out", "attn") else 1e-3), key


def test_cpa_rows_are_stochastic():
    rng = Rng(32)
    x = rng.fill_uniform((5, 4, 4), 1.0)
    _, attn = cpa_forward(x, CpaModule(None, CpaMode.SUBTRACT, 1.0))
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-10


def test_cpa_most_similar_channel_gets_least_weight():
    # Subtract mode: the argmax row of each affinity column carries logit 0,
    # the unique minimum of that row when all differences are distinct.
    rng = Rng(33)
    for _ in range(10):
        x = rng.fill_uniform((5, 4, 4), 1.0)
        xf = x.reshape(5, -1)
        d = xf @ xf.T
        _, attn = cpa_forward(x, CpaModule(None, CpaMode.SUBTRACT, 1.0))
        for col in range(5):
            row = int(np.argmax(d[:, col]))
            assert attn[row, col] == pytest.approx(attn[row].min())
            assert np.argmin(attn[row]) == col


def test_cpa_subtracts_from_the_column_max_not_the_row_max():
    # DANet subtracts each row's max, which the row softmax cancels (its map is
    # softmax_rows(-G)); CPA's column max does not cancel, so the two maps differ.
    def softmax_rows(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    x = Rng(3).fill_uniform((4, 5, 5), 1.0)
    xf = x.reshape(4, -1)
    gram = xf @ xf.T
    _, attn = cpa_forward(x, CpaModule(None, CpaMode.SUBTRACT, 0.5))
    assert np.max(np.abs(attn - softmax_rows(gram.max(axis=0, keepdims=True) - gram))) < 1e-12
    assert np.max(np.abs(attn - softmax_rows(gram.max(axis=1, keepdims=True) - gram))) > 0.1


def _cpa_loss_with_max_rows(x, rows, mode, mu, g):
    """Projection-free CPA loss <g, out> with each column's max read from a fixed row."""
    c = x.shape[0]
    xf = x.reshape(c, -1)
    d = xf @ xf.T
    diff = d[rows, np.arange(c)] - d
    gated = diff * diff if mode is CpaMode.SQUARE else diff
    e = np.exp(gated - gated.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    return float(np.sum(g.reshape(c, -1) * (mu * attn @ xf + xf)))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-6), (np.float32, 1e-3)])
def test_cpa_tied_column_max_routes_to_first_row(dtype, tol):
    # Channels 1 and 2 are identical and the longest, so columns 1 and 2 of
    # the affinity have their max tied between rows 1 and 2. Dyadic entries
    # keep every affinity exact, so the tie holds in float32 too; the 0.5
    # scale keeps the squared-mode softmax out of saturation.
    row = [1.0, 0.5, -0.75, 1.25, -0.5, 0.75]
    x64 = 0.5 * np.array([[0.5, -0.25, 0.75, 0.0, 0.25, -0.5], row, row,
                          [-0.25, 0.5, 0.25, -0.5, 0.75, 0.0]]).reshape(4, 2, 3)
    g64 = Rng(35).fill_uniform((4, 2, 3), 1.0)
    x, g = x64.astype(dtype), g64.astype(dtype)
    xf = x.reshape(4, -1)
    d = ops.matmul(xf, np.ascontiguousarray(xf.T))
    assert np.array_equal(d[1], d[2])
    first = np.argmax(d, axis=0)
    last = 3 - np.argmax(d[::-1], axis=0)
    assert first[1] == first[2] == 1 and last[1] == last[2] == 2
    h = 1e-6
    for mode in CpaMode:
        got = cpa_backward(x, CpaModule(None, mode, 0.7), g)["x"].reshape(-1)
        for rows, routed_here in ((first, True), (last, False)):
            probe = x64.copy().reshape(-1)
            ref = np.empty_like(probe)
            for i in range(probe.size):
                orig = probe[i]
                probe[i] = orig + h
                up = _cpa_loss_with_max_rows(probe.reshape(x64.shape), rows, mode, 0.7, g64)
                probe[i] = orig - h
                down = _cpa_loss_with_max_rows(probe.reshape(x64.shape), rows, mode, 0.7, g64)
                probe[i] = orig
                ref[i] = (up - down) / (2 * h)
            err = np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))
            assert (err < tol) == routed_here, (mode, err)


def test_cpa_projection_must_preserve_channels():
    rng = Rng(34)
    with pytest.raises(ConfigurationError):
        CpaModule(init_projection(rng, 4, 2), CpaMode.SUBTRACT, 0.0)


def test_module_mode_given_as_text_is_its_enum():
    x, m, _ = _cpa_case(ops.F64, proj=False)
    square = CpaModule(None, "square", 0.7)
    assert square.mode is CpaMode.SQUARE
    assert (cpa_forward(x, square)[0].tobytes()
            == cpa_forward(x, dataclasses.replace(m, mode=CpaMode.SQUARE))[0].tobytes()
            != cpa_forward(x, m)[0].tobytes())
    _, spa, _ = _spa_case(ops.F64)
    assert dataclasses.replace(spa, mode="only-odd").mode is SpaMode.ONLY_ODD
    only_odd = spa_module(spa.proj, "only-odd", spa.v_spec, spa.k_spec)
    assert only_odd.mode is SpaMode.ONLY_ODD and only_odd.k_spec is spa.v_spec
    with pytest.raises(ConfigurationError,
                       match="CpaMode must be one of subtract, square, got 'bogus'"):
        CpaModule(None, "bogus")
    with pytest.raises(ConfigurationError, match="SpaMode must be one of .*, got 'bogus'"):
        dataclasses.replace(spa, mode="bogus")


# --- parameter counting ----------------------------------------------------------

def test_param_count_spa_64():
    rng = Rng(40)
    spec = PyramidSpec((1, 4, 8))
    module = SpaModule(init_projection(rng, 64), SpaMode.ONLY_EVEN, spec, spec, 0.0)
    assert param_count(module) == 2 * 64 * 64 + 64 * 64 + 1 == 12289


def test_param_count_projection_free_cpa():
    assert param_count(CpaModule(None, CpaMode.SQUARE, 0.0)) == 1


def test_param_count_cpa_with_projection():
    assert param_count(CpaModule(init_projection(Rng(41), 8), CpaMode.SUBTRACT, 0.0)) \
        == 3 * 64 + 1


def test_projection_weight_validation():
    with pytest.raises(DimensionError):
        ProjectionWeights(np.ones((2, 3)), np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(DimensionError):
        ProjectionWeights(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 2)))
    for w_q, w_kv in [(ops.F32, ops.F64), (np.int64, np.int64)]:
        with pytest.raises(DimensionError, match="share one dtype, float32 or float64"):
            ProjectionWeights(np.ones((2, 3), w_q), np.ones((2, 3), w_kv),
                              np.ones((3, 3), w_kv))
    # An empty matrix is refused when the weights are built, not at the first forward.
    with pytest.raises(DimensionError) as err:
        ProjectionWeights(np.ones((0, 2)), np.ones((0, 2)), np.ones((2, 2)))
    assert str(err.value) == "projection weights: every dim must be >= 1, got shape (0, 2)"


@pytest.mark.parametrize("name, w_k, w_v, expected", [
    ("w_k", (3, 3), (3, 3), (2, 3)), ("w_k", (2, 3, 1), (3, 3), (2, 3)),
    ("w_v", (2, 3), (2, 2), (3, 3)), ("w_v", (2, 3), (3, 2), (3, 3)),
])
def test_projection_weights_name_the_mismatched_matrix(name, w_k, w_v, expected):
    # w_k must be w_q's shape and w_v C x C, so the output keeps the residual's channels.
    with pytest.raises(DimensionError) as err:
        ProjectionWeights(np.ones((2, 3)), np.ones(w_k), np.ones(w_v))
    shape = w_k if name == "w_k" else w_v
    assert str(err.value) == (f"projection weights: {name} is float64 {shape}, "
                              f"expected float64 {expected}")


@pytest.mark.parametrize("forward", [
    lambda x, proj: nonlocal_forward(x, proj, 0.5),
    lambda x, proj: spa_forward(x, SpaModule(proj, SpaMode.ONLY_ODD, PyramidSpec((1, 3)),
                                             PyramidSpec((1, 3)), 0.5)),
    lambda x, proj: cpa_forward(x, CpaModule(proj, CpaMode.SUBTRACT, 0.5)),
], ids=["nonlocal", "spa", "cpa"])
def test_forward_names_a_projection_of_another_dtype(forward):
    rng = Rng(2)
    proj = init_projection(rng, 2, dtype=ops.F32)
    x = rng.fill_uniform((2, 4, 4), 1.0)
    with pytest.raises(DimensionError, match="projection expects 2 channels of float32, "
                                             "input has 2 of float64"):
        forward(x, proj)


# --- float32 agreement -------------------------------------------------------------

def test_backward_f32_agrees_with_f64():
    rng = Rng(50)
    proj64 = init_projection(rng, 4)
    x64 = rng.fill_uniform((4, 6, 6), 1.0)
    g64 = rng.fill_uniform((4, 6, 6), 1.0)
    spec = PyramidSpec((1, 3))
    m64 = SpaModule(proj64, SpaMode.ONLY_ODD, spec, spec, 0.8)

    proj32 = ProjectionWeights(*(w.astype(np.float32) for w in
                                 (proj64.w_q, proj64.w_k, proj64.w_v)))
    m32 = SpaModule(proj32, SpaMode.ONLY_ODD, spec, spec, 0.8)

    ref = spa_backward(x64, m64, g64)
    got = spa_backward(x64.astype(np.float32), m32, g64.astype(np.float32))
    for key in ("x", "w_q", "w_k", "w_v"):
        a, b = ref[key], got[key]
        rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-3)
        assert rel.max() < 1e-3

    ref_c = cpa_backward(x64, CpaModule(None, CpaMode.SUBTRACT, 0.5), g64)
    got_c = cpa_backward(x64.astype(np.float32), CpaModule(None, CpaMode.SUBTRACT, 0.5),
                         g64.astype(np.float32))
    rel = np.abs(ref_c["x"] - got_c["x"]) / np.maximum(np.abs(ref_c["x"]), 1e-3)
    assert rel.max() < 1e-3


def test_module_forwards_bitwise_deterministic():
    rng, proj, x = _random_case(60, 3, 6)
    spec = PyramidSpec((1, 2))
    spa = SpaModule(proj, SpaMode.ONLY_EVEN, spec, spec, 0.9)
    cpa = CpaModule(None, CpaMode.SQUARE, 0.4)
    for fn in (lambda: spa_forward(x, spa), lambda: cpa_forward(x, cpa),
               lambda: nonlocal_forward(x, proj, 0.9)):
        out_a, attn_a = fn()
        out_b, attn_b = fn()
        assert np.array_equal(out_a, out_b) and np.array_equal(attn_a, attn_b)


def test_gate_gradient_at_zero_is_aggregation_contraction():
    rng = Rng(51)
    proj = init_projection(rng, 3)
    x = rng.fill_uniform((3, 4, 4), 1.0)
    g = rng.fill_uniform((3, 4, 4), 1.0)
    spec = PyramidSpec((1, 2))
    module = SpaModule(proj, SpaMode.ONLY_EVEN, spec, spec, 0.0)
    grads = spa_backward(x, module, g)
    # independent recomputation of the aggregation term
    xf = x.reshape(3, 16)
    k_pool = np.concatenate([(proj.w_k @ xf).reshape(3, 4, 4).mean(axis=(1, 2)).reshape(3, 1),
                             _pool2(proj.w_k @ xf)], axis=1)
    v_pool = np.concatenate([(proj.w_v @ xf).reshape(3, 4, 4).mean(axis=(1, 2)).reshape(3, 1),
                             _pool2(proj.w_v @ xf)], axis=1)
    logits = k_pool.T @ (proj.w_q @ xf)
    attn = np.exp(logits - logits.max(axis=0))
    attn /= attn.sum(axis=0)
    agg = v_pool @ attn
    assert abs(grads["lam"] - float(np.sum(g.reshape(3, 16) * agg))) < 1e-12


def _pool2(flat):
    m = flat.reshape(3, 4, 4)
    return np.stack([m[:, r:r + 2, c:c + 2].mean(axis=(1, 2))
                     for r in (0, 2) for c in (0, 2)], axis=1)


@pytest.mark.parametrize("dtype", [ops.F32, ops.F64], ids=["f32", "f64"])
def test_attention_maps_are_held_once(dtype):
    # tracemalloc sees numpy's buffers. At 8 x 48 x 48 an N x N map (N = 2304) dwarfs
    # every other array, so the peak counts the maps alive at once. While the softmax
    # copied its logits these read about 2.0 (forward), 4.0 (backward) and 2.1-2.6
    # T x N maps (SPA forward). While matmul checked the logits whole, its N x N bool
    # temporary put the forward at 1.26 (f32) and 1.14 (f64) maps; now about 1.06 / 1.04.
    # While the backwards copied the transposed map gradient, non-local read 3.02 maps
    # and SPA 3.09 T x N maps; now about 2.2 and 2.2: the map and its gradient. The
    # T x N map is one softmax slice at this shape: while softmax_backward formed the
    # slice's products whole, they were a third map (3.1).
    rng = Rng(3)
    c, hw = 8, 48
    x = rng.fill_uniform((c, hw, hw), 1.0, dtype)
    g = rng.fill_uniform((c, hw, hw), 1.0, dtype)
    proj = init_projection(rng, c, None, dtype)
    spa = spa_module(proj, SpaMode.MIXED, PAPER_ODD, PAPER_EVEN, 1.0)
    n = hw * hw
    n_map = n * n * dtype.itemsize
    t_map = anchor_count(PAPER_EVEN) * n * dtype.itemsize

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: nonlocal_forward(x, proj, 1.0)) < 1.1 * n_map
    assert peak(lambda: nonlocal_backward(x, proj, 1.0, g)) < 2.5 * n_map
    assert peak(lambda: spa_forward(x, spa)) < 2.0 * t_map
    # Projected CPA holds no C x N q, k or v. Its forward holds the aggregation, whose
    # buffer the gated output takes, and the kept copy of x: about 2.05-2.1 C x N
    # arrays; 2.2-2.3 while the output was an array apart from the aggregation, 3.0
    # while the gate made `gate * agg` apart from the output. Its backward forms the
    # aggregation again for the gate gradient and frees it, then holds the
    # aggregation's gradient and the input-gradient sum: about 3.05-3.1 whether or
    # not it reruns the forward; 4.1 while the cache held the aggregation, 11.1 while
    # it projected every position and 5.1 while it summed the input gradient into
    # new arrays.
    cpa = CpaModule(proj, CpaMode.SUBTRACT, 1.0)
    c_n = c * n * dtype.itemsize
    assert peak(lambda: cpa_forward(x, cpa)) < 2.5 * c_n
    assert peak(lambda: cpa_backward(x, cpa, g)) < 3.5 * c_n
    held = cpa_forward(x, cpa)
    assert peak(lambda: cpa_backward(x, cpa, g)) < 3.5 * c_n
    del held
    assert peak(lambda: spa_backward(x, spa, g)) < 2.5 * t_map
    # With its map held, spa_backward reuses the forward: the map's gradient and the
    # blocks of products, about 1.15 T x N maps; 2.2 while it ran the forward again.
    held = spa_forward(x, spa)
    assert peak(lambda: spa_backward(x, spa, g)) < 1.5 * t_map
    del held
    # Dropping the map drops the kept forward: the traced memory comes back to its
    # level before the forward, within one x-sized array.
    for forward, backward, m in ((spa_forward, spa_backward, spa),
                                 (cpa_forward, cpa_backward, cpa)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, attn = forward(x, m)
            backward(x, m, g)
            del out, attn
            assert tracemalloc.get_traced_memory()[0] - before < x.nbytes
        finally:
            tracemalloc.stop()
