import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolattn import instrument
from poolattn.accounting import (cost_cpa, cost_nonlocal, cost_spa, reduction_ratio)
from poolattn.attention import (CpaMode, CpaModule, SpaMode, SpaModule, cpa_forward,
                                init_projection, nonlocal_forward, param_count,
                                spa_forward)
from poolattn.errors import ComparisonError, ConfigurationError
from poolattn.pooling import PAPER_EVEN, PAPER_ODD, PyramidSpec, anchor_count
from poolattn.rng import Rng


def test_nonlocal_degenerate_size_formula():
    r = cost_nonlocal(3, 3, 1, 1)
    assert r.flops_core == 4 * 3 + 5


def test_nonlocal_map_bytes_at_96():
    r = cost_nonlocal(64, 64, 96, 96, np.float32)
    assert r.attn_map_bytes == 9216 ** 2 * 4 == 339738624


def test_doubling_height_quadruples_core():
    a = cost_nonlocal(8, 8, 12, 12)
    b = cost_nonlocal(8, 8, 24, 12)
    # N doubles, every core term is quadratic in N
    assert b.flops_core == 4 * a.flops_core


def test_spa_adds_zero_parameters():
    for c, chat in [(64, 64), (64, 32), (16, 16)]:
        nb = cost_nonlocal(c, chat, 96, 96)
        spa = cost_spa(c, chat, 96, 96, PAPER_EVEN, PAPER_ODD)
        assert spa.params - nb.params == 0


def test_spa_map_bytes_at_96():
    r = cost_spa(64, 32, 96, 96, PAPER_EVEN, PAPER_ODD, np.float32)
    assert r.attn_map_bytes == 325 * 9216 * 4 == 11980800


def test_reduction_ratio_paper_headline():
    nb = cost_nonlocal(64, 32, 96, 96)
    spa = cost_spa(64, 32, 96, 96, PAPER_EVEN, PAPER_ODD)
    assert reduction_ratio(nb, spa) == pytest.approx(9216 / 325, abs=1e-12)
    assert reduction_ratio(nb, spa) == pytest.approx(28.356923, abs=1e-3)


def test_reduction_ratio_rectangular():
    nb = cost_nonlocal(64, 64, 256, 128)
    spa = cost_spa(64, 64, 256, 128, PAPER_EVEN, PAPER_ODD)
    assert reduction_ratio(nb, spa) == pytest.approx(32768 / 325, abs=1e-9)


def test_reduction_ratio_full_resolution_is_one():
    spec = PyramidSpec((4,))  # T = 16 = N at 4x4
    nb = cost_nonlocal(8, 8, 4, 4)
    spa = cost_spa(8, 8, 4, 4, spec, spec)
    assert reduction_ratio(nb, spa) == 1.0
    # The baseline is SPA at T = N: only the pooling adds differ.
    for c, chat, dtype in [(8, 8, np.float32), (8, 3, np.float64)]:
        nb = cost_nonlocal(c, chat, 4, 4, dtype)
        spa = cost_spa(c, chat, 4, 4, spec, spec, dtype)
        assert spa.flops_pool == 16 * c
        assert replace(spa, flops_pool=0) == nb


def test_reduction_ratio_channel_invariant_and_softmax_neutral():
    for c, chat in [(8, 8), (32, 16), (64, 7)]:
        nb = cost_nonlocal(c, chat, 20, 20)
        spa = cost_spa(c, chat, 20, 20, PyramidSpec((1, 2)), PyramidSpec((1, 2)))
        n_over_t = 400 / 5
        assert reduction_ratio(nb, spa) == pytest.approx(n_over_t, abs=1e-9)
        with_softmax = ((nb.flops_map + nb.flops_softmax + nb.flops_agg)
                        / (spa.flops_map + spa.flops_softmax + spa.flops_agg))
        assert with_softmax == reduction_ratio(nb, spa)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 200), st.integers(1, 200),
       st.sampled_from([PAPER_EVEN, PAPER_ODD, PyramidSpec((1, 2)), PyramidSpec((1, 3, 5)),
                        PyramidSpec((4,))]),
       st.sampled_from([np.float32, np.float64]))
def test_reduction_ratio_is_exactly_n_over_t(c, chat, h, w, spec, dtype):
    nb = cost_nonlocal(c, chat, h, w, dtype)
    spa = cost_spa(c, chat, h, w, spec, spec, dtype)
    assert reduction_ratio(nb, spa) == h * w / anchor_count(spec)


def test_cost_spa_refuses_unpaired_pyramids():
    # The rule SpaModule holds to, with its error: (1,2) gives 5 anchors, (1,3) 10.
    message = "key/value pyramids must agree on anchor count: (1, 2) gives 5, (1, 3) gives 10"
    with pytest.raises(ConfigurationError) as err:
        cost_spa(4, 4, 8, 8, PyramidSpec((1, 2)), PyramidSpec((1, 3)))
    assert str(err.value) == message


def test_reduction_ratio_shape_mismatch():
    nb = cost_nonlocal(8, 8, 4, 4)
    spa = cost_spa(8, 8, 6, 6, PyramidSpec((1, 2)), PyramidSpec((1, 2)))
    with pytest.raises(ComparisonError):
        reduction_ratio(nb, spa)


@pytest.mark.parametrize("dtype,name", [(np.float32, "f32"), ("<f4", "f32"),
                                        (np.float64, "f64"), (np.dtype("<f8"), "f64")])
def test_reports_name_float_dtypes(dtype, name):
    assert cost_nonlocal(2, 2, 3, 3, dtype).dtype == name
    assert cost_cpa(2, 3, 3, False, dtype).dtype == name


@pytest.mark.parametrize("dtype", [np.int64, np.complex64, np.float16])
def test_reports_refuse_other_dtypes(dtype):
    with pytest.raises(ConfigurationError, match="not float32/float64"):
        cost_nonlocal(2, 2, 3, 3, dtype)


def test_cpa_parameter_counts_and_bytes():
    assert cost_cpa(64, 96, 96, with_proj=False).params == 1
    assert cost_cpa(64, 96, 96, with_proj=True).params == 3 * 64 * 64 + 1
    assert cost_cpa(64, 96, 96, with_proj=False, dtype=np.float32).attn_map_bytes == 16384


def test_cpa_projections_cost_three_channel_products_at_paper_shape():
    # W_q·G·W_kᵀ and attn·W_v: three 64^3 products, where projecting all N = 9216
    # positions cost 226,492,416. The map and the aggregation stay 2*N*C^2 each.
    rng = Rng(9)
    x = rng.fill_uniform((64, 96, 96), 1.0, np.float32)
    m = CpaModule(init_projection(rng, 64, None, np.float32), CpaMode.SUBTRACT, 1.0)
    cost = cost_cpa(64, 96, 96, with_proj=True)
    with instrument.counting() as tally:
        cpa_forward(x, m)
    assert tally["proj"] == cost.flops_proj == 1_572_864
    assert tally["map"] == cost.flops_map == tally["agg"] == cost.flops_agg == 75_497_472
    assert cost_cpa(64, 96, 96, with_proj=False).flops_proj == 0


def test_params_match_module_enumeration():
    rng = Rng(1)
    spec = PyramidSpec((1, 2))
    for c, chat in [(4, 4), (6, 3), (16, 16)]:
        proj = init_projection(rng, c, chat)
        spa = SpaModule(proj, SpaMode.ONLY_EVEN, spec, spec, 0.0)
        assert param_count(spa) == cost_spa(c, chat, 8, 8, spec, spec).params
        assert param_count(proj) + 1 == cost_nonlocal(c, chat, 8, 8).params
    proj = init_projection(rng, 5)
    assert param_count(CpaModule(proj, CpaMode.SUBTRACT, 0.0)) == \
        cost_cpa(5, 8, 8, with_proj=True).params
    assert param_count(CpaModule(None, CpaMode.SQUARE, 0.0)) == \
        cost_cpa(5, 8, 8, with_proj=False).params


def test_instrumented_execution_matches_closed_form():
    # Ten random shapes; counts from the instrumented forwards must equal the
    # closed-form accounting exactly, category by category.
    rng = Rng(99)
    shape_rng = Rng(123)
    for trial in range(10):
        c = shape_rng.next_int(2, 6)
        chat = shape_rng.next_int(2, 6)
        h = shape_rng.next_int(4, 9)
        w = shape_rng.next_int(4, 9)
        sizes = (1, shape_rng.next_int(2, min(h, w)))
        spec = PyramidSpec(sizes)
        proj = init_projection(rng, c, chat)
        x = rng.fill_uniform((c, h, w), 1.0)

        nb = cost_nonlocal(c, chat, h, w)
        with instrument.counting() as tally:
            nonlocal_forward(x, proj, 0.7)
        assert tally["map"] == nb.flops_map
        assert tally["softmax"] == nb.flops_softmax
        assert tally["agg"] == nb.flops_agg
        assert tally["proj"] == nb.flops_proj
        assert tally["map"] + tally["softmax"] + tally["agg"] == nb.flops_core

        spa_cost = cost_spa(c, chat, h, w, spec, spec)
        module = SpaModule(proj, SpaMode.ONLY_EVEN, spec, spec, 0.7)
        with instrument.counting() as tally:
            spa_forward(x, module)
        assert tally["map"] == spa_cost.flops_map
        assert tally["softmax"] == spa_cost.flops_softmax
        assert tally["agg"] == spa_cost.flops_agg
        assert tally["proj"] == spa_cost.flops_proj
        assert tally["pool"] == spa_cost.flops_pool

        mode = CpaMode.SQUARE if trial % 2 else CpaMode.SUBTRACT
        with_proj = trial % 3 == 0
        cpa_cost = cost_cpa(c, h, w, with_proj=with_proj)
        cmod = CpaModule(init_projection(rng, c) if with_proj else None, mode, 0.3)
        with instrument.counting() as tally:
            cpa_forward(x, cmod)
        assert tally["map"] == cpa_cost.flops_map
        assert tally["maxdiff"] == cpa_cost.flops_extra
        assert tally["softmax"] == cpa_cost.flops_softmax
        assert tally["agg"] == cpa_cost.flops_agg
        assert tally.get("proj", 0) == cpa_cost.flops_proj


@pytest.mark.parametrize("k_spec, v_spec, proj, pool", [
    (PAPER_EVEN, PAPER_ODD, 41_742_336, 5_898_240),   # two pyramids: two pools
    (PAPER_ODD, PAPER_ODD, 41_742_336, 2_949_120),    # one pyramid: one pool
])
def test_spa_instrumented_flops_match_closed_form_at_paper_shape(k_spec, v_spec, proj, pool):
    # Keys and values are projected at T = 325 anchors: 2*N*chat*C + 2*T*(chat*C + C^2).
    # Projected at all N = 9216 positions first, as in the paper, they cost 150,994,944
    # and the two pools 4,423,680: what cost_nonlocal's flops_proj still holds.
    c, chat, hw = 64, 32, 96
    cost = cost_spa(c, chat, hw, hw, k_spec, v_spec, np.float32)
    assert (cost.flops_proj, cost.flops_pool) == (proj, pool)
    assert cost_nonlocal(c, chat, hw, hw).flops_proj == 150_994_944
    rng = Rng(8)
    x = rng.fill_uniform((c, hw, hw), 1.0, np.float32)
    module = SpaModule(init_projection(rng, c, chat, np.float32), SpaMode.MIXED, k_spec, v_spec,
                       0.5)
    with instrument.counting() as tally:
        spa_forward(x, module)
    assert tally == {"proj": proj, "pool": pool, "map": cost.flops_map,
                     "softmax": cost.flops_softmax, "agg": cost.flops_agg}


def test_counting_tally_is_private_to_its_thread_and_nests():
    x = Rng(5).fill_uniform((2, 4, 4), 1.0)
    proj = init_projection(Rng(6), 2, 2)
    with instrument.counting() as outer:
        worker = threading.Thread(target=nonlocal_forward, args=(x, proj, 0.5))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert outer == {}
        with instrument.counting() as inner:
            nonlocal_forward(x, proj, 0.5)
        assert outer == {} and inner["map"] == cost_nonlocal(2, 2, 4, 4).flops_map
        instrument.add("map", 3)
        assert outer == {"map": 3}
    assert not instrument.enabled()


def test_spa_core_always_below_nonlocal_when_t_below_n():
    rng = Rng(7)
    for _ in range(20):
        h = rng.next_int(6, 14)
        w = rng.next_int(6, 14)
        c = rng.next_int(2, 8)
        spec = PyramidSpec((1, 2))
        if anchor_count(spec) < h * w:
            nb = cost_nonlocal(c, c, h, w)
            spa = cost_spa(c, c, h, w, spec, spec)
            assert spa.flops_core < nb.flops_core
