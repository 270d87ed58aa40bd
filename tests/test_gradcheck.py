import numpy as np
import pytest

from poolattn import ops
from poolattn.attention import SpaMode, init_projection, spa_backward, spa_forward, spa_module
from poolattn.errors import OracleError
from poolattn.gradcheck import (MANIFEST, compare_grads, check_module, finite_diff_grad)
from poolattn.pooling import PyramidSpec
from poolattn.rng import Rng


def test_finite_diff_sum_is_ones():
    x = Rng(1).fill_uniform((3, 4), 1.0)
    grad = finite_diff_grad(lambda a: float(a.sum()), x)
    assert np.max(np.abs(grad - 1.0)) < 1e-9


def test_finite_diff_half_norm_squared():
    x = Rng(2).fill_uniform((4, 4), 2.0)
    grad = finite_diff_grad(lambda a: 0.5 * float(np.sum(a * a)), x)
    rel = np.abs(grad - x) / np.maximum(np.abs(x), 1e-8)
    assert rel.max() < 1e-8


def test_finite_diff_softmax_row_sums_are_flat():
    x = Rng(3).fill_uniform((3, 5), 5.0)
    grad = finite_diff_grad(lambda a: float(ops.softmax(a, axis=1).sum()), x)
    assert np.max(np.abs(grad)) < 1e-8


def test_finite_diff_cubic_self_consistency():
    x = Rng(4).fill_uniform((5, 3), 1.0) + 2.0
    grad = finite_diff_grad(lambda a: float(np.sum(a ** 3)), x)
    rel = np.abs(grad - 3.0 * x * x) / np.maximum(3.0 * x * x, 1e-8)
    assert rel.max() < 1e-7


def test_finite_diff_rejects_nonfinite_probe():
    with pytest.raises(OracleError):
        finite_diff_grad(lambda a: float("nan"), np.ones((2, 2)))


def test_finite_diff_rejects_bad_step():
    from poolattn.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        finite_diff_grad(lambda a: 0.0, np.ones(2), h=0.0)


def test_finite_diff_probes_in_place_and_restores():
    x = Rng(6).fill_uniform((2, 3), 1.0)
    alias = x.T                              # f reads x only through this alias
    orig = x.copy()
    grad = finite_diff_grad(lambda _: float(np.sum(alias ** 2)), x)
    assert np.max(np.abs(grad - 2.0 * orig)) < 1e-8
    assert np.array_equal(x, orig)


def test_finite_diff_rejects_float32():
    from poolattn.errors import ConfigurationError
    with pytest.raises(ConfigurationError, match="float64"):
        finite_diff_grad(lambda a: 0.0, np.ones(2, dtype=np.float32))


def test_check_module_spa_small_config_passes():
    reports = check_module("spa", {"c": 4, "height": 6, "width": 6, "mode": "only-even",
                                   "even": (1, 2)}, seed=0)
    assert {r.target for r in reports} == {"x", "w_q", "w_k", "w_v", "lam"}
    assert all(r.passed for r in reports)


def test_check_module_gate_at_zero_passes():
    # A closed gate: the output is x, the projections' gradients are 0 and lam's is sum(g*agg).
    rng = Rng(1)
    m = spa_module(init_projection(rng, 3), SpaMode.ONLY_ODD, odd_spec=PyramidSpec((1, 3)),
                   lam=0.0)
    x = rng.fill_uniform((3, 4, 4), 1.0)
    weights = rng.fill_uniform(x.shape, 1.0)
    analytic = spa_backward(x, m, weights)

    def loss(_probed):
        return float(np.sum(weights * spa_forward(x, m)[0]))

    reports = [compare_grads(name, analytic[name], finite_diff_grad(loss, target), 1e-4)
               for name, target in {"x": x, **m.params}.items()]
    assert {r.target for r in reports} == {"x", "w_q", "w_k", "w_v", "lam"}
    assert all(r.passed for r in reports)
    lam_report = next(r for r in reports if r.target == "lam")
    assert lam_report.max_rel_error < 1e-6


def test_corrupted_backward_is_detected():
    x = Rng(5).fill_uniform((3, 4), 1.0)
    analytic = 2.0 * x                      # true gradient of sum(x^2)
    numeric = finite_diff_grad(lambda a: float(np.sum(a * a)), x)
    good = compare_grads("x", analytic, numeric, 1e-4)
    assert good.passed
    # the off-by-one-percent double must fail the same comparison
    bad = compare_grads("x", analytic * 1.01, numeric, 1e-4)
    assert not bad.passed
    assert bad.max_rel_error > 1e-3


def test_report_fields_are_consistent():
    reports = check_module("cpa", {"c": 3, "height": 3, "width": 3, "mode": "square",
                                   "with_proj": False}, seed=2)
    for r in reports:
        assert r.passed == (r.max_rel_error < r.tolerance)
        assert r.num_entries >= 1
        assert len(r.worst_index) >= 1


def test_manifest_covers_all_mechanisms_and_modes():
    kinds = [kind for _, kind, _ in MANIFEST]
    assert len(MANIFEST) == 12
    assert kinds.count("nonlocal") == 2
    assert kinds.count("spa") == 5
    assert kinds.count("cpa") == 4
    assert kinds.count("network") == 1
    spa_modes = {cfg["mode"] for _, kind, cfg in MANIFEST if kind == "spa"}
    assert spa_modes == {"only-odd", "only-even", "mixed"}
    cpa_modes = {cfg["mode"] for _, kind, cfg in MANIFEST if kind == "cpa"}
    assert cpa_modes == {"subtract", "square"}
