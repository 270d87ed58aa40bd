"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, none deferred.
"""

import json
import time

import numpy as np

from poolattn import instrument
from poolattn.accounting import cost_nonlocal, cost_spa, reduction_ratio
from poolattn.attention import (CpaMode, CpaModule, SpaMode, SpaModule, cpa_forward,
                                init_projection, nonlocal_forward, param_count,
                                spa_forward)
from poolattn.gradcheck import run_manifest
from poolattn.harness import bench_report, equivalence_report, train_demo_report
from poolattn.pooling import PAPER_EVEN, PAPER_ODD, PyramidSpec, anchor_count, \
    interior_offsets
from poolattn.rng import Rng


def _ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_anchor_arithmetic():
    t0 = time.perf_counter()
    even = anchor_count(PyramidSpec((1, 4, 8, 10, 12)))
    odd = anchor_count(PyramidSpec((1, 5, 7, 9, 13)))
    elapsed = time.perf_counter() - t0
    assert even == odd == 325
    assert elapsed < 1e-3
    _ok(1, f"anchor_count(even) == anchor_count(odd) == 325 in {elapsed * 1e6:.0f} us")


def test_criterion_2_complexity_reduction():
    t0 = time.perf_counter()
    nb = cost_nonlocal(64, 64, 96, 96)
    spa = cost_spa(64, 64, 96, 96, PAPER_EVEN, PAPER_ODD)
    ratio = reduction_ratio(nb, spa)
    assert abs(ratio - 9216 / 325) < 1e-9
    assert abs(ratio - 28.356) <= 1e-3

    rng = Rng(2024)
    shape_rng = Rng(17)
    for _ in range(10):
        c = shape_rng.next_int(2, 6)
        chat = shape_rng.next_int(2, 6)
        h = shape_rng.next_int(4, 9)
        w = shape_rng.next_int(4, 9)
        spec = PyramidSpec((1, shape_rng.next_int(2, min(h, w))))
        proj = init_projection(rng, c, chat)
        x = rng.fill_uniform((c, h, w), 1.0)
        nb_c = cost_nonlocal(c, chat, h, w)
        with instrument.counting() as tally:
            nonlocal_forward(x, proj, 0.5)
        assert (tally["map"] + tally["softmax"] + tally["agg"] == nb_c.flops_core
                and tally["proj"] == nb_c.flops_proj)
        spa_c = cost_spa(c, chat, h, w, spec, spec)
        with instrument.counting() as tally:
            spa_forward(x, SpaModule(proj, SpaMode.ONLY_EVEN, spec, spec, 0.5))
        assert (tally["map"] + tally["softmax"] + tally["agg"] == spa_c.flops_core
                and tally["proj"] == spa_c.flops_proj
                and tally["pool"] == spa_c.flops_pool)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _ok(2, f"ratio {ratio:.6f} == 9216/325; instrumented FLOPs exact on 10 shapes "
           f"({elapsed:.1f}s)")


def test_criterion_3_zero_parameter_claim():
    assert param_count(PAPER_EVEN) == 0 and param_count(PAPER_ODD) == 0
    for c, chat in [(64, 64), (64, 32), (16, 16), (7, 3)]:
        nb = cost_nonlocal(c, chat, 96, 96)
        spa = cost_spa(c, chat, 96, 96, PAPER_EVEN, PAPER_ODD)
        assert spa.params == nb.params
        module = SpaModule(init_projection(Rng(c), c, chat), SpaMode.MIXED,
                           PAPER_EVEN, PAPER_ODD, 0.0)
        assert param_count(module) == nb.params
    _ok(3, "pyramid pooling enumerates 0 learnables; params(SPA) == params(baseline)")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    report = equivalence_report(seeds=50, sizes=[3, 5], channels=[2, 4],
                                tolerance=1e-12)
    worst = max(case["max_abs_diff"] for case in report["cases"])
    assert len(report["cases"]) == 100
    assert report["all_passed"]
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _ok(4, f"full-resolution SPA == non-local over 100 cases, worst |diff| {worst:.2e} "
           f"({elapsed:.1f}s)")


def test_criterion_5_gate_closed_identity():
    rng = Rng(555)
    spec = PyramidSpec((1, 2))
    for trial in range(20):
        c = 2 + trial % 3
        size = 4 + trial % 3
        proj = init_projection(rng, c)
        x = rng.fill_uniform((c, size, size), 1.0)
        spa_out, _ = spa_forward(x, SpaModule(proj, SpaMode.ONLY_EVEN, spec, spec, 0.0))
        nb_out, _ = nonlocal_forward(x, proj, 0.0)
        cpa_out, _ = cpa_forward(x, CpaModule(None, CpaMode.SUBTRACT, 0.0))
        assert np.array_equal(spa_out, x)
        assert np.array_equal(nb_out, x)
        assert np.array_equal(cpa_out, x)
    _ok(5, "lambda=0 / mu=0 give bitwise output == input for SPA, CPA, baseline x20")


def test_criterion_6_gradient_correctness():
    t0 = time.perf_counter()
    results = run_manifest(seed=0, h=1e-5, tol=1e-4)
    assert len(results) == 12
    worst = 0.0
    for name, reports in results:
        for rep in reports:
            worst = max(worst, rep.max_rel_error)
            assert rep.passed, f"{name}/{rep.target}: {rep.max_rel_error}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _ok(6, f"12-config manifest passes finite differences, worst rel err {worst:.2e} "
           f"({elapsed:.1f}s)")


def test_criterion_7_training_demonstration():
    t0 = time.perf_counter()
    kwargs = dict(seed=7, size=16, steps=300, lr=0.05, momentum=0.9, poly_power=None,
                  count=4, batch=4, spa_mode="only-odd", spec_text="toy-odd",
                  cpa_mode="subtract")
    first = train_demo_report(**kwargs)
    second = train_demo_report(**kwargs)
    bytes_a = json.dumps(first, indent=2).encode()
    bytes_b = json.dumps(second, indent=2).encode()
    assert bytes_a == bytes_b
    assert first["pixel_accuracy"] >= 0.95
    assert abs(first["lambda_final"]) > 0.0
    assert abs(first["mu_final"]) > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _ok(7, f"pinned run: accuracy {first['pixel_accuracy']:.4f}, "
           f"lambda {first['lambda_final']:+.4f}, mu {first['mu_final']:+.4f}, "
           f"byte-identical reports ({elapsed:.1f}s)")


def test_criterion_8_benchmark_direction():
    report = bench_report(c=64, chat=32, h=96, w=96, spec_k=PAPER_EVEN,
                          spec_v=PAPER_ODD, dtype_name="f32", reps=5, warmup=2,
                          seed=0, mem_limit=None)
    assert report["peak_attn_map_bytes"]["nonlocal"] == 339738624
    assert report["peak_attn_map_bytes"]["spa"] == 11980800
    assert report["wall_ms"]["spa"] < report["wall_ms"]["nonlocal"]
    assert report["speedup"] > 1.0
    flop_ratio = 9216 / 325
    mem_ratio = 339738624 / 11980800
    _ok(8, f"wall speedup {report['speedup']:.1f}x (FLOP ratio {flop_ratio:.2f}, "
           f"memory ratio {mem_ratio:.2f})")


def test_criterion_9_coverage_diagnostic():
    odd = interior_offsets(PAPER_ODD, 96)
    union = odd | interior_offsets(PAPER_EVEN, 96)
    assert len(union) > len(odd)
    _ok(9, f"interior boundaries: union {len(union)} > odd-only {len(odd)} at H=96")
