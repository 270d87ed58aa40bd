"""Report builders behind the CLI subcommands.

Each builder returns a plain dict ready for JSON emission; every report
embeds the library version and the full run configuration, and the
train-demo report is deterministic byte-for-byte for fixed flags.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from dataclasses import asdict
from functools import partial

import numpy as np

from . import accounting, dpt, gradcheck, network
from .attention import (CpaMode, CpaModule, SpaMode, SpaModule, cpa_forward,
                        init_projection, nonlocal_forward, spa_forward)
from .errors import ConfigurationError, ResourceLimitError
from .ops import _check_dims, resolve_dtype
from .pooling import TOY_EVEN_MATCHED, TOY_ODD_MATCHED, PyramidSpec, anchor_count, \
    boundary_histogram, interior_offsets, parse_spec, spec_name
from .rng import Rng
from .threads import thread_cap
from .version import __version__


def _check_mem_limit(module_kind: str, cost: accounting.CostReport,
                     mem_limit: int | None) -> None:
    """Raise ResourceLimitError (exit 3) before a map larger than `mem_limit` bytes is made."""
    if mem_limit is not None and cost.attn_map_bytes > mem_limit:
        raise ResourceLimitError(f"{module_kind} attention map needs {cost.attn_map_bytes} "
                                 f"bytes, above the limit {mem_limit}")


def _environment() -> dict:
    """What ran: Python, numpy, the BLAS numpy was built against, and the CPU count."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "cpu_count": os.cpu_count()}


def flops_report(c: int, chat: int, h: int, w: int, spec_k: PyramidSpec,
                 spec_v: PyramidSpec, dtype_name: str,
                 include_softmax: bool) -> dict:
    """Costs and the N/T ratio; `include_softmax` changes no number, it is only echoed."""
    dtype = resolve_dtype(dtype_name)
    names = (spec_name(spec_k), spec_name(spec_v))
    nb = accounting.cost_nonlocal(c, chat, h, w, dtype)
    spa = accounting.cost_spa(c, chat, h, w, spec_k, spec_v, dtype)
    ratio = accounting.reduction_ratio(nb, spa)
    warnings = []
    t, n = anchor_count(spec_k), h * w
    if t > n:
        warnings.append(f"anchor count T={t} exceeds N={n}: pooling enlarges this shape "
                        f"and the ratio drops below 1")
    if max(spec_k.max_size, spec_v.max_size) > min(h, w):
        warnings.append(f"largest pool size {max(spec_k.max_size, spec_v.max_size)} does "
                        f"not fit {h}x{w}; costs are arithmetic only, the forward pass "
                        f"would reject this shape")
    return {
        "version": __version__,
        "config": {"c": c, "chat": chat, "h": h, "w": w, "dtype": dtype_name,
                   "spec_k": names[0], "spec_v": names[1],
                   "include_softmax": include_softmax},
        "nonlocal": nb.as_dict(),
        "spa": {**spa.as_dict(), "spec_names": list(names)},
        "reduction_ratio": ratio,
        "warnings": warnings,
    }


def bench_report(c: int, chat: int, h: int, w: int, spec_k: PyramidSpec,
                 spec_v: PyramidSpec, dtype_name: str, reps: int, warmup: int,
                 seed: int, mem_limit: int | None) -> dict:
    if reps < 5:
        raise ConfigurationError(f"bench needs at least 5 repetitions, got {reps}")
    dtype = resolve_dtype(dtype_name)
    names = (spec_name(spec_k), spec_name(spec_v))
    nb_cost = accounting.cost_nonlocal(c, chat, h, w, dtype)
    spa_cost = accounting.cost_spa(c, chat, h, w, spec_k, spec_v, dtype)
    print(f"nonlocal attention map: {nb_cost.attn_map_bytes} bytes "
          f"(spa: {spa_cost.attn_map_bytes})", file=sys.stderr, flush=True)
    _check_mem_limit("nonlocal", nb_cost, mem_limit)

    rng = Rng(seed)
    proj = init_projection(rng, c, chat, dtype)
    x = rng.fill_uniform((c, h, w), 1.0, dtype)
    module = SpaModule(proj, SpaMode.MIXED, spec_k, spec_v, lam=1.0)

    def timed(fn) -> float:
        for _ in range(warmup):
            fn()
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1000.0)
        return statistics.median(samples)

    nb_ms = timed(lambda: nonlocal_forward(x, proj, 1.0))
    spa_ms = timed(lambda: spa_forward(x, module))

    return {
        "version": __version__,
        "config": {"c": c, "chat": chat, "h": h, "w": w, "dtype": dtype_name,
                   "spec_k": names[0], "spec_v": names[1], "threads": thread_cap(),
                   "seed": seed},
        "wall_ms": {"nonlocal": nb_ms, "spa": spa_ms},
        "speedup": nb_ms / spa_ms,
        "peak_attn_map_bytes": {"nonlocal": nb_cost.attn_map_bytes,
                                "spa": spa_cost.attn_map_bytes},
        "flops": {"nonlocal": nb_cost.flops_total, "spa": spa_cost.flops_total},
        "repetitions": reps,
        "warmup": warmup,
        "env": _environment(),
    }


def equivalence_report(seeds: int, sizes: list[int], channels: list[int],
                       tolerance: float = 1e-12) -> dict:
    """Full-resolution-pooling oracle plus gate-closed identity, per seed and size."""
    if seeds < 1 or not sizes or len(channels) != len(sizes):
        raise ConfigurationError(f"equivalence needs seeds >= 1 and one channel count per "
                                 f"size, got seeds={seeds}, sizes={sizes}, "
                                 f"channels={channels}")
    cases = []
    for seed in range(seeds):
        for size, c in zip(sizes, channels):
            rng = Rng(seed * 7919 + size)
            proj = init_projection(rng, c)
            x = rng.fill_uniform((c, size, size), 1.0)
            lam = 0.25 + rng.next_unit()

            full = PyramidSpec((size,))
            spa_out, _ = spa_forward(x, SpaModule(proj, SpaMode.MIXED, full, full, lam))
            nb_out, _ = nonlocal_forward(x, proj, lam)
            max_abs = float(np.max(np.abs(spa_out - nb_out)))

            closed_spa, _ = spa_forward(x, SpaModule(proj, SpaMode.MIXED, full, full, 0.0))
            closed_nb, _ = nonlocal_forward(x, proj, 0.0)
            closed_cpa, _ = cpa_forward(x, CpaModule(None, CpaMode.SUBTRACT, 0.0))
            bitwise = (np.array_equal(closed_spa, x) and np.array_equal(closed_nb, x)
                       and np.array_equal(closed_cpa, x))

            cases.append({
                "seed": seed,
                "size": size,
                "channels": c,
                "max_abs_diff": max_abs,
                "gate_closed_bitwise": bitwise,
                "passed": bool(max_abs <= tolerance and bitwise),
            })
    return {
        "version": __version__,
        "config": {"seeds": seeds, "sizes": sizes, "channels": channels,
                   "tolerance": tolerance},
        "cases": cases,
        "all_passed": all(case["passed"] for case in cases),
    }


def gradcheck_report(kind: str, config: dict, seed: int, h: float, tol: float) -> dict:
    if kind == "all":
        pairs = gradcheck.run_manifest(seed=seed, h=h, tol=tol)
    else:
        pairs = [(kind, gradcheck.check_module(kind, config, seed=seed, h=h, tol=tol))]
    reports = []
    for case, case_reports in pairs:
        for rep in case_reports:
            entry = {"case": case}
            entry.update(rep.as_dict())
            reports.append(entry)
    return {
        "version": __version__,
        "config": {"kind": kind, "seed": seed, "h": h, "tol": tol, **config},
        "reports": reports,
        "all_passed": all(r["passed"] for r in reports),
    }


def train_demo_report(seed: int, size: int, steps: int, lr: float, momentum: float,
                      poly_power: float | None, count: int, batch: int,
                      spa_mode: str, spec_text: str | None, cpa_mode: str) -> dict:
    cfg = network.TrainConfig(lr=lr, momentum=momentum, steps=steps,
                              poly_power=poly_power, batch=batch)
    mode = SpaMode(spa_mode)
    if mode is SpaMode.MIXED:
        if spec_text is not None:
            raise ConfigurationError(f"mixed mode pairs the matched toy pyramids and takes "
                                     f"no pyramid spec, got {spec_text!r}")
        odd, even = TOY_ODD_MATCHED, TOY_EVEN_MATCHED
        spec_label = f"{spec_name(odd)}+{spec_name(even)}"
    else:
        odd = even = parse_spec(spec_text or "toy-odd")
        spec_label = spec_name(odd)
    model = network.build_model(seed, spa_mode=mode, odd_spec=odd, even_spec=even,
                                cpa_mode=CpaMode(cpa_mode))
    data = network.synth_dataset(seed, count, size)
    report = network.train(model, data, cfg)
    return {
        "version": __version__,
        "config": {"seed": seed, "size": size, "steps": steps, "lr": lr,
                   "momentum": momentum, "poly_power": poly_power, "count": count,
                   "batch": batch, "spa_mode": spa_mode, "spec": spec_label,
                   "cpa_mode": cpa_mode},
        **asdict(report),
    }


def coverage_report(specs: list[PyramidSpec], extent: int) -> dict:
    entries = []
    union: set[int] = set()
    for spec in specs:
        interior = interior_offsets(spec, extent)
        union |= interior
        entries.append({
            "name": spec_name(spec),
            "sizes": list(spec.sizes),
            "anchor_count": anchor_count(spec),
            "histogram": [[o, c] for o, c in boundary_histogram(spec, extent)],
            "interior_count": len(interior),
        })
    return {
        "version": __version__,
        "config": {"specs": [e["name"] for e in entries], "extent": extent},
        "specs": entries,
        "union_interior_count": len(union),
        "comparisons": [{"spec": e["name"], "interior_count": e["interior_count"],
                         "union_exceeds": len(union) > e["interior_count"]}
                        for e in entries],
    }


def attn_report(input_path: str, module_kind: str, out_tensor: str, out_attn: str,
                seed: int, chat: int | None, spec_k: PyramidSpec, spec_v: PyramidSpec,
                cpa_mode: str, with_proj: bool, lam: float, mu: float,
                mem_limit: int | None = None) -> dict:
    """Run one module on a tensor file; `mem_limit` bounds its attention map in bytes,
    checked after the input is read and before the forward runs."""
    x = dpt.read_tensor(input_path)
    _check_dims(x, "attn", 3)
    c, h, w = x.shape
    rng = Rng(seed)
    dtype = x.dtype
    if module_kind == "nonlocal":
        proj = init_projection(rng, c, chat, dtype)
        cost = accounting.cost_nonlocal(c, proj.reduced, h, w, dtype)
        forward = partial(nonlocal_forward, x, proj, lam)
        config = {"module": module_kind, "seed": seed, "chat": proj.reduced, "lam": lam}
    elif module_kind == "spa":
        proj = init_projection(rng, c, chat, dtype)
        module = SpaModule(proj, SpaMode.MIXED, spec_k, spec_v, lam)
        cost = accounting.cost_spa(c, proj.reduced, h, w, spec_k, spec_v, dtype)
        forward = partial(spa_forward, x, module)
        config = {"module": module_kind, "seed": seed, "chat": proj.reduced, "lam": lam,
                  "spec_k": spec_name(spec_k), "spec_v": spec_name(spec_v)}
    elif module_kind == "cpa":
        proj = init_projection(rng, c, None, dtype) if with_proj else None
        module = CpaModule(proj, CpaMode(cpa_mode), mu)
        cost = accounting.cost_cpa(c, h, w, with_proj, dtype)
        forward = partial(cpa_forward, x, module)
        config = {"module": module_kind, "seed": seed, "mu": mu, "mode": cpa_mode,
                  "with_proj": with_proj}
    else:
        raise ConfigurationError(f"unknown module kind {module_kind!r}")
    _check_mem_limit(module_kind, cost, mem_limit)
    out, attn = forward()
    dpt.write_dpt(out_tensor, out)
    dpt.write_dpt(out_attn, attn)
    return {
        "version": __version__,
        "config": config,
        "input_shape": list(x.shape),
        "output_shape": list(out.shape),
        "attn_shape": list(attn.shape),
        "params": cost.params,
        "out_tensor": out_tensor,
        "out_attn": out_attn,
    }
