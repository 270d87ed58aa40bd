"""Finite-difference oracle for every analytic backward pass in the package.

A check builds a scalar loss (fixed random weights contracted with the
module output), runs the analytic backward once, and probes every entry
of every learnable plus the input with central differences, perturbing
the module's live `params` in place. Errors are
relative: |a - n| / max(|a|, |n|, 1e-8), so true-zero gradients compare
cleanly. Checking is float64-only; float32 backward passes are validated
separately by agreement with their float64 twins.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import network
from .attention import (CpaMode, CpaModule, SpaMode, cpa_backward, cpa_forward,
                        init_projection, nonlocal_backward, nonlocal_forward, spa_backward,
                        spa_forward, spa_module)
from .errors import ConfigurationError, NonFiniteError, OracleError
from .pooling import PyramidSpec
from .rng import Rng

FLOOR = 1e-8


@dataclass(frozen=True)
class GradCheckReport:
    target: str
    max_rel_error: float
    num_entries: int
    tolerance: float
    passed: bool
    worst_index: tuple[int, ...]

    def as_dict(self) -> dict:
        return {**asdict(self), "worst_index": list(self.worst_index)}


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central differences (f(x+h*e) - f(x-h*e)) / 2h for every entry of x.

    x must be a float64 array. It is perturbed in place, one entry at a
    time, and each entry is restored before the next, so f may read x
    through any alias, such as the live `params` of a module.
    """
    if h <= 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {h}")
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        raise ConfigurationError("finite differences need a float64 array, "
                                 f"got {getattr(x, 'dtype', type(x).__name__)}")
    grad = np.zeros(x.shape, dtype=np.float64)
    for i, idx in enumerate(np.ndindex(x.shape)):
        orig = x[idx]
        probes = []
        for sign, value in (("+h", orig + h), ("-h", orig - h)):
            x[idx] = value
            try:
                probes.append(f(x))
            except NonFiniteError as exc:
                raise OracleError(f"probe {sign} at entry {i} evaluated non-finite") from exc
            finally:
                x[idx] = orig
        up, down = probes
        if not (math.isfinite(up) and math.isfinite(down)):
            raise OracleError(f"probe at entry {i} evaluated non-finite")
        grad[idx] = (up - down) / (2.0 * h)
    return grad


def compare_grads(target: str, analytic: np.ndarray, numeric: np.ndarray,
                  tolerance: float) -> GradCheckReport:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), FLOOR)
    worst = int(np.argmax(rel))
    max_err = float(rel.reshape(-1)[worst])
    return GradCheckReport(
        target=target,
        max_rel_error=max_err,
        num_entries=int(a.size),
        tolerance=tolerance,
        passed=max_err < tolerance,
        worst_index=tuple(int(i) for i in np.unravel_index(worst, a.shape)) if a.ndim else (0,),
    )


def check_module(kind: str, config: dict, seed: int = 0, h: float = 1e-5,
                 tol: float = 1e-4) -> list[GradCheckReport]:
    """Finite-difference-check one configuration; returns a report per target."""
    if kind not in _CASES:
        raise ConfigurationError(f"unknown gradcheck kind {kind!r}")
    rng = Rng(seed)
    targets, forward, backward, out_shape = _CASES[kind](config, rng, seed)
    weights = rng.fill_uniform(out_shape, 1.0)
    analytic = backward(weights)

    def loss(_probed: np.ndarray) -> float:
        return float(np.sum(weights * forward()))

    return [compare_grads(name, analytic[name], finite_diff_grad(loss, target, h), tol)
            for name, target in targets.items()]


# Each case draws its module and input from the check's Rng, then returns
# (targets, forward, backward, output shape). `targets` holds the input and
# the module's live params, in report order; `forward()` calls the public
# forward on them and `backward(g)` returns gradients keyed like `targets`.

def _dims(config: dict) -> tuple[int, int, tuple[int, int]]:
    return config["c"], config.get("chat", config["c"]), (config["height"], config["width"])


def _nonlocal_case(config, rng, seed):
    c, chat, hw = _dims(config)
    proj = init_projection(rng, c, chat)
    lam = np.array(0.5 + rng.next_unit())
    x = rng.fill_uniform((c, *hw), 1.0)
    return ({"x": x, **proj.params, "lam": lam},
            lambda: nonlocal_forward(x, proj, lam)[0],
            lambda g: nonlocal_backward(x, proj, lam, g), x.shape)


def _spa_case(config, rng, seed):
    c, chat, hw = _dims(config)
    odd = PyramidSpec(tuple(config["odd"])) if "odd" in config else None
    even = PyramidSpec(tuple(config["even"])) if "even" in config else None
    proj = init_projection(rng, c, chat)
    m = spa_module(proj, SpaMode(config["mode"]), odd_spec=odd,
                   even_spec=even, lam=0.5 + rng.next_unit())
    x = rng.fill_uniform((c, *hw), 1.0)
    return ({"x": x, **m.params}, lambda: spa_forward(x, m)[0],
            lambda g: spa_backward(x, m, g), x.shape)


def _cpa_case(config, rng, seed):
    c, _, hw = _dims(config)
    proj = init_projection(rng, c) if config["with_proj"] else None
    m = CpaModule(proj, CpaMode(config["mode"]), 0.5 + rng.next_unit())
    x = rng.fill_uniform((c, *hw), 1.0)
    return ({"x": x, **m.params}, lambda: cpa_forward(x, m)[0],
            lambda g: cpa_backward(x, m, g), x.shape)


def _network_case(config, rng, seed):
    size = config["size"]
    model = network.build_model(seed, channels=config.get("channels", 16),
                                odd_spec=PyramidSpec(tuple(config["odd"])))
    model.spa.lam[...] = 0.5 + rng.next_unit()
    model.cpa.mu[...] = 0.5 + rng.next_unit()
    image = rng.fill_uniform((3, size, size), 1.0)
    return ({**model.params, "image": image}, lambda: network.forward(model, image),
            lambda g: network.backward(model, image, g), (model.classes, size, size))


_CASES = {"nonlocal": _nonlocal_case, "spa": _spa_case, "cpa": _cpa_case,
          "network": _network_case}


# The fixed verification matrix: every mechanism, every mode, reduced and
# full channel widths, and the assembled network.
MANIFEST: tuple[tuple[str, str, dict], ...] = (
    ("nonlocal-c2-3x3", "nonlocal", {"c": 2, "chat": 2, "height": 3, "width": 3}),
    ("nonlocal-c4-5x5-reduced", "nonlocal", {"c": 4, "chat": 3, "height": 5, "width": 5}),
    ("spa-onlyodd-c4-6x6", "spa",
     {"c": 4, "chat": 4, "height": 6, "width": 6, "mode": "only-odd", "odd": (1, 3)}),
    ("spa-onlyodd-c2-5x5", "spa",
     {"c": 2, "chat": 2, "height": 5, "width": 5, "mode": "only-odd", "odd": (1, 3, 5)}),
    ("spa-onlyeven-c4-6x6-reduced", "spa",
     {"c": 4, "chat": 2, "height": 6, "width": 6, "mode": "only-even", "even": (1, 2, 4)}),
    ("spa-onlyeven-c3-4x4", "spa",
     {"c": 3, "chat": 3, "height": 4, "width": 4, "mode": "only-even", "even": (1, 2)}),
    ("spa-mixed-c2-10x10", "spa",
     {"c": 2, "chat": 2, "height": 10, "width": 10, "mode": "mixed",
      "odd": (1, 3, 5, 7, 9), "even": (1, 8, 10)}),
    ("cpa-subtract-plain-c4-5x5", "cpa",
     {"c": 4, "height": 5, "width": 5, "mode": "subtract", "with_proj": False}),
    ("cpa-subtract-proj-c3-4x4", "cpa",
     {"c": 3, "height": 4, "width": 4, "mode": "subtract", "with_proj": True}),
    ("cpa-square-plain-c4-5x5", "cpa",
     {"c": 4, "height": 5, "width": 5, "mode": "square", "with_proj": False}),
    ("cpa-square-proj-c3-4x4", "cpa",
     {"c": 3, "height": 4, "width": 4, "mode": "square", "with_proj": True}),
    ("network-16ch-8x8", "network", {"size": 8, "channels": 16, "odd": (1, 3, 5)}),
)


def run_manifest(seed: int = 0, h: float = 1e-5,
                 tol: float = 1e-4) -> list[tuple[str, list[GradCheckReport]]]:
    return [(name, check_module(kind, config, seed=seed, h=h, tol=tol))
            for name, kind, config in MANIFEST]
