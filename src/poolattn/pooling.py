"""Multi-scale adaptive average pooling: the zero-parameter anchor extractor.

A pyramid turns a C x H x W map into C x T anchor features by pooling to
each grid size in turn and concatenating the flattened grids. T is the
sum of squared grid sizes; the two production presets land on the same
T = 325 so their anchor tensors are interchangeable in mixed mode.

Both directions read one cached, read-only plan per (sizes, H, W): every
bin's flat pixels but the whole map's, grouped by bin area, where each
group's sums land, the anchors' spec order, each anchor's area and each
level's bin sizes. The forward gathers all the pixels in one take and sums
each bin's contiguous row-major run, as a copy of the bin would be summed;
the adjoint divides by the same areas and adds the levels in spec order as
a loop over bins does. So both give the loop's bits with a few numpy calls
per call, not several per bin area.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import instrument
from .errors import ConfigurationError, DimensionError, PoolSizeError
from .ops import _check_dims, _finite, _quiet


@dataclass(frozen=True)
class PyramidSpec:
    """Ordered bank of adaptive-pool output sizes."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not all((type(n) is int or isinstance(n, np.integer)) and n >= 1
                   for n in self.sizes):
            raise ConfigurationError(f"pyramid sizes must be integers >= 1, got {self.sizes}")
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ConfigurationError("pyramid spec needs at least one size")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigurationError(f"pyramid sizes must be strictly increasing, got {sizes}")

    @property
    def max_size(self) -> int:
        return self.sizes[-1]


PAPER_EVEN = PyramidSpec((1, 4, 8, 10, 12))
PAPER_ODD = PyramidSpec((1, 5, 7, 9, 13))
TOY_ODD = PyramidSpec((1, 3, 5))
TOY_EVEN_MATCHED = PyramidSpec((1, 8, 10))
TOY_ODD_MATCHED = PyramidSpec((1, 3, 5, 7, 9))

PRESETS: dict[str, PyramidSpec] = {
    "paper-even": PAPER_EVEN,
    "paper-odd": PAPER_ODD,
    "toy-odd": TOY_ODD,
    "toy-even-matched": TOY_EVEN_MATCHED,
    "toy-odd-matched": TOY_ODD_MATCHED,
}


def parse_spec(text: str) -> PyramidSpec:
    """Resolve a preset name or a comma list like '1,3,5' into a spec."""
    key = text.strip().lower()
    if key in PRESETS:
        return PRESETS[key]
    try:
        sizes = tuple(int(part) for part in key.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"unknown pyramid spec {text!r}; "
                                 f"presets: {', '.join(sorted(PRESETS))}") from exc
    return PyramidSpec(sizes)


def spec_name(spec: PyramidSpec) -> str:
    for name, preset in PRESETS.items():
        if preset.sizes == spec.sizes:
            return name
    return ",".join(str(n) for n in spec.sizes)


def anchor_count(spec: PyramidSpec) -> int:
    """Total anchors T: the sum of squared grid sizes."""
    return sum(n * n for n in spec.sizes)


def shared_anchor_count(k_spec: PyramidSpec, v_spec: PyramidSpec) -> int:
    """The T that a key pyramid and a value pyramid must share; ConfigurationError if
    they differ."""
    t_k, t_v = anchor_count(k_spec), anchor_count(v_spec)
    if t_k != t_v:
        raise ConfigurationError(f"key/value pyramids must agree on anchor count: "
                                 f"{k_spec.sizes} gives {t_k}, {v_spec.sizes} gives {t_v}")
    return t_k


def bin_edges(extent: int, n: int) -> list[int]:
    """The n + 1 edges of one pool level: bin i spans [floor(i*E/n), floor((i+1)*E/n)).

    The floor rule tiles the extent exactly (no gaps, no overlap), which the
    partition and adjoint contracts rely on.
    """
    if n > extent:
        raise PoolSizeError(f"pool size {n} exceeds extent {extent}")
    return [i * extent // n for i in range(n + 1)]


@dataclass(frozen=True, eq=False)
class _PoolPlan:
    """Where each bin of one pyramid at one map size reads and writes; every array read-only.

    pixels  the flat pixels of every bin but the whole map's, grouped by area, each
            bin row-major
    groups  (area, count, start, slot) per area: its count bins are
            pixels[start:start + count*area], their sums land in slots
            slot .. slot+count-1 (slot 0 is the whole map's, if any)
    whole   the pyramid's first level is the one-bin whole map
    order   the slot that holds each anchor, anchors in spec order
    areas   each anchor's area, in spec order (exact integers held as float64)
    levels  (n, col, rows, cols) per level: its first anchor, bin heights and bin widths
    """

    pixels: np.ndarray
    groups: tuple[tuple[int, int, int, int], ...]
    whole: bool
    order: np.ndarray
    areas: np.ndarray
    levels: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=64)
def _pool_plan(sizes: tuple[int, ...], h: int, w: int) -> _PoolPlan:
    """The one plan that `pyramid_pool` and its adjoint read for `sizes` on an h x w map."""
    bins: list[np.ndarray] = []
    levels = []
    for n in sizes:
        rows, cols = bin_edges(h, n), bin_edges(w, n)
        levels.append((n, len(bins), np.diff(rows), np.diff(cols)))
        bins += [(np.arange(rs, re)[:, None] * w + np.arange(cs, ce)).ravel()
                 for rs, re in zip(rows, rows[1:]) for cs, ce in zip(cols, cols[1:])]
    whole = sizes[0] == 1
    slots = [0] * whole + sorted(range(whole, len(bins)), key=lambda a: bins[a].size)
    groups, start = [], 0
    for slot in range(whole, len(slots)):
        area = bins[slots[slot]].size
        if groups and groups[-1][0] == area:
            groups[-1][1] += 1
        else:
            groups.append([area, 1, start, slot])
        start += area
    # np.arange(0) leads so that a pyramid of the whole map alone gathers no pixels
    pixels = np.concatenate([np.arange(0)] + [bins[a] for a in slots[whole:]])
    areas = np.array([b.size for b in bins], dtype=np.float64)
    plan = _PoolPlan(pixels, tuple(map(tuple, groups)), whole, np.argsort(slots), areas,
                     tuple(levels))
    for a in (plan.pixels, plan.order, plan.areas, *(a for lv in plan.levels for a in lv[2:])):
        a.flags.writeable = False       # shared by every caller, in every thread
    return plan


@_quiet
def pyramid_pool(x: np.ndarray, spec: PyramidSpec) -> np.ndarray:
    """Pool x (C x H x W) to C x T: levels in spec order, each flattened row-major.

    Each anchor is the pairwise sum of its bin's pixels, read row-major, over its area.
    One gather reads every bin's pixels but the whole map's, grouped by bin area, and
    each group is summed as a C x count x area view into its run of slots by
    `np.add.reduce`, the reduction `sum` runs: the same contiguous runs, summed the
    same way, as a copy of each bin (the whole map is a row of `xf` and needs no
    gather). The areas are exact integers in x's dtype, so the one divide rounds as
    `/ area` does, and one take puts the anchors in spec order. The plan's indices
    are in range by construction, so the takes skip numpy's bounds check
    (mode="clip": the same values, faster).
    """
    _check_dims(x, "pyramid_pool", 3)
    c, h, w = x.shape
    plan = _pool_plan(spec.sizes, h, w)
    xf = x.reshape(c, h * w)
    sums = np.empty((c, plan.order.size), dtype=x.dtype)
    if plan.whole:
        np.add.reduce(xf[:, None, :], axis=2, out=sums[:, :1])
    gathered = np.take(xf, plan.pixels, axis=1, mode="clip")
    for area, count, start, slot in plan.groups:
        block = gathered[:, start : start + count * area].reshape(c, count, area)
        np.add.reduce(block, axis=2, out=sums[:, slot : slot + count])
    out = np.take(sums, plan.order, axis=1, mode="clip")
    out /= plan.areas.astype(x.dtype, copy=False)
    instrument.add("pool", c * h * w * len(spec.sizes))
    return _finite(out, "pyramid_pool")


@_quiet
def pyramid_pool_backward(grad: np.ndarray, spec: PyramidSpec, height: int,
                          width: int) -> np.ndarray:
    """Adjoint of pyramid_pool: spread each anchor's gradient uniformly over its bin.

    Each anchor's gradient is divided by its area in grad's dtype, as a loop over bins
    divides it, and every pixel receives one term per level, added to zeros in spec
    order; the sum is the same, bit for bit, as that loop's. The areas and bin sizes
    come from the plan `pyramid_pool` reads.
    """
    _check_dims(grad, "pyramid_pool_backward", 2)
    c, t = grad.shape
    if t != anchor_count(spec):
        raise DimensionError(f"pyramid_pool_backward: grad has {t} anchors, "
                             f"spec {spec.sizes} expects {anchor_count(spec)}")
    plan = _pool_plan(spec.sizes, height, width)
    scaled = grad / plan.areas.astype(grad.dtype, copy=False)
    out = np.zeros((c, height, width), dtype=grad.dtype)
    for n, col, rows, cols in plan.levels:
        block = scaled[:, col : col + n * n].reshape(c, n, n)
        out += block.repeat(rows, axis=1).repeat(cols, axis=2)
    return _finite(out, "pyramid_pool_backward")


def boundary_histogram(spec: PyramidSpec, extent: int) -> list[tuple[int, int]]:
    """(offset, count) pairs: how many pyramid levels place a bin edge at each offset."""
    counts = [0] * (extent + 1)
    for n in spec.sizes:
        for edge in set(bin_edges(extent, n)):
            counts[edge] += 1
    return [(offset, count) for offset, count in enumerate(counts) if count > 0]


def interior_offsets(spec: PyramidSpec, extent: int) -> set[int]:
    """Distinct bin edges strictly inside (0, extent) across all levels."""
    return {edge for edge, _ in boundary_histogram(spec, extent) if 0 < edge < extent}
