"""Multi-scale adaptive average pooling: the zero-parameter anchor extractor.

A pyramid turns a C x H x W map into C x T anchor features by pooling to
each grid size in turn and concatenating the flattened grids. T is the
sum of squared grid sizes; the two production presets land on the same
T = 325 so their anchor tensors are interchangeable in mixed mode.
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


def bin_edges(extent: int, n: int) -> list[int]:
    """The n + 1 edges of one pool level: bin i spans [floor(i*E/n), floor((i+1)*E/n)).

    The floor rule tiles the extent exactly (no gaps, no overlap), which the
    partition and adjoint contracts rely on.
    """
    if n > extent:
        raise PoolSizeError(f"pool size {n} exceeds extent {extent}")
    return [i * extent // n for i in range(n + 1)]


@lru_cache(maxsize=64)
def _pool_plan(sizes: tuple[int, ...], h: int, w: int) -> tuple:
    """(area, anchor columns, k x area flat pixel indices) for each bin area in the pyramid.

    Each bin's pixels run row-major, the order in which a strided slice reads them.
    """
    bins: list[np.ndarray] = []
    for n in sizes:
        rows, cols = bin_edges(h, n), bin_edges(w, n)
        bins += [(np.arange(rs, re)[:, None] * w + np.arange(cs, ce)).ravel()
                 for rs, re in zip(rows, rows[1:]) for cs, ce in zip(cols, cols[1:])]
    areas = np.array([b.size for b in bins])
    plan = []
    for area in np.unique(areas):
        anchors = np.flatnonzero(areas == area)
        pixels = np.stack([bins[i] for i in anchors])
        anchors.flags.writeable = pixels.flags.writeable = False  # shared by every caller
        plan.append((int(area), anchors, pixels))
    return tuple(plan)


@_quiet
def pyramid_pool(x: np.ndarray, spec: PyramidSpec) -> np.ndarray:
    """Pool x (C x H x W) to C x T: levels in spec order, each flattened row-major.

    Each anchor is the pairwise sum of its bin's pixels, read row-major, over its area.
    The one-bin level's pixels are a whole row of `xf`, so it is summed without a gather.
    The plan's indices are in range by construction, so the gather skips numpy's
    bounds check (mode="clip": the same values, 13-20% faster at the paper shape).
    """
    _check_dims(x, "pyramid_pool")
    if x.ndim != 3:
        raise DimensionError(f"pyramid_pool: input must be CxHxW, got shape {x.shape}")
    c, h, w = x.shape
    xf = x.reshape(c, h * w)
    out = np.empty((c, anchor_count(spec)), dtype=x.dtype)
    for area, anchors, pixels in _pool_plan(spec.sizes, h, w):
        block = xf[:, None, :] if area == h * w else np.take(xf, pixels, axis=1, mode="clip")
        out[:, anchors] = block.sum(axis=2) / area
    instrument.add("pool", c * h * w * len(spec.sizes))
    return _finite(out, "pyramid_pool")


@_quiet
def pyramid_pool_backward(grad: np.ndarray, spec: PyramidSpec, height: int,
                          width: int) -> np.ndarray:
    """Adjoint of pyramid_pool: spread each anchor's gradient uniformly over its bin.

    Bins tile each level, so every pixel receives one term per level, added
    in spec order; the sum is the same, bit for bit, as a loop over bins.
    """
    _check_dims(grad, "pyramid_pool_backward")
    if grad.ndim != 2:
        raise DimensionError(f"pyramid_pool_backward: grad must be CxT, got shape {grad.shape}")
    c, t = grad.shape
    if t != anchor_count(spec):
        raise DimensionError(f"pyramid_pool_backward: grad has {t} anchors, "
                             f"spec {spec.sizes} expects {anchor_count(spec)}")
    out = np.zeros((c, height, width), dtype=grad.dtype)
    col = 0
    for n in spec.sizes:
        block = grad[:, col : col + n * n].reshape(c, n, n)
        col += n * n
        rows, cols = np.diff(bin_edges(height, n)), np.diff(bin_edges(width, n))
        area = np.outer(rows, cols).astype(grad.dtype)
        out += (block / area).repeat(rows, axis=1).repeat(cols, axis=2)
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
