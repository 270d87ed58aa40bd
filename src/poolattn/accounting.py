"""Closed-form parameter, FLOP, and memory accounting for the attention variants.

FLOP convention (shared with the instrumented counters): a multiply-
accumulate is 2 FLOPs; exp, div, max, and sub are 1 each; a softmax over
n entries costs 5n (max, sub, exp, sum, div); adaptive pooling costs one
add per input element per level, with the per-bin mean divisions excluded
as O(T) noise. Each report counts what the forward runs: SPA pools its
C-channel input before the key and value projections (once when the two
pyramids match), so its projections cost 2*N*chat*C + 2*T*(chat*C + C^2).
The non-local baseline is the T = N case of the same formula, with nothing
pooled; its `flops_proj`, 2*N*(2*chat*C + C^2), is also what the paper's
order, projecting every position first, costs SPA. CPA projects the C x C Gram matrix
and its softmax map, not the input, so its projections cost 6*C^3.
Absolute numbers are convention-dependent; the ratios (N/T core reduction,
zero added parameters, attention-map bytes) are not. The core ratio is N/T
with or without the softmax terms, which are 5 x each map's own size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError
from .ops import dtype_name
from .pooling import PyramidSpec, shared_anchor_count


@dataclass(frozen=True)
class CostReport:
    """Cost of one attention module at one input shape."""

    params: int
    flops_proj: int          # 1x1 projections
    flops_pool: int          # pyramid pooling adds
    attn_map_bytes: int
    shape: tuple[int, int, int, int]      # (C, chat, H, W)
    flops_map: int = 0
    flops_softmax: int = 0
    flops_agg: int = 0
    flops_extra: int = 0     # CPA max + difference
    dtype: str = "f32"

    @property
    def flops_core(self) -> int:
        """Attention-map build + softmax + aggregation (+ CPA max and difference)."""
        return self.flops_map + self.flops_softmax + self.flops_agg + self.flops_extra

    @property
    def flops_total(self) -> int:
        return self.flops_core + self.flops_proj + self.flops_pool

    def as_dict(self) -> dict:
        return {
            "params": self.params,
            "flops_core": self.flops_core,
            "flops_proj": self.flops_proj,
            "flops_pool": self.flops_pool,
            "flops_total": self.flops_total,
            "flops_map": self.flops_map,
            "flops_softmax": self.flops_softmax,
            "flops_agg": self.flops_agg,
            "flops_extra": self.flops_extra,
            "attn_map_bytes": self.attn_map_bytes,
            "shape": {"c": self.shape[0], "chat": self.shape[1],
                      "h": self.shape[2], "w": self.shape[3]},
            "dtype": self.dtype,
        }


def _attention_cost(c: int, chat: int, h: int, w: int, t: int, flops_pool: int,
                    dtype) -> CostReport:
    """N queries against T keys and values: map 2*chat*N*T, softmax 5*N*T, aggregation
    2*c*N*T. The queries are projected at all N positions, the keys and values at T."""
    n = h * w
    return CostReport(
        params=2 * chat * c + c * c + 1,     # pooling adds zero learnables
        flops_proj=2 * n * chat * c + 2 * t * (chat * c + c * c),
        flops_pool=flops_pool,
        attn_map_bytes=t * n * np.dtype(dtype).itemsize,
        shape=(c, chat, h, w),
        flops_map=2 * chat * n * t, flops_softmax=5 * n * t, flops_agg=2 * c * n * t,
        dtype=dtype_name(dtype),
    )


def cost_nonlocal(c: int, chat: int, h: int, w: int, dtype=np.float32) -> CostReport:
    """Full N x N attention: the T = N case, with nothing pooled."""
    return _attention_cost(c, chat, h, w, h * w, 0, dtype)


def cost_spa(c: int, chat: int, h: int, w: int, k_spec: PyramidSpec, v_spec: PyramidSpec,
             dtype=np.float32) -> CostReport:
    """T-anchor attention: every core term of the baseline with one N replaced by T.

    The input is pooled on each pyramid, once when they match.
    Pure arithmetic: shapes too small for the pyramids are allowed here so
    degenerate ratios can still be reported (the forward pass itself rejects them).
    """
    t = shared_anchor_count(k_spec, v_spec)
    flops_pool = h * w * c * sum(len(spec.sizes) for spec in {k_spec, v_spec})
    return _attention_cost(c, chat, h, w, t, flops_pool, dtype)


def cost_cpa(c: int, h: int, w: int, with_proj: bool, dtype=np.float32) -> CostReport:
    """C x C channel affinity: same op count for subtract and square modes.

    The map is the Gram matrix X·Xᵀ (2*N*C^2) and the aggregation one C x C by
    C x N product (2*N*C^2). The bias-free projections act on C x C matrices,
    `W_q·G·W_kᵀ` and `attn·W_v`, so they cost three C^3 products (6*C^3), not
    the 6*N*C^2 of projecting every position.
    """
    n = h * w
    fmap = 2 * n * c * c
    fextra = 2 * c * c                       # column max + difference
    fsoft = 5 * c * c
    fagg = 2 * n * c * c
    return CostReport(
        params=3 * c * c + 1 if with_proj else 1,
        flops_proj=6 * c ** 3 if with_proj else 0,
        flops_pool=0,
        attn_map_bytes=c * c * np.dtype(dtype).itemsize,
        shape=(c, c, h, w),
        flops_map=fmap, flops_softmax=fsoft, flops_agg=fagg, flops_extra=fextra,
        dtype=dtype_name(dtype),
    )


def reduction_ratio(nb: CostReport, spa: CostReport) -> float:
    """Core-FLOPs ratio baseline/pooled: exactly N/T, with or without the softmax terms
    (each map's softmax is 5 x its size), so those are left out."""
    if nb.shape != spa.shape:
        raise ComparisonError(f"cost reports compare only at one shape: "
                              f"{nb.shape} vs {spa.shape}")
    return (nb.flops_map + nb.flops_agg) / (spa.flops_map + spa.flops_agg)
