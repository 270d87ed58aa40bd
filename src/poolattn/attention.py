"""Three attention mechanisms over C x H x W feature maps.

* non-local baseline: every position attends to all N = H*W positions
  through an N x N softmax map.
* spatial pool attention (SPA): keys and values are pyramid-pooled to T
  anchors, so the map is T x N and cost drops by N/T; a scalar gate
  (initialized to 0) scales the aggregated context before the residual.
  Pooling is linear and the 1x1 projections have no bias, so
  `W_k·pool(X) = pool(W_k·X)`: SPA pools the input first (once when keys and
  values share a pyramid) and projects keys and values over T anchors, not
  N positions; only the queries are projected at every position.
* channel pool attention (CPA): a C x C channel affinity is rebuilt from
  the max-minus-similarity difference (plain or squared) and reweights
  channels through a second zero-initialized gate. It needs the input only
  through the C x C Gram matrix `G = X·Xᵀ` and one product with X, so the
  bias-free projections act on C x C matrices: `d = W_q·G·W_kᵀ` and
  `agg = (attn·W_v)·X` (`d = G`, `agg = attn·X` without projections). A
  forward makes two C x N-wide products and a backward five, one of them the
  forward's `agg` again.

Every mechanism has one shape, and a module is its object. `SpaModule` and `CpaModule`
are frozen: their projections, pyramids and mode are fixed and checked at construction,
and another configuration is a new module, `dataclasses.replace(m, ...)`. Records that
hold arrays compare and hash by identity (`eq=False`). `params` is a dict of a module's
live arrays (`w_q`, `w_k`, `w_v` where there are projections, and the gate `lam` or `mu`
as a 0-d float64 array), so a write into `params[k]` in place changes the next forward.
`*_stages(x, ...)` returns `(out, attn, cache)`, and `*_stages_backward(cache, grad_out)`
returns gradients keyed like `params` plus `x`, computed from the cached forward values.
`*_forward` and `*_backward` are the one-call forms. A `grad_out` whose shape or dtype
is not the output's raises DimensionError. The analytic reverse-mode derivations are
validated against finite differences (see gradcheck). Transposed operands reach
`ops.matmul` as views, which BLAS reads in place, not as copies.

`spa_forward` and `cpa_forward` freeze their map and return a view of it, and keep their
forward while the caller holds that view; one slot holds the last SPA or CPA forward.
`spa_backward(x, m, g)` and `cpa_backward(x, m, g)` reuse it when `x` and `m` are the
forward's own objects and `x` and every parameter still hold the bits copied at the
forward (a module's other fields are fixed), so a forward and its backward run the
forward's products and softmax once; otherwise they run the forward again. The forward
is deterministic, so both give the same bits. Dropping the map drops the kept forward.
CPA's cache holds no C x N array of its own: its forward forms the gated output in the
aggregation's buffer and its backward forms the aggregation again, the same product of
the same operands, so with the kept copy of `x` the forward holds two C x N arrays.
Non-local's one-call backward, for gradient checks at small shapes, reruns its forward.

Each stage function runs inside one `np.errstate` and checks each stage output
once (`proj`, `pool`, `map` through the softmax's input check, `agg`, the gated
`out`, every returned gradient), raising NonFiniteError that names the stage.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import instrument, ops
from .errors import ConfigurationError, DimensionError
from .ops import _check_dims, _check_like, _finite, _quiet
from .pooling import PyramidSpec, pyramid_pool, pyramid_pool_backward, shared_anchor_count
from .rng import Rng


@dataclass(frozen=True, eq=False)
class ProjectionWeights:
    """Bias-free 1x1 projections: queries/keys to chat channels, values back to C."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        dtypes = {self.w_q.dtype, self.w_k.dtype, self.w_v.dtype}
        if len(dtypes) != 1 or self.w_q.dtype not in ops._ALLOWED:
            raise DimensionError(f"projection weights must share one dtype, float32 or float64, "
                                 f"got {self.w_q.dtype}, {self.w_k.dtype}, {self.w_v.dtype}")
        _check_dims(self.w_q, "projection weights", 2)
        _check_like(self.w_k, self.w_q.shape, self.w_q.dtype, "projection weights: w_k")
        # w_v is C x C, so the output keeps the channels the residual adds to.
        _check_like(self.w_v, (self.channels,) * 2, self.w_q.dtype, "projection weights: w_v")

    @property
    def channels(self) -> int:
        return self.w_q.shape[1]

    @property
    def reduced(self) -> int:
        return self.w_q.shape[0]

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v}


def init_projection(rng: Rng, channels: int, reduced: int | None = None,
                    dtype: np.dtype = ops.F64) -> ProjectionWeights:
    reduced = channels if reduced is None else reduced
    return ProjectionWeights(
        w_q=ops.init_weight(rng, (reduced, channels), channels, dtype),
        w_k=ops.init_weight(rng, (reduced, channels), channels, dtype),
        w_v=ops.init_weight(rng, (channels, channels), channels, dtype),
    )


class _Mode(Enum):
    """A mode named by its value; any other text raises ConfigurationError naming the
    valid values."""

    @classmethod
    def _missing_(cls, value):
        raise ConfigurationError(f"{cls.__name__} must be one of "
                                 f"{', '.join(m.value for m in cls)}, got {value!r}")


class SpaMode(_Mode):
    ONLY_ODD = "only-odd"
    ONLY_EVEN = "only-even"
    MIXED = "mixed"


class CpaMode(_Mode):
    SUBTRACT = "subtract"
    SQUARE = "square"


@dataclass(frozen=True, eq=False)
class SpaModule:
    """Spatial pool attention: fixed configuration and `lam`, the gate, starting at 0."""

    proj: ProjectionWeights
    mode: SpaMode
    k_spec: PyramidSpec
    v_spec: PyramidSpec
    lam: np.ndarray | float = 0.0

    def __post_init__(self):
        shared_anchor_count(self.k_spec, self.v_spec)
        object.__setattr__(self, "mode", SpaMode(self.mode))
        object.__setattr__(self, "lam", np.array(self.lam, dtype=np.float64))

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {**self.proj.params, "lam": self.lam}


def spa_module(proj: ProjectionWeights, mode: SpaMode, odd_spec: PyramidSpec | None = None,
               even_spec: PyramidSpec | None = None, lam: float = 0.0) -> SpaModule:
    """Assemble an SpaModule: mixed mode pools keys on the even pyramid, values on the odd."""
    mode = SpaMode(mode)
    if mode is SpaMode.ONLY_ODD:
        if odd_spec is None:
            raise ConfigurationError("only-odd mode needs an odd pyramid spec")
        return SpaModule(proj, mode, odd_spec, odd_spec, lam)
    if mode is SpaMode.ONLY_EVEN:
        if even_spec is None:
            raise ConfigurationError("only-even mode needs an even pyramid spec")
        return SpaModule(proj, mode, even_spec, even_spec, lam)
    if odd_spec is None or even_spec is None:
        raise ConfigurationError("mixed mode needs both pyramid specs")
    return SpaModule(proj, mode, even_spec, odd_spec, lam)


@dataclass(frozen=True, eq=False)
class CpaModule:
    """Channel pool attention: fixed configuration and `mu`, the gate, starting at 0;
    proj=None is the projection-free variant."""

    proj: ProjectionWeights | None
    mode: CpaMode
    mu: np.ndarray | float = 0.0

    def __post_init__(self):
        if self.proj is not None and self.proj.reduced != self.proj.channels:
            raise ConfigurationError(
                f"channel attention needs square projections (affinity is CxC), "
                f"got {self.proj.reduced}x{self.proj.channels}")
        object.__setattr__(self, "mode", CpaMode(self.mode))
        object.__setattr__(self, "mu", np.array(self.mu, dtype=np.float64))

    @property
    def params(self) -> dict[str, np.ndarray]:
        # The gate leads here, as gradcheck reports have always listed CPA targets.
        return {"mu": self.mu, **(self.proj.params if self.proj is not None else {})}


def _flatten(x: np.ndarray, proj: ProjectionWeights | None) -> tuple[np.ndarray, int, int, int]:
    _check_dims(x, "attention input", 3)
    c, h, w = x.shape
    if proj is not None and (proj.channels, proj.w_q.dtype) != (c, x.dtype):
        raise DimensionError(f"projection expects {proj.channels} channels of "
                             f"{proj.w_q.dtype}, input has {c} of {x.dtype}")
    return x.reshape(c, h * w), c, h, w


def _project(w: np.ndarray, x_flat: np.ndarray, name: str) -> np.ndarray:
    out = _finite(ops.matmul(w, x_flat), f"{name} proj")
    instrument.add("proj", 2 * w.shape[0] * w.shape[1] * x_flat.shape[1])
    return out


def _gate_forward(agg: np.ndarray, gate: np.ndarray | float, xf: np.ndarray, name: str,
                  out: np.ndarray | None = None):
    """Check agg, then give the residual output `gate * agg + x` (row-major), checked;
    x is added in place, so no C x N temporary is made. `out=agg` forms it in agg's
    buffer."""
    _finite(agg, f"{name} agg")
    out = np.multiply(agg, agg.dtype.type(gate), out=out, order="C")
    out += xf
    return _finite(out, f"{name} out")


def _upstream(grad_out: np.ndarray, shape: tuple[int, ...], dtype: np.dtype,
              name: str) -> np.ndarray:
    """grad_out as a channels x positions matrix, once its shape and dtype are the output's."""
    _check_like(grad_out, shape, dtype, f"{name} backward: grad_out")
    return grad_out.reshape(shape[0], -1)


def _gate_backward(g: np.ndarray, agg: np.ndarray,
                   gate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of `gate * agg + x` wrt the gate (0-d float64) and wrt agg."""
    return np.asarray(np.sum(g * agg), dtype=np.float64), g * g.dtype.type(gate)


def _checked(grads: dict[str, np.ndarray], name: str) -> dict[str, np.ndarray]:
    """The returned gradients, each checked once."""
    for key, grad in grads.items():
        _finite(grad, f"{name} grad {key}")
    return grads


# --- non-local baseline -------------------------------------------------
# Its learnables are `{**proj.params, "lam": lam}`; there is no module object.

@_quiet
def nonlocal_stages(x: np.ndarray, proj: ProjectionWeights, lam: np.ndarray | float):
    """Full self-attention: (gated-residual output, N x N map, cache)."""
    xf, c, h, w = _flatten(x, proj)
    alpha = _project(proj.w_q, xf, "nonlocal")
    beta = _project(proj.w_k, xf, "nonlocal")
    gamma = _project(proj.w_v, xf, "nonlocal")
    logits = ops.matmul(alpha.T, beta)                  # N x N, row j = position j's queries
    instrument.add("map", 2 * proj.reduced * logits.size)
    attn = ops.softmax(logits, axis=1, in_place=True)   # the map is held once
    agg = ops.matmul(attn, gamma.T).T                   # C x N, a view of the N x C product
    instrument.add("agg", 2 * c * attn.size)
    out = _gate_forward(agg, lam, xf, "nonlocal").reshape(c, h, w)
    return out, attn, (x.shape, xf, proj, lam, alpha, beta, gamma, attn, agg)


@_quiet
def nonlocal_stages_backward(cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    shape, xf, proj, lam, alpha, beta, gamma, attn, agg = cache
    g = _upstream(grad_out, shape, xf.dtype, "nonlocal")
    d_lam, d_agg = _gate_backward(g, agg, lam)
    d_attn = ops.matmul(d_agg.T, gamma)                  # N x N
    d_gamma = ops.matmul(d_agg, attn)                    # C x N
    d_logits = ops.softmax_backward(attn, d_attn, axis=1, in_place=True)
    d_alpha = ops.matmul(beta, d_logits.T)               # chat x N
    d_beta = ops.matmul(alpha, d_logits)                 # chat x N
    d_x = (g + ops.matmul(proj.w_q.T, d_alpha) + ops.matmul(proj.w_k.T, d_beta)
           + ops.matmul(proj.w_v.T, d_gamma))
    return _checked({"w_q": ops.matmul(d_alpha, xf.T), "w_k": ops.matmul(d_beta, xf.T),
                     "w_v": ops.matmul(d_gamma, xf.T), "x": d_x.reshape(shape),
                     "lam": d_lam}, "nonlocal")


def nonlocal_forward(x: np.ndarray, proj: ProjectionWeights,
                     lam: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Full self-attention baseline; returns the gated-residual output and the N x N map."""
    return nonlocal_stages(x, proj, lam)[:2]


def nonlocal_backward(x: np.ndarray, proj: ProjectionWeights, lam: np.ndarray | float,
                      grad_out: np.ndarray) -> dict[str, np.ndarray]:
    return nonlocal_stages_backward(nonlocal_stages(x, proj, lam)[2], grad_out)


# --- spatial pool attention ----------------------------------------------

@_quiet
def spa_stages(x: np.ndarray, m: SpaModule):
    """Pyramid-anchored attention: (output, T x N anchor map, cache).

    The input is pooled before the bias-free key and value projections, so they
    run over T anchors, not N positions; one pool serves both when the specs match.
    """
    xf, c, h, w = _flatten(x, m.proj)
    x_k = pyramid_pool(x, m.k_spec)                      # C x T
    x_v = x_k if m.v_spec == m.k_spec else pyramid_pool(x, m.v_spec)
    q = _project(m.proj.w_q, xf, "spa")                  # chat x N
    k_pool = _project(m.proj.w_k, x_k, "spa")            # chat x T
    v_pool = _project(m.proj.w_v, x_v, "spa")            # C x T
    logits = ops.matmul(k_pool.T, q)                     # T x N
    instrument.add("map", 2 * m.proj.reduced * logits.size)
    attn = ops.softmax(logits, axis=0, in_place=True)    # anchor weights sum to 1 per position
    agg = ops.matmul(v_pool, attn)                       # C x N
    instrument.add("agg", 2 * c * attn.size)
    out = _gate_forward(agg, m.lam, xf, "spa").reshape(c, h, w)
    return out, attn, (x.shape, xf, m, x_k, x_v, q, k_pool, v_pool, attn, agg)


@_quiet
def spa_stages_backward(cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    shape, xf, m, x_k, x_v, q, k_pool, v_pool, attn, agg = cache
    c, h, w = shape
    g = _upstream(grad_out, shape, xf.dtype, "spa")
    d_lam, d_agg = _gate_backward(g, agg, m.lam)
    d_vpool = ops.matmul(d_agg, attn.T)                  # C x T
    d_attn = ops.matmul(v_pool.T, d_agg)                 # T x N
    d_logits = ops.softmax_backward(attn, d_attn, axis=0, in_place=True)
    d_kpool = ops.matmul(q, d_logits.T)                  # chat x T
    d_q = ops.matmul(k_pool, d_logits)                   # chat x N
    d_xk = ops.matmul(m.proj.w_k.T, d_kpool)             # C x T
    d_xv = ops.matmul(m.proj.w_v.T, d_vpool)             # C x T
    if m.v_spec == m.k_spec:                             # one pool made x_k and x_v
        d_pooled = pyramid_pool_backward(d_xk + d_xv, m.k_spec, h, w)
    else:
        d_pooled = (pyramid_pool_backward(d_xk, m.k_spec, h, w)
                    + pyramid_pool_backward(d_xv, m.v_spec, h, w))
    d_x = g + ops.matmul(m.proj.w_q.T, d_q) + d_pooled.reshape(c, h * w)
    return _checked({"w_q": ops.matmul(d_q, xf.T), "w_k": ops.matmul(d_kpool, x_k.T),
                     "w_v": ops.matmul(d_vpool, x_v.T), "x": d_x.reshape(shape),
                     "lam": d_lam}, "spa")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bits: a 0.0 and a -0.0 differ, as they can in a result."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}")))


@dataclass(frozen=True, eq=False)
class _KeptForward:
    """The last spa_forward or cpa_forward: its cache, the objects it read and copies
    of their values."""

    map_ref: weakref.ref                 # the read-only map handed to the caller
    x: np.ndarray
    m: SpaModule | CpaModule
    values: dict[str, np.ndarray]        # copies of `{"x": x, **m.params}` at the forward
    cache: tuple

    def serves(self, x: np.ndarray, m: SpaModule | CpaModule) -> bool:
        """Whether the map is still held, its buffer still frozen, and `x` and `m` are
        the forward's own objects with the values it read. The module's fields are
        fixed, so its values are the only part of it that can have changed."""
        attn = self.map_ref()
        return (attn is not None and not attn.base.flags.writeable and x is self.x
                and m is self.m
                and all(_same_bits(v, self.values[k])
                        for k, v in {"x": x, **m.params}.items()))


_kept: _KeptForward | None = None        # replaced whole, so a thread reads one forward


def _forget(map_ref: weakref.ref) -> None:
    """The caller dropped the map: drop the forward kept with it, unless a later one
    has taken its place. A later one stored by another thread between the check and
    the store is dropped too; its backward then runs the forward again, same bits."""
    global _kept
    last = _kept
    if last is not None and last.map_ref is map_ref:
        _kept = None


def _keep(x: np.ndarray, m: SpaModule | CpaModule, attn: np.ndarray, cache: tuple) -> np.ndarray:
    """Keep this forward in the slot while the caller holds the view of its frozen map
    that this returns; the cache reads that map, so `serves` checks it is still frozen."""
    global _kept
    attn.flags.writeable = False
    view = attn.view()
    _kept = _KeptForward(weakref.ref(view, _forget), x, m,
                         {k: v.copy() for k, v in {"x": x, **m.params}.items()}, cache)
    return view


def _kept_cache(x: np.ndarray, m: SpaModule | CpaModule, stages) -> tuple:
    """The kept forward's cache when it serves (x, m); otherwise `stages(x, m)`'s."""
    last = _kept
    return last.cache if last is not None and last.serves(x, m) else stages(x, m)[2]


def spa_forward(x: np.ndarray, m: SpaModule) -> tuple[np.ndarray, np.ndarray]:
    """Pyramid-anchored attention; returns the output and the T x N anchor map.

    The map is a read-only view of a frozen buffer. While the caller holds it, this
    forward is kept for `spa_backward` with the same `x` and `m` (see the module
    docstring), with copies of the values of `x` and of `m.params`.
    """
    out, attn, cache = spa_stages(x, m)
    return out, _keep(x, m, attn, cache)


def spa_backward(x: np.ndarray, m: SpaModule, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of `spa_forward(x, m)` given grad_out. The forward whose map the caller
    still holds is reused when `x` and `m` are its objects, unchanged; any other call
    runs the forward first. Both give the same bits."""
    return spa_stages_backward(_kept_cache(x, m, spa_stages), grad_out)


# --- channel pool attention ----------------------------------------------

@_quiet
def cpa_stages(x: np.ndarray, m: CpaModule):
    """Channel reweighting through the max-difference affinity: (output, C x C map, cache).

    The projections act on the C x C Gram matrix and map, not on the input. `diff` is
    each column's maximum minus `d`, softmaxed along rows, which keeps the maximum; DANet
    uses each row's maximum, which the row softmax cancels: its map is softmax_rows(-d).
    """
    xf, c, h, w = _flatten(x, m.proj)
    gram = _finite(ops.matmul(xf, xf.T), "cpa map")     # C x C channel similarity
    instrument.add("map", 2 * xf.shape[1] * gram.size)
    if m.proj is None:
        d = gram
    else:
        d = _project(_project(m.proj.w_q, gram, "cpa"), m.proj.w_k.T, "cpa")
    diff = d.max(axis=0, keepdims=True) - d              # column max broadcast over rows, >= 0
    instrument.add("maxdiff", 2 * d.size)
    gated = diff * diff if m.mode is CpaMode.SQUARE else diff
    attn = ops.softmax(gated, axis=1)
    mix = attn if m.proj is None else _project(attn, m.proj.w_v, "cpa")
    agg = ops.matmul(mix, xf)                            # C x N
    instrument.add("agg", 2 * xf.shape[1] * attn.size)
    out = _gate_forward(agg, m.mu, xf, "cpa", out=agg).reshape(c, h, w)
    return out, attn, (x.shape, xf, m, gram, d, diff, attn, mix)


@_quiet
def cpa_stages_backward(cache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    shape, xf, m, gram, d, diff, attn, mix = cache
    g = _upstream(grad_out, shape, xf.dtype, "cpa")
    # The forward's aggregation again, the same product of the same operands: the
    # forward formed its output in that buffer. Only d_mu reads it.
    d_mu, d_agg = _gate_backward(g, ops.matmul(mix, xf), m.mu)
    d_mix = ops.matmul(d_agg, xf.T)                      # C x C
    d_attn = d_mix if m.proj is None else ops.matmul(d_mix, m.proj.w_v.T)
    d_gated = ops.softmax_backward(attn, d_attn, axis=1)
    d_diff = 2.0 * diff * d_gated if m.mode is CpaMode.SQUARE else d_gated
    d_d = -d_diff
    # The broadcast column max routes its gradient to the (first) argmax row per column.
    argmax_rows = np.argmax(d, axis=0)
    d_d[argmax_rows, np.arange(d.shape[1])] += d_diff.sum(axis=0)
    d_gram = d_d if m.proj is None else ops.matmul(ops.matmul(m.proj.w_q.T, d_d), m.proj.w_k)
    # G = X·Xᵀ sends d_gram·X + d_gramᵀ·X to X; agg = mix·X sends mixᵀ·d_agg. Summed in
    # place, in the order g + ...: A + g is g + A bit for bit.
    d_x = ops.matmul(d_gram, xf)
    d_x += g
    d_x += ops.matmul(d_gram.T, xf)
    d_x += ops.matmul(mix.T, d_agg)
    grads = {"mu": d_mu}
    if m.proj is not None:
        grads.update(w_q=ops.matmul(ops.matmul(d_d, m.proj.w_k), gram),
                     w_k=ops.matmul(ops.matmul(d_d.T, m.proj.w_q), gram),
                     w_v=ops.matmul(attn.T, d_mix))
    return _checked({**grads, "x": d_x.reshape(shape)}, "cpa")


def cpa_forward(x: np.ndarray, m: CpaModule) -> tuple[np.ndarray, np.ndarray]:
    """Channel reweighting through the max-difference affinity; returns the output and
    the C x C map.

    The map is a read-only view of a frozen buffer. While the caller holds it, this
    forward is kept for `cpa_backward` with the same `x` and `m` (see the module
    docstring), with copies of the values of `x` and of `m.params`.
    """
    out, attn, cache = cpa_stages(x, m)
    return out, _keep(x, m, attn, cache)


def cpa_backward(x: np.ndarray, m: CpaModule, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of `cpa_forward(x, m)` given grad_out. The forward whose map the caller
    still holds is reused when `x` and `m` are its objects, unchanged; any other call
    runs the forward first. Both give the same bits."""
    return cpa_stages_backward(_kept_cache(x, m, cpa_stages), grad_out)


def param_count(obj) -> int:
    """Learnable scalars: the sizes of `obj.params` summed; pyramids hold none."""
    if isinstance(obj, PyramidSpec):
        return 0
    params = getattr(obj, "params", None)
    if not isinstance(params, dict):
        raise ConfigurationError(f"param_count: unsupported object {type(obj).__name__}")
    return sum(p.size for p in params.values())
