"""Desk-scale two-branch segmentation network and its training demo.

A small conv stem feeds the same feature map to the spatial-pool and
channel-pool attention branches; their outputs are concatenated along
channels and fused by a 1x1 classifier. Training on synthetic rectangle
images exists to demonstrate the gates growing away from their zero
initialization, not to claim segmentation quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .attention import (CpaMode, CpaModule, SpaMode, SpaModule, _checked, _upstream,
                        cpa_stages, cpa_stages_backward, init_projection, spa_module,
                        spa_stages, spa_stages_backward)
from .errors import ConfigurationError, NonFiniteError, TrainingDivergenceError
from .ops import _finite, _quiet
from .pooling import TOY_ODD, PyramidSpec
from .rng import Rng

STEM_KERNEL = 3


@dataclass(frozen=True, eq=False)
class DpaNetMini:
    """Stem -> parallel SPA/CPA -> channel concat -> 1x1 fuse; training edits `params`
    in place."""

    stem_w1: np.ndarray      # C x 3 x k x k
    stem_w2: np.ndarray      # C x C x k x k
    spa: SpaModule
    cpa: CpaModule
    fuse_w: np.ndarray       # classes x 2C

    @property
    def channels(self) -> int:
        return self.stem_w1.shape[0]

    @property
    def classes(self) -> int:
        return self.fuse_w.shape[0]

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Every learnable's live array: the modules' weights prefixed, the gates last."""
        return _net_keys(self.stem_w1, self.stem_w2, self.spa.params, self.cpa.params,
                         self.fuse_w)


def _net_keys(stem_w1, stem_w2, spa: dict, cpa: dict, fuse_w) -> dict[str, np.ndarray]:
    """Network-level names for per-module entries; the gates keep their bare names."""
    spa, cpa = dict(spa), dict(cpa)
    gates = {"lam": spa.pop("lam"), "mu": cpa.pop("mu")}
    return {"stem_w1": stem_w1, "stem_w2": stem_w2,
            **{f"spa.{k}": v for k, v in spa.items()},
            **{f"cpa.{k}": v for k, v in cpa.items()},
            "fuse_w": fuse_w, **gates}


def build_model(seed: int, channels: int = 16,
                spa_mode: SpaMode = SpaMode.ONLY_ODD,
                odd_spec: PyramidSpec = TOY_ODD,
                even_spec: PyramidSpec | None = None,
                cpa_mode: CpaMode = CpaMode.SUBTRACT) -> DpaNetMini:
    """Seed-deterministic float64 model: two classes, projection-free CPA, both gates at 0.
    Mixed mode needs both pyramids: `even_spec` pools the keys, `odd_spec` the values."""
    rng = Rng(seed)
    stem_w1 = ops.init_weight(rng, (channels, 3, STEM_KERNEL, STEM_KERNEL),
                              3 * STEM_KERNEL * STEM_KERNEL)
    stem_w2 = ops.init_weight(rng, (channels, channels, STEM_KERNEL, STEM_KERNEL),
                              channels * STEM_KERNEL * STEM_KERNEL)
    spa = spa_module(init_projection(rng, channels), spa_mode,
                     odd_spec=odd_spec, even_spec=even_spec)
    fuse_w = ops.init_weight(rng, (2, 2 * channels), 2 * channels)
    return DpaNetMini(stem_w1, stem_w2, spa, CpaModule(None, cpa_mode), fuse_w)


@_quiet
def stages(model: DpaNetMini, image: np.ndarray):
    """The forward pass: (logits, cache for stages_backward); the branches check their own."""
    pre1 = _finite(ops.conv2d_same(image, model.stem_w1), "network stem conv1")
    f1 = np.maximum(pre1, pre1.dtype.type(0))
    pre2 = _finite(ops.conv2d_same(f1, model.stem_w2), "network stem conv2")
    feats = np.maximum(pre2, pre2.dtype.type(0))
    spa_out, _, spa_cache = spa_stages(feats, model.spa)
    cpa_out, _, cpa_cache = cpa_stages(feats, model.cpa)
    cat = np.concatenate([spa_out, cpa_out], axis=0)
    c, h, w = cat.shape
    logits = _finite(ops.matmul(model.fuse_w, cat.reshape(c, h * w)), "network logits")
    return logits.reshape(-1, h, w), (model, image, pre1, f1, pre2, cat, spa_cache, cpa_cache)


@_quiet
def stages_backward(cache, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a logits-contracted loss, keyed like `model.params` plus `image`."""
    model, image, pre1, f1, pre2, cat, spa_cache, cpa_cache = cache
    c, h, w = cat.shape
    g_flat = _upstream(grad_logits, (model.classes, h, w), cat.dtype, "network")
    d_fuse = ops.matmul(g_flat, cat.reshape(c, h * w).T)
    d_cat = ops.matmul(model.fuse_w.T, g_flat).reshape(c, h, w)
    half = model.channels
    sg = spa_stages_backward(spa_cache, d_cat[:half])
    cg = cpa_stages_backward(cpa_cache, d_cat[half:])
    d_pre2 = (sg.pop("x") + cg.pop("x")) * (pre2 > 0)
    d_f1, d_w2 = ops.conv2d_same_backward(f1, model.stem_w2, d_pre2)
    d_img, d_w1 = ops.conv2d_same_backward(image, model.stem_w1, d_f1 * (pre1 > 0))
    _checked({"stem_w1": d_w1, "stem_w2": d_w2, "fuse_w": d_fuse, "image": d_img}, "network")
    return {**_net_keys(d_w1, d_w2, sg, cg, d_fuse), "image": d_img}


def forward(model: DpaNetMini, image: np.ndarray) -> np.ndarray:
    """Logits with the same spatial size as the input image."""
    return stages(model, image)[0]


def backward(model: DpaNetMini, image: np.ndarray,
             grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    return stages_backward(stages(model, image)[1], grad_logits)


# --- synthetic data -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SynthSample:
    image: np.ndarray        # 3 x S x S
    labels: np.ndarray       # S x S int class ids {0 background, 1 object}


def synth_dataset(seed: int, count: int, size: int) -> list[SynthSample]:
    """Rectangle-on-background images; object covers 10-60% of the pixels."""
    if size < 8:
        raise ConfigurationError(f"synthetic images need size >= 8, got {size}")
    rng = Rng(seed)
    samples = []
    for _ in range(count):
        lo, hi = 0.10 * size * size, 0.60 * size * size
        while True:
            rh = rng.next_int(size // 4, size - 2)
            rw = rng.next_int(size // 4, size - 2)
            if lo <= rh * rw <= hi:
                break
        top = rng.next_int(0, size - rh)
        left = rng.next_int(0, size - rw)
        while True:
            bg = np.array([0.2 + 0.6 * rng.next_unit() for _ in range(3)])
            fg = np.array([0.2 + 0.6 * rng.next_unit() for _ in range(3)])
            if np.linalg.norm(fg - bg) >= 0.4:
                break
        labels = np.zeros((size, size), dtype=np.int64)
        labels[top : top + rh, left : left + rw] = 1
        image = np.where(labels[None, :, :] == 1, fg[:, None, None], bg[:, None, None])
        image = image + rng.fill_uniform((3, size, size), 0.05)
        samples.append(SynthSample(np.ascontiguousarray(image), labels))
    return samples


# --- training -------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings for `train`; the image size is the data's."""

    lr: float
    momentum: float
    steps: int
    poly_power: float | None = None
    batch: int = 4

    def __post_init__(self):
        if not math.isfinite(self.lr):
            raise ConfigurationError(f"lr must be finite, got {self.lr}")
        if self.poly_power is not None and not math.isfinite(self.poly_power):
            raise ConfigurationError(f"poly_power must be finite, got {self.poly_power}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")


def poly_lr(lr_initial: float, iteration: int, total: int, power: float = 0.9) -> float:
    """Polynomial decay: lr * (1 - iter/total)^power; hits 0 exactly at iter == total."""
    return lr_initial * (1.0 - iteration / total) ** power


@dataclass(frozen=True)
class TrainedReport:
    final_loss: float
    pixel_accuracy: float
    lambda_final: float
    mu_final: float
    loss_curve: list[float]
    lambda_curve: list[float]
    mu_curve: list[float]


def pixel_accuracy(model: DpaNetMini, data: list[SynthSample]) -> float:
    correct = 0
    total = 0
    for sample in data:
        pred = np.argmax(forward(model, sample.image), axis=0)
        correct += int((pred == sample.labels).sum())
        total += sample.labels.size
    return correct / total


def train(model: DpaNetMini, data: list[SynthSample], cfg: TrainConfig) -> TrainedReport:
    """SGD with momentum and optional poly decay; mutates the model in place."""
    if not data:
        raise ConfigurationError("training needs at least one sample")
    size = data[0].image.shape[1]
    max_size = max(model.spa.k_spec.max_size, model.spa.v_spec.max_size)
    if size < max_size:
        raise ConfigurationError(f"image size {size} is below the largest "
                                 f"pyramid size {max_size}")

    params = model.params
    velocity = {k: np.zeros_like(p) for k, p in params.items()}

    loss_curve: list[float] = []
    lam_curve: list[float] = []
    mu_curve: list[float] = []
    for step in range(cfg.steps):
        start = (step * cfg.batch) % len(data)
        indices = sorted((start + i) % len(data) for i in range(cfg.batch))
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        loss_total = 0.0
        for idx in indices:
            sample = data[idx]
            try:
                logits, cache = stages(model, sample.image)
                loss, d_logits = ops.cross_entropy_logits(logits, sample.labels)
                g = stages_backward(cache, d_logits)
            except NonFiniteError as exc:
                raise TrainingDivergenceError(f"non-finite loss at step {step}") from exc
            loss_total += loss
            for k, acc in grads.items():
                acc += g[k]
        loss_mean = loss_total / len(indices)
        if not math.isfinite(loss_mean):
            raise TrainingDivergenceError(f"non-finite loss at step {step}")
        for acc in grads.values():
            acc /= len(indices)
        lr_t = (poly_lr(cfg.lr, step, cfg.steps, cfg.poly_power)
                if cfg.poly_power is not None else cfg.lr)
        ops.sgd_step(list(params.values()), list(grads.values()), lr_t, cfg.momentum,
                     list(velocity.values()))
        loss_curve.append(loss_mean)
        lam_curve.append(float(model.spa.lam))
        mu_curve.append(float(model.cpa.mu))

    return TrainedReport(
        final_loss=loss_curve[-1],
        pixel_accuracy=pixel_accuracy(model, data),
        lambda_final=lam_curve[-1],
        mu_final=mu_curve[-1],
        loss_curve=loss_curve,
        lambda_curve=lam_curve,
        mu_curve=mu_curve,
    )
