"""Per-stage FLOP tally for instrumented forward passes.

The attention forwards report the cost of each stage they execute, with
counts derived from the runtime operand shapes under the package-wide
convention: multiply-accumulate = 2, exp/div/max/sub = 1, softmax over n
entries = 5n, counted by `ops.softmax` itself once per call, adaptive
pooling = one add per input element per level, counted by `pyramid_pool`
(bin-mean divisions are excluded by convention; they are O(T) noise).

Counting is opt-in via the `counting` context manager. The live tally is
held in a context variable, so it belongs to the thread (or asyncio task)
that opened the block: work in a thread started inside the block starts
from a fresh context and is not counted.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

_tally: ContextVar[dict[str, int] | None] = ContextVar("poolattn_flop_tally", default=None)


def enabled() -> bool:
    return _tally.get() is not None


def add(category: str, flops: int) -> None:
    tally = _tally.get()
    if tally is not None:
        tally[category] = tally.get(category, 0) + int(flops)


@contextmanager
def counting():
    """Enable counting, yield the live per-category tally dict."""
    tally: dict[str, int] = {}
    token = _tally.set(tally)
    try:
        yield tally
    finally:
        _tally.reset(token)
