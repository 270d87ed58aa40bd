"""Deterministic splitmix64 random source.

Identical seeds produce identical value streams on every platform: the
generator is a pure function of 64-bit integer arithmetic, so neither
numpy's global state nor the OS entropy pool is involved.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_UNIT = 1.0 / (1 << 53)


def _mix_array(states: np.ndarray) -> np.ndarray:
    z = states
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)) & np.uint64(_MASK)
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)) & np.uint64(_MASK)
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based splitmix64 stream seeded by a single 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return int(_mix_array(np.array([self._state], dtype=np.uint64))[0])

    def next_unit(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of mantissa."""
        return (self.next_u64() >> 11) * _TO_UNIT

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]; hi - lo is tiny here so modulo bias is negligible."""
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def fill_uniform(self, shape: tuple[int, ...], half_width: float,
                     dtype: np.dtype = np.float64) -> np.ndarray:
        """Array of uniform draws in [-half_width, half_width], row-major stream order."""
        n = int(np.prod(shape)) if shape else 1
        # Bulk path: state_i = state + i*GOLDEN, identical to n sequential next_u64 calls.
        offsets = (np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN))
        states = (np.uint64(self._state) + offsets) & np.uint64(_MASK)
        self._state = (self._state + n * _GOLDEN) & _MASK
        unit = (_mix_array(states) >> np.uint64(11)).astype(np.float64) * _TO_UNIT
        values = (unit * 2.0 - 1.0) * half_width
        return values.reshape(shape).astype(dtype)
