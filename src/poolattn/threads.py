"""The one parser for POOLATTN_THREADS, the cap on BLAS parallelism.

It imports nothing but the error taxonomy: the package applies the cap at
import, before numpy loads its BLAS backend, and the CLI rejects a bad
value by the same rule.
"""

import os

from .errors import ConfigurationError


def thread_cap() -> int | None:
    """The POOLATTN_THREADS value, or None when unset; only plain ASCII digits >= 1 pass."""
    raw = os.environ.get("POOLATTN_THREADS")
    if raw is None:
        return None
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ConfigurationError(f"POOLATTN_THREADS must be a positive integer, got {raw!r}")
    return int(raw)
