"""Deterministic, splittable random streams keyed by a path of labels.

Every random draw in the library comes from a stream addressed by a tuple
such as ``(seed, iteration)``, the path from which one batch gradient
estimate draws all of its probe signs and sample ids.  Streams with
different paths are statistically independent, and the draw produced by a
path never depends on scheduling or on how many other streams were used,
which makes batch evaluation safe to parallelise.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "derive_seed"]


def _digest(parts: tuple) -> bytes:
    # Length-prefixed encoding so ("ab", "c") and ("a", "bc") cannot collide.
    h = hashlib.sha256()
    for part in parts:
        if not isinstance(part, (int, str, np.integer)):
            raise TypeError(f"stream path elements must be int or str, got {type(part).__name__}")
        raw = str(part).encode("utf-8")
        h.update(len(raw).to_bytes(4, "little"))
        h.update(raw)
    return h.digest()


def stream(*parts: int | str) -> np.random.Generator:
    """Return a counter-based generator keyed by the given path.

    The same path always yields an identical sequence of draws; any change
    to any element of the path yields an unrelated sequence.
    """
    key = int.from_bytes(_digest(parts)[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(*parts: int | str) -> int:
    """Collapse a path to a single 63-bit seed for run decorrelation."""
    return int.from_bytes(_digest(parts)[:8], "little") >> 1
