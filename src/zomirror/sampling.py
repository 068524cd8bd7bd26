"""Two-point gradient estimation with Rademacher probes.

A probe direction u has independent +-1 coordinates, so E[u u^T] = I and
(1/nu)*(l(x + nu*u; xi) - l(x; xi))*u is an unbiased estimate of the
gradient of the smoothed loss l_nu.  Each batch estimate draws all of its
(u, xi) pairs from one stream keyed by (run key..., iteration), as
ceil(ceil(m*d/8)/8) + m raw 64-bit words in one call.  The leading words,
read as little-endian bytes and cut to ceil(m*d/8), hold the m*d signs
row-major in np.unpackbits order (bit 1 is +1, bit 0 is -1); each of the
last m words shifted right by one is a sample id.  These are the draws of
Generator.bytes followed by Generator.integers(2**63, size=m), so every
estimate is a pure function of its key path.

The batch estimators call the scalar oracle per element in ascending
element order: the forward point x + nu*u_j, then the base point x, both
with sample id xi_j (a paired STORM step does this at x_t, then at
x_prev).  Each element's term is added to a running total in that same
order.  The packed signs are expanded to floats one block of whole rows
at a time, each block holding at most 65,536 signs (a single row when d
is larger), so an estimate holds O(d) floats however large m*d is, and
every m*d up to 65,536 is one block.  A copy of the total sits in the row
just before the block's sign rows, and one einsum over that stack adds
the block's terms to the total in row order.  Each sign is +-1, so every
product is exact and the contraction equals the sequential sum bit for
bit; a single column (d = 1) is summed pairwise by einsum, so there the
rows are added one by one.

Each thread keeps one Philox generator, re-keyed per estimate with
rng.rekey; all of an estimate's draws come before its first oracle call,
so an oracle that runs an estimate itself can share it.  Each thread also
keeps one flat float buffer for a block's [total; sign rows] stack and
each point's block of forward points: 512 KB of signs and a STORM pair's
two forward blocks fit a 2 MB per-core L2 cache, and a kept buffer spares
every estimate the page faults of a fresh allocation above the C heap's
mmap threshold.  An estimate takes the buffer, growing it if it is too
small, and puts it back when it finishes: an estimate run inside an
oracle allocates its own, and so does the next estimate after one that
raised.  The x handed to the oracle for a forward point is a row of that
buffer, overwritten by the estimate's next block or by a later estimate
on the same thread, so an oracle must neither keep nor write it.  An
estimate with a non-finite entry, such as a finite oracle difference that
overflows when divided by a tiny nu, raises NumericError.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import NumericError, Problem, _check_count, _check_scale, _nonfinite, _oracle

__all__ = [
    "EstimatorConfig",
    "GradientEstimate",
    "two_point_estimate",
    "minibatch_gradient",
    "paired_storm_estimates",
    "default_smoothing",
]

# Row b holds the eight signs of byte b in np.unpackbits order (bit 1 is +1).
_BYTE_SIGNS = 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) - 1.0

# Most signs expanded per row block: 512 KB of floats.
_BLOCK_SIGNS = 65536


class _ThreadState(threading.local):
    """Per thread: the probe generator, re-keyed for each estimate, and the
    block buffer, None before the first estimate and while one holds it."""

    def __init__(self) -> None:
        self.generator = np.random.Generator(np.random.Philox(0))
        self.buffer = None


_thread = _ThreadState()


@dataclass(frozen=True)
class EstimatorConfig:
    """Smoothing radius nu and batch size for gradient estimation."""

    nu: float
    batch: int

    def __post_init__(self) -> None:
        _check_scale("nu", self.nu)
        _check_count("batch", self.batch)


@dataclass(frozen=True)
class GradientEstimate:
    """A dual-space estimate with its oracle-call cost."""

    vector: np.ndarray
    oracle_calls: int


def two_point_estimate(
    problem: Problem, x: np.ndarray, u: np.ndarray, nu: float, xi: int
) -> np.ndarray:
    """(1/nu) * (l(x + nu*u; xi) - l(x; xi)) * u; exactly two oracle calls.

    The oracle must be defined on all of R^d: the probe point x + nu*u may
    leave a box feasible set and is evaluated without projection.  A
    non-finite oracle value or estimate entry raises NumericError.
    """
    _check_scale("nu", nu)
    forward = _oracle(problem, x + nu * u, xi)
    base = _oracle(problem, x, xi)
    estimate = ((forward - base) / nu) * u
    if not np.isfinite(estimate).all():
        raise NumericError(f"two-point estimate has a non-finite entry (nu={nu!r})")
    return estimate


def _draw(stream: np.random.Generator, m: int, d: int) -> tuple[np.ndarray, list[int]]:
    """The packed signs and the sample ids of an m-element batch at width d.

    One raw call gives what stream.bytes(ceil(m*d/8)) and then
    stream.integers(2**63, size=m) would: the bytes are the little-endian
    bytes of whole words, and integers keeps a word's top 63 bits.
    """
    n_bytes = -(-m * d // 8)
    words = -(-n_bytes // 8)
    raw = stream.bit_generator.random_raw(words + m)
    packed = raw[:words].astype("<u8", copy=False).view(np.uint8)[:n_bytes]
    return packed, (raw[words:] >> 1).tolist()


def _batch_estimates(
    problem: Problem, points: tuple, cfg: EstimatorConfig, key: tuple
) -> tuple[GradientEstimate, ...]:
    """Batch estimates at one point, or at the pair (x_t, x_prev), all on
    the key's (u, xi) pairs.

    Per element the oracle sees each point's forward point, then the point
    itself; each point's terms are summed in ascending element order.  The
    packed signs are expanded one row block at a time into the thread's
    buffer, and once the block's oracle calls are done one einsum per
    point adds the block's terms to that point's total.
    """
    d, m, nu = problem.dimension, cfg.batch, cfg.nu
    oracle, isfinite = problem.oracle, math.isfinite
    packed, xis = _draw(rng.rekey(_thread.generator, *key), m, d)
    totals = [np.zeros(d) for _ in points]
    rows = min(m, max(1, _BLOCK_SIGNS // d))
    # A total row, then a block's bytes expanded whole, which adds up to 7
    # signs at either end of its rows; then each point's forward block.
    width = d + rows * d + 16
    need = width + len(points) * rows * d
    flat, _thread.buffer = _thread.buffer, None
    if flat is None or flat.size < need:
        flat = np.empty(need)
    forwards = flat[width:need].reshape(len(points), rows, d)
    for j0 in range(0, m, rows):
        j1 = min(j0 + rows, m)
        lo, hi = j0 * d, j1 * d
        chunk = packed[lo // 8 : -(-hi // 8)]
        bits = flat[d : d + 8 * chunk.size].reshape(chunk.size, 8)
        _BYTE_SIGNS.take(chunk, axis=0, out=bits, mode="clip")
        # Row 0 is the total row, the rest are the block's sign rows.
        stack = flat[lo % 8 : d + lo % 8 + hi - lo].reshape(j1 - j0 + 1, d)
        signs = stack[1:]
        blocks = [forward[: j1 - j0] for forward in forwards]
        for x, block in zip(points, blocks):
            np.multiply(signs, nu, out=block)
            block += x
        ids = xis[j0:j1]
        coefs = [[1.0] for _ in points]
        if len(points) == 1:
            (x,), (block,), (coef,) = points, blocks, coefs
            append = coef.append
            for row, xi in zip(block, ids):
                forward = oracle(row, xi)
                if not isfinite(forward):
                    raise _nonfinite(xi)
                base = oracle(x, xi)
                if not isfinite(base):
                    raise _nonfinite(xi)
                append((forward - base) / nu)
        else:
            (x, y), (block, block_y), (coef, coef_y) = points, blocks, coefs
            append, append_y = coef.append, coef_y.append
            for row, row_y, xi in zip(block, block_y, ids):
                forward = oracle(row, xi)
                if not isfinite(forward):
                    raise _nonfinite(xi)
                base = oracle(x, xi)
                if not isfinite(base):
                    raise _nonfinite(xi)
                append((forward - base) / nu)
                forward = oracle(row_y, xi)
                if not isfinite(forward):
                    raise _nonfinite(xi)
                base = oracle(y, xi)
                if not isfinite(base):
                    raise _nonfinite(xi)
                append_y((forward - base) / nu)
        for total, coef in zip(totals, coefs):
            if d > 1:
                stack[0] = total
                np.einsum("j,ji->i", coef, stack, out=total)
            else:
                for c, u in zip(coef[1:], signs):
                    total += c * u
    _thread.buffer = flat
    estimates = []
    for total in totals:
        # A fresh vector, not the total divided in place: a total that
        # outlives the estimate fragmented the heap and raised
        # robust-d2000's peak RSS by ~4.5 MB.
        vector = total / m
        if np.count_nonzero(np.isfinite(vector)) != d:
            raise NumericError(f"batch estimate has a non-finite entry (nu={nu!r})")
        estimates.append(GradientEstimate(vector=vector, oracle_calls=2 * m))
    return tuple(estimates)


def minibatch_gradient(
    problem: Problem, x: np.ndarray, cfg: EstimatorConfig, key: tuple
) -> GradientEstimate:
    """Mean of cfg.batch two-point estimates with fresh (u, xi) per element.

    ``key`` is the stream path, typically (seed, iteration); the whole
    batch draws from the one stream it names.  Accumulation runs in
    ascending element order, so the result is bit-identical no matter how
    oracle evaluations are scheduled.
    """
    (est,) = _batch_estimates(problem, (np.asarray(x, dtype=float),), cfg, key)
    return est


def paired_storm_estimates(
    problem: Problem,
    x_t: np.ndarray,
    x_prev: np.ndarray,
    cfg: EstimatorConfig,
    key: tuple,
) -> tuple[GradientEstimate, GradientEstimate]:
    """Batch estimates at x_t and x_prev sharing the same (u, xi) pairs.

    The shared randomness is what makes the difference of the two
    estimates track the gradient difference; each point costs 2*batch
    oracle calls, 4*batch in total.  The x_t estimate equals
    minibatch_gradient(problem, x_t, cfg, key) bit for bit.
    """
    points = (np.asarray(x_t, dtype=float), np.asarray(x_prev, dtype=float))
    return _batch_estimates(problem, points, cfg, key)


def default_smoothing(d: int, T: int, variant: str) -> float:
    """Default smoothing radius: 1/(d*sqrt(T)) for plain mini-batch
    estimation, 1/(d*T^(2/3)) for the recursive-momentum variant."""
    _check_count("d", d)
    _check_count("T", T)
    if variant == "minibatch":
        return 1.0 / (d * np.sqrt(T))
    if variant == "storm":
        return 1.0 / (d * float(T) ** (2.0 / 3.0))
    raise ValueError(f"unknown smoothing variant: {variant!r}")
