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
with sample id xi_j.  Each element's term is added to a running total in
that same order.  The packed signs are expanded to floats one block of
whole rows at a time, each block holding at most 65,536 signs (a single
row when d is larger), so an estimate holds O(d) floats however large m*d
is, and every m*d up to 65,536 is one block.  A paired STORM estimate
runs that one element loop on each block at x_t, then at x_prev: per
block, the oracle sees every element at x_t before any at x_prev.  A
copy of the total sits in the row just before the block's sign rows, and
one einsum over that stack adds the block's terms to the total in row
order.  Each sign is +-1, so every product is exact and the contraction
equals the sequential sum bit for bit; a single column (d = 1) is summed
pairwise by einsum, so there the rows are added one by one.

Each thread keeps one Philox generator, re-keyed per estimate with
rng.rekey; all of an estimate's draws come before its first oracle call,
so an oracle that runs an estimate itself can share it.  Each estimate
allocates one flat float array for a block's [total; sign rows] stack and
one block of forward points, which each point fills in turn; the x
handed to the oracle for a forward point is a row of it (see the oracle
rule in core.Problem).  An estimate with a non-finite entry, such as a
finite oracle difference that overflows when divided by a tiny nu, raises
NumericError.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import NumericError, Problem, _check_bytes, _check_count, _check_scale, _nonfinite, _oracle

__all__ = [
    "EstimatorConfig",
    "GradientEstimate",
    "two_point_estimate",
    "minibatch_gradient",
    "paired_storm_estimates",
    "default_smoothing",
    "check_batch_size",
]

# Row b holds the eight signs of byte b in np.unpackbits order (bit 1 is +1).
_BYTE_SIGNS = 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) - 1.0

# Most signs expanded per row block: 512 KB of floats.
_BLOCK_SIGNS = 65536

# Bytes a draw holds per sample id beside its raw word: the shifted word,
# the Python int of 63 bits and its list slot.
_ID_BYTES = 8 + 36 + 8


class _ThreadState(threading.local):
    """Per thread: the probe generator, re-keyed for each estimate."""

    def __init__(self) -> None:
        self.generator = np.random.Generator(np.random.Philox(0))


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


def check_batch_size(m: int, d: int) -> None:
    """Reject a batch size m whose draw at width d would take more than
    4 GiB: ceil(m*d/64) + m raw words, and per sample id a shifted word, a
    Python int and a list slot.  The draw is one call, so it is all held
    at once, however the signs are then expanded."""
    m, d = int(m), int(d)  # numpy integers would wrap past 2**63
    n_bytes = 8 * (-(-m * d // 64) + m) + _ID_BYTES * m
    _check_bytes(n_bytes, f"batch m = {m} at d = {d} draws", "bytes per estimate")


def _batch_estimates(
    problem: Problem, points: tuple, cfg: EstimatorConfig, key: tuple
) -> tuple[GradientEstimate, ...]:
    """Batch estimates at one point, or at the pair (x_t, x_prev), all on
    the key's (u, xi) pairs.

    The packed signs are expanded one row block at a time into the
    estimate's own array.  For each point in turn, the block's forward
    points fill the one forward block, the oracle sees each element's
    forward point and then the point itself in ascending element order,
    and one einsum adds the block's terms to that point's total.
    """
    d, m, nu = problem.dimension, cfg.batch, cfg.nu
    oracle, isfinite = problem.oracle, math.isfinite
    packed, xis = _draw(rng.rekey(_thread.generator, *key), m, d)
    totals = [np.zeros(d) for _ in points]
    rows = min(m, max(1, _BLOCK_SIGNS // d))
    # A total row, then a block's bytes expanded whole, which adds up to 7
    # signs at either end of its rows; then the forward block.
    width = d + rows * d + 16
    flat = np.empty(width + rows * d)
    forwards = flat[width:].reshape(rows, d)
    for j0 in range(0, m, rows):
        j1 = min(j0 + rows, m)
        lo, hi = j0 * d, j1 * d
        chunk = packed[lo // 8 : -(-hi // 8)]
        bits = flat[d : d + 8 * chunk.size].reshape(chunk.size, 8)
        _BYTE_SIGNS.take(chunk, axis=0, out=bits, mode="clip")
        # Row 0 is the total row, the rest are the block's sign rows.
        stack = flat[lo % 8 : d + lo % 8 + hi - lo].reshape(j1 - j0 + 1, d)
        signs = stack[1:]
        block, ids = forwards[: j1 - j0], xis[j0:j1]
        for x, total in zip(points, totals):
            np.multiply(signs, nu, out=block)
            block += x
            coef = [1.0]
            append = coef.append
            for row, xi in zip(block, ids):
                forward = oracle(row, xi)
                if not isfinite(forward):
                    raise _nonfinite(xi)
                base = oracle(x, xi)
                if not isfinite(base):
                    raise _nonfinite(xi)
                append((forward - base) / nu)
            if d > 1:
                stack[0] = total
                np.einsum("j,ji->i", coef, stack, out=total)
            else:
                for c, u in zip(coef[1:], signs):
                    total += c * u
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
    minibatch_gradient(problem, x_t, cfg, key) bit for bit.  Per block of
    sign rows (one block whenever batch*d <= 65,536), the oracle sees
    every element at x_t, then every element at x_prev.
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
