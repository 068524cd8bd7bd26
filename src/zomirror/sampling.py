"""Two-point gradient estimation with Rademacher probes.

A probe direction u has independent +-1 coordinates, so E[u u^T] = I and
(1/nu)*(l(x + nu*u; xi) - l(x; xi))*u is an unbiased estimate of the
gradient of the smoothed loss l_nu.  Each batch estimate draws all of its
(u, xi) pairs from one stream keyed by (run key..., iteration): first the
m*d signs as ceil(m*d/8) packed bytes, read row-major with np.unpackbits
(bit 1 is +1, bit 0 is -1), then the m sample ids in one
integers(2**63, size=m) call.  Every estimate is therefore a pure function
of its key path.

The batch estimators call the scalar oracle per element in ascending
element order: the forward point x + nu*u_j, then the base point x, both
with sample id xi_j (a paired STORM step does this at x_t, then at
x_prev).  Each element's term is added to a running total in that same
order.  The packed signs are expanded to floats one block of whole rows
at a time, each block holding at most 8,192 signs (a single row when d
is larger), so an estimate holds O(d) floats however large m*d is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import NumericError, Problem

__all__ = [
    "EstimatorConfig",
    "GradientEstimate",
    "two_point_estimate",
    "minibatch_gradient",
    "paired_storm_estimates",
    "default_smoothing",
]

# Largest sample id; data-backed oracles take xi modulo their row count.
_XI_BOUND = 2**63

# Row b holds the eight signs of byte b in np.unpackbits order (bit 1 is +1).
_BYTE_SIGNS = 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) - 1.0

# Most signs expanded per row block: 64 KB of floats, below glibc's 128 KB
# mmap threshold, so block temporaries are recycled from the heap.
_BLOCK_SIGNS = 8192


@dataclass(frozen=True)
class EstimatorConfig:
    """Smoothing radius nu and batch size for gradient estimation."""

    nu: float
    batch: int

    def __post_init__(self) -> None:
        if not 0 < self.nu < math.inf:
            raise ValueError("nu must be positive and finite")
        if self.batch < 1:
            raise ValueError("batch must be a positive integer")


@dataclass(frozen=True)
class GradientEstimate:
    """A dual-space estimate with its oracle-call cost."""

    vector: np.ndarray
    oracle_calls: int


def _nonfinite(xi: int) -> NumericError:
    return NumericError(f"oracle returned a non-finite value for sample xi={xi}")


def _oracle(problem: Problem, x: np.ndarray, xi: int) -> float:
    value = problem.oracle(x, xi)
    if not math.isfinite(value):
        raise _nonfinite(xi)
    return value


def two_point_estimate(
    problem: Problem, x: np.ndarray, u: np.ndarray, nu: float, xi: int
) -> np.ndarray:
    """(1/nu) * (l(x + nu*u; xi) - l(x; xi)) * u; exactly two oracle calls.

    The oracle must be defined on all of R^d: the probe point x + nu*u may
    leave a box feasible set and is evaluated without projection.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    forward = _oracle(problem, x + nu * u, xi)
    base = _oracle(problem, x, xi)
    return ((forward - base) / nu) * u


def _batch_estimates(
    problem: Problem, points: tuple, cfg: EstimatorConfig, key: tuple
) -> tuple[GradientEstimate, ...]:
    """Batch estimates at each of ``points``, all on the key's (u, xi) pairs.

    Per element the oracle sees each point's forward point, then the point
    itself; each point's terms are summed in ascending element order.  The
    packed signs are expanded one row block at a time, and the block's
    step buffer is reused for the scaled rows once its oracle calls are
    done.
    """
    d, m, nu = problem.dimension, cfg.batch, cfg.nu
    oracle = problem.oracle
    stream = rng.stream(*key)
    packed = np.frombuffer(stream.bytes(-(-m * d // 8)), dtype=np.uint8)
    xis = stream.integers(_XI_BOUND, size=m).tolist()
    totals = [np.zeros(d) for _ in points]
    rows = max(1, _BLOCK_SIGNS // d)
    for j0 in range(0, m, rows):
        j1 = min(j0 + rows, m)
        lo, hi = j0 * d, j1 * d
        bits = _BYTE_SIGNS.take(packed[lo // 8 : -(-hi // 8)], axis=0).ravel()
        signs = bits[lo % 8 : lo % 8 + hi - lo].reshape(j1 - j0, d)
        steps = nu * signs
        coefs = [[] for _ in points]
        for step, xi in zip(steps, xis[j0:j1]):
            for x, coef in zip(points, coefs):
                forward = oracle(x + step, xi)
                if not math.isfinite(forward):
                    raise _nonfinite(xi)
                base = oracle(x, xi)
                if not math.isfinite(base):
                    raise _nonfinite(xi)
                coef.append((forward - base) / nu)
        for total, coef, scaled in zip(totals, coefs, (steps, signs)):
            np.multiply(signs, np.array(coef)[:, None], out=scaled)
            for row in scaled:
                total += row
    return tuple(GradientEstimate(vector=total / m, oracle_calls=2 * m) for total in totals)


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
    if d < 1 or T < 1:
        raise ValueError("d and T must be positive integers")
    if variant == "minibatch":
        return 1.0 / (d * np.sqrt(T))
    if variant == "storm":
        return 1.0 / (d * float(T) ** (2.0 / 3.0))
    raise ValueError(f"unknown smoothing variant: {variant!r}")
