"""Two-point gradient estimation with Rademacher probes.

A probe direction u has independent +-1 coordinates, so E[u u^T] = I and
(1/nu)*(l(x + nu*u; xi) - l(x; xi))*u is an unbiased estimate of the
gradient of the smoothed loss l_nu.  Each batch estimate draws all of its
(u, xi) pairs from one stream keyed by (run key..., iteration): first the
m*d signs as ceil(m*d/8) packed bytes, read row-major with np.unpackbits
(bit 1 is +1, bit 0 is -1), then the m sample ids in one
integers(2**63, size=m) call.  Every estimate is therefore a pure function
of its key path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .core import NumericError, Problem

__all__ = [
    "EstimatorConfig",
    "GradientEstimate",
    "rademacher_vector",
    "two_point_estimate",
    "minibatch_gradient",
    "paired_storm_estimates",
    "default_smoothing",
]

# Largest sample id; data-backed oracles take xi modulo their row count.
_XI_BOUND = 2**63

# Row b holds the eight signs of byte b in np.unpackbits order (bit 1 is +1).
_BYTE_SIGNS = 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) - 1.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Smoothing radius nu and batch size for gradient estimation.

    delta is the probe scaling; it is fixed to 1 because Rademacher probes
    already satisfy E[u u^T] = I.
    """

    nu: float
    batch: int
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.batch < 1:
            raise ValueError("batch must be a positive integer")
        if self.delta != 1.0:
            raise ValueError("delta is fixed to 1 for Rademacher probes")


@dataclass(frozen=True)
class GradientEstimate:
    """A dual-space estimate with its oracle-call cost and smoothing radius."""

    vector: np.ndarray
    oracle_calls: int
    nu_used: float


def rademacher_vector(stream: np.random.Generator, d: int) -> np.ndarray:
    """A vector of d independent fair +-1 draws from the given stream."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return 2.0 * stream.integers(0, 2, size=d) - 1.0


def _oracle(problem: Problem, x: np.ndarray, xi: int) -> float:
    value = problem.oracle(x, xi)
    if not np.isfinite(value):
        raise NumericError(f"oracle returned a non-finite value for sample xi={xi}")
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


def _probes(d: int, batch: int, key: tuple):
    """Yield the batch's (u, xi) pairs in element order from one keyed stream.

    The signs are drawn packed, and a row's bytes are expanded through
    _BYTE_SIGNS only when the row is used: no batch-by-d block is ever
    held, and each row costs a single float allocation.
    """
    stream = rng.stream(*key)
    packed = np.frombuffer(stream.bytes(-(-batch * d // 8)), dtype=np.uint8)
    xis = stream.integers(_XI_BOUND, size=batch)
    for j in range(batch):
        lo = j * d
        signs = _BYTE_SIGNS[packed[lo // 8 : -(-(lo + d) // 8)]].ravel()
        yield signs[lo % 8 : lo % 8 + d], int(xis[j])


def minibatch_gradient(
    problem: Problem, x: np.ndarray, cfg: EstimatorConfig, key: tuple
) -> GradientEstimate:
    """Mean of cfg.batch two-point estimates with fresh (u, xi) per element.

    ``key`` is the stream path, typically (seed, iteration); the whole
    batch draws from the one stream it names.  Accumulation runs in
    ascending element order, so the result is bit-identical no matter how
    oracle evaluations are scheduled.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros(problem.dimension)
    for u, xi in _probes(problem.dimension, cfg.batch, key):
        total += two_point_estimate(problem, x, u, cfg.nu, xi)
    return GradientEstimate(vector=total / cfg.batch, oracle_calls=2 * cfg.batch, nu_used=cfg.nu)


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
    x_t = np.asarray(x_t, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    total_t = np.zeros(problem.dimension)
    total_prev = np.zeros(problem.dimension)
    for u, xi in _probes(problem.dimension, cfg.batch, key):
        total_t += two_point_estimate(problem, x_t, u, cfg.nu, xi)
        total_prev += two_point_estimate(problem, x_prev, u, cfg.nu, xi)
    calls = 2 * cfg.batch
    return (
        GradientEstimate(vector=total_t / cfg.batch, oracle_calls=calls, nu_used=cfg.nu),
        GradientEstimate(vector=total_prev / cfg.batch, oracle_calls=calls, nu_used=cfg.nu),
    )


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
