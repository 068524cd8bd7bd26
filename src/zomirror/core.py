"""Domain types shared by all solvers: problems, regularizers, feasible
sets, and the generalized gradient-mapping stationarity measure."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .mirror import MirrorGeometry

__all__ = [
    "NumericError",
    "ElasticNet",
    "FeasibleSet",
    "Problem",
    "GradientMapResult",
    "elastic_net_value",
    "composite_value",
    "gradient_map",
]


class NumericError(RuntimeError):
    """A computation produced a non-finite value or would overflow."""


@dataclass(frozen=True)
class ElasticNet:
    """Separable regularizer r(x) = gamma1*||x||_1 + (gamma2/2)*||x||_2^2."""

    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("elastic net weights must be nonnegative")


@dataclass(frozen=True)
class FeasibleSet:
    """Either all of R^d or a coordinate-wise box [lo, hi].

    ``lo`` and ``hi`` are both None for the unconstrained set and both
    arrays of equal shape for a box.
    """

    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    @staticmethod
    def unconstrained() -> "FeasibleSet":
        return FeasibleSet()

    @staticmethod
    def box(lo, hi) -> "FeasibleSet":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have equal shapes")
        if np.any(lo > hi):
            raise ValueError("box requires lo_i <= hi_i for all i")
        return FeasibleSet(lo=lo, hi=hi)

    @property
    def is_box(self) -> bool:
        return self.lo is not None

    def contains(self, x: np.ndarray, atol: float = 0.0) -> bool:
        if not self.is_box:
            return True
        return bool(np.all(x >= self.lo - atol) and np.all(x <= self.hi + atol))

    def clamp(self, x: np.ndarray) -> np.ndarray:
        if not self.is_box:
            return x
        return np.clip(x, self.lo, self.hi)


@dataclass(frozen=True)
class Problem:
    """A composite objective: stochastic loss oracle plus elastic net over a set.

    ``oracle(x, xi)`` must be deterministic given its arguments and defined
    on all of R^d (probe points may leave a box set).  Sample ids ``xi`` are
    63-bit integers; data-backed problems map them to rows by ``xi mod
    num_samples``.  ``exact_gradient`` and ``mean_loss`` are evaluation-only
    hooks present on synthetic problems.
    """

    dimension: int
    oracle: Callable[[np.ndarray, int], float]
    regularizer: ElasticNet = field(default_factory=ElasticNet)
    feasible_set: FeasibleSet = field(default_factory=FeasibleSet)
    exact_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    mean_loss: Callable[[np.ndarray], float] | None = None
    num_samples: int = 1
    start_point: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.num_samples < 1:
            raise ValueError("num_samples must be a positive integer")


@dataclass(frozen=True)
class GradientMapResult:
    """Output of the generalized gradient map at a point.

    ``mapped_point`` is the prox target P(x, g, eta), ``map_vector`` is
    eta*(x - mapped_point), and ``sq_l1_norm`` is its squared l1 norm.
    """

    mapped_point: np.ndarray
    map_vector: np.ndarray
    sq_l1_norm: float


def elastic_net_value(reg: ElasticNet, x: np.ndarray) -> float:
    """gamma1*||x||_1 + (gamma2/2)*||x||_2^2."""
    x = np.asarray(x, dtype=float)
    value = 0.0
    if reg.gamma1 != 0.0:
        value += reg.gamma1 * float(np.sum(np.abs(x)))
    if reg.gamma2 != 0.0:
        value += 0.5 * reg.gamma2 * float(np.dot(x, x))
    return value


def composite_value(problem: Problem, x: np.ndarray, samples: Sequence[int]) -> float:
    """Mean of oracle(x, xi) over the given sample ids plus the regularizer."""
    x = np.asarray(x, dtype=float)
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    total = 0.0
    for xi in samples:
        value = problem.oracle(x, int(xi))
        if not math.isfinite(value):
            raise NumericError(f"oracle returned a non-finite value for sample xi={int(xi)}")
        total += value
    return total / len(samples) + elastic_net_value(problem.regularizer, x)


def gradient_map(
    x: np.ndarray,
    g: np.ndarray,
    eta: float,
    geometry: "MirrorGeometry",
    reg: ElasticNet,
    feasible_set: FeasibleSet,
) -> GradientMapResult:
    """Generalized gradient map G(x, g, eta) = eta*(x - P(x, g, eta)).

    P(x, g, eta) minimizes <g, y> + r(y) + eta*B(y, x) over the feasible
    set; a small ||G||_1 certifies approximate stationarity of the
    composite objective at x.
    """
    from .mirror import prox_composite

    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    mapped = prox_composite(geometry, x, g, eta, reg, feasible_set)
    map_vector = x - mapped
    map_vector *= eta
    l1 = float(np.abs(map_vector).sum())
    return GradientMapResult(mapped_point=mapped, map_vector=map_vector, sq_l1_norm=l1 * l1)
