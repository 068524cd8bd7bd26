"""Domain types shared by all solvers: problems, regularizers, feasible
sets, and the composite objective's value."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericError",
    "ElasticNet",
    "FeasibleSet",
    "Problem",
    "elastic_net_value",
    "composite_value",
]


# Most bytes one input may make the program allocate: a problem's data
# matrix, one estimate's draw or a run's trace records.
_MAX_BYTES = 1 << 32


def _is_integer(value) -> bool:
    """An int or numpy integer; bool is an int subclass but no count or seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer (see _is_integer) of at least 1."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer")


def _check_bytes(n_bytes: int, head: str, tail: str) -> None:
    """Reject an input that would make the program allocate n_bytes >
    _MAX_BYTES at once, as "<head> <n_bytes> <tail>, above the limit"."""
    if n_bytes > _MAX_BYTES:
        raise ValueError(f"{head} {n_bytes:,} {tail}, above the limit of {_MAX_BYTES:,}")


def _check_scale(name: str, value) -> float:
    """Reject a scale that is not positive and finite (NaN included), and
    return it as a Python float."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


class NumericError(RuntimeError):
    """A computation produced a non-finite value or would overflow.

    A run loop that re-raises the error sets ``iteration`` (1-based) and
    ``layer`` (such as "estimator" or "step") to where it arose; both are
    None on an error raised outside a run.
    """

    def __init__(self, message: str = "", *, iteration: int | None = None, layer: str | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.layer = layer


@dataclass(frozen=True)
class ElasticNet:
    """Separable regularizer r(x) = gamma1*||x||_1 + (gamma2/2)*||x||_2^2."""

    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma1 < math.inf and 0.0 <= self.gamma2 < math.inf):
            raise ValueError("elastic net weights must be finite and nonnegative")


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
        if not np.all(lo <= hi):
            raise ValueError("box requires lo_i <= hi_i for all i")
        if not (np.all(lo < math.inf) and np.all(hi > -math.inf)):
            raise ValueError("box requires lo_i < inf and hi_i > -inf for all i, so that it holds a finite point")
        return FeasibleSet(lo=lo, hi=hi)

    @property
    def is_box(self) -> bool:
        return self.lo is not None

    def contains(self, x: np.ndarray) -> bool:
        if not self.is_box:
            return True
        # Counted, not reduced with logical_and: cheaper on small arrays.
        above, below = x >= self.lo, x <= self.hi
        return bool(np.count_nonzero(above) == above.size and np.count_nonzero(below) == below.size)

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """The box point nearest x, coordinate by coordinate: np.clip of a
        point bit for bit, NaN and signed zeros included.  The rows of a
        (k, d) stack clamp as points, where np.clip of a one-column stack
        may keep a -0.0 tied with a bound of 0.0."""
        if not self.is_box:
            return x
        return np.minimum(np.maximum(x, self.lo), self.hi)


@dataclass(frozen=True)
class Problem:
    """A composite objective: stochastic loss oracle plus elastic net over a set.

    ``oracle(x, xi)`` must be deterministic given its arguments and defined
    on all of R^d (probe points may leave a box set).  Sample ids ``xi`` are
    63-bit integers; data-backed problems map them to rows by ``xi mod
    num_samples``.  A forward point x + nu*u handed to the oracle is a row
    of the estimate's own buffer, so an oracle must neither keep its ``x``
    nor write to it.
    ``mean_loss`` and ``exact_gradient`` are evaluation-only hooks present
    on synthetic problems.  Each takes a (k, d) stack of points, one per
    row, and returns k losses or a (k, d) stack of gradients.  The stack
    may be a view of a run's own buffer, which later blocks overwrite, so
    a hook must not write to it nor rely on its values after returning.
    A hook's own stacks may hold num_samples floats per row (a residual
    per sample), so a run sizes its stacks by max(d, num_samples).
    """

    dimension: int
    oracle: Callable[[np.ndarray, int], float]
    regularizer: ElasticNet = field(default_factory=ElasticNet)
    feasible_set: FeasibleSet = field(default_factory=FeasibleSet)
    exact_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    mean_loss: Callable[[np.ndarray], np.ndarray] | None = None
    num_samples: int = 1
    start_point: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_count("dimension", self.dimension)
        _check_count("num_samples", self.num_samples)
        box = self.feasible_set
        if box.is_box and not np.shape(box.lo) == np.shape(box.hi) == (self.dimension,):
            raise ValueError(f"box bounds must have shape ({self.dimension},)")


def elastic_net_value(reg: ElasticNet, x: np.ndarray) -> float | np.ndarray:
    """gamma1*||x||_1 + (gamma2/2)*||x||_2^2 at one point of shape (d,), or
    at each row of a (k, d) stack as a (k,) array, each entry equal to the
    one-point value bit for bit."""
    x = np.asarray(x, dtype=float)
    value = np.zeros(x.shape[:-1])
    # Quiet inf and NaN, as in Python float arithmetic: a dot product past
    # the float range is inf, and a tiny gamma2 halves to 0, times inf NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        if reg.gamma1 != 0.0:
            value += reg.gamma1 * np.add.reduce(np.abs(x), axis=-1)
        if reg.gamma2 != 0.0:
            # ndarray.dot per row, the one-point dot product.
            value += 0.5 * reg.gamma2 * (x.dot(x) if x.ndim == 1 else np.array([row.dot(row) for row in x]))
    return value if x.ndim == 2 else float(value)


def _nonfinite(xi: int) -> NumericError:
    return NumericError(f"oracle returned a non-finite value for sample xi={xi}")


def _oracle(problem: Problem, x: np.ndarray, xi: int) -> float:
    """oracle(x, xi), raising NumericError if it is not finite."""
    value = problem.oracle(x, xi)
    if not math.isfinite(value):
        raise _nonfinite(xi)
    return value


def composite_value(problem: Problem, x: np.ndarray, samples: Sequence[int]) -> float:
    """Mean of oracle(x, xi) over the given sample ids plus the regularizer."""
    x = np.asarray(x, dtype=float)
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    total = 0.0
    for xi in samples:
        total += _oracle(problem, x, int(xi))
    return total / len(samples) + elastic_net_value(problem.regularizer, x)

