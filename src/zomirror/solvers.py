"""Optimization loops over the entropy geometry plus a Euclidean baseline.

The four methods are one loop over four choices, and ALGORITHM_TABLE is
the one place that states them: the prox target v_t, in the mirror
geometry or the Euclidean one; whether x_{t+1} is v_t or the average
(1 - r)*x_t + r*v_t with r = alpha_t/alpha_{t+1}; mini-batch or paired
recursive-momentum (STORM) estimates; and the stepsize rule for each
stepsize word a method accepts, "adaptive" and "constant", with eta_t =
eta_base * alpha_t.  zo-ada-expgrad moves to its mirror target,
zo-ada-expgrad-plus averages toward it, zo-expstorm averages toward it on
STORM estimates, and zo-psgd moves to its Euclidean target at a constant
stepsize.  Every run is a pure function of (problem, config): each
iteration's batch estimate draws its probe signs and sample ids from one
stream keyed by (seed, iteration), and the reported output iterate x_tau
is drawn uniformly from the trajectory using the run's own stream.

Evaluation is reporting, not part of the algorithm: the objective at each
iterate and, when the problem has an exact gradient, the squared l1 norm
of its gradient map and, for a momentum run, the tracking errors of its
estimates.  Iterates wait in a buffer of _EVAL_FLOATS // max(d,
num_samples) rows (at least one), each with one pending entry of its
iteration, eta_t, alpha_t, oracle calls, loop seconds and, in a tracked
run, its estimates (d_t, g_t).  A full buffer, or the last one, costs one
mean_loss and one exact_gradient call on the (k, d) stack and one
gradient_map call per chunk of at most _MAP_FLOATS floats of the rows
whose map is due.  The trajectory never depends on it.  Errors keep the
order of a loop that evaluates x_t before it estimates at x_t, and checks
x_t's tracking errors after iteration t's step: when the estimator or the
step fails at iteration t, the buffered iterates up to x_t are evaluated
first, and an evaluation error among them is the one raised.  A non-finite
eta_t comes first in iteration t, in layer "stepsize", and since x_t's
gradient map takes it, only the iterates up to x_{t-1} are evaluated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import rng
from .core import (
    NumericError,
    Problem,
    _check_bytes,
    _check_count,
    _check_scale,
    _is_integer,
    composite_value,
    elastic_net_value,
)
from .mirror import MirrorGeometry, gradient_map, prox_composite
from .sampling import (
    EstimatorConfig,
    check_batch_size,
    default_smoothing,
    minibatch_gradient,
    paired_storm_estimates,
)

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_TABLE",
    "Algorithm",
    "RunConfig",
    "TraceRecord",
    "Trace",
    "stepsize_update",
    "storm_schedule",
    "storm_momentum_update",
    "run_algorithm",
    "run_zo_ada_expgrad",
    "run_zo_ada_expgrad_plus",
    "run_zo_expstorm",
    "run_zo_psgd",
]

# Traces retain full iterate lists only below this many stored floats.
_ITERATE_STORE_LIMIT = 4_000_000

# Most floats in one block of iterates evaluated together, counted by the
# widest row an evaluation hook may hold per iterate, max(d, num_samples)
# (a single iterate when that is larger): 512 KB, 32 iterates at d = 2000.
_EVAL_FLOATS = 65_536

# Most floats in one gradient_map call over a block's due rows (a single
# row when d is larger): 64 KB, 16 rows at d = 500 and 4 at d = 2000.
# The stacked prox's temporaries grow with the chunk: one call per block
# was byte-identical and ~2 ms per run faster, but raised the benchmark's
# peak RSS by 8.6% at d = 500 and 5.0% at d = 2000.
_MAP_FLOATS = 8_192

# Bytes a run keeps per iteration: a TraceRecord with its numbers and list
# slot (328 by tracemalloc) and a momentum run's two tracking floats (64).
_ITERATION_BYTES = 392

# alpha_{t+1} from (accum, t, m): the accumulator after iteration t's move,
# the iteration and the batch size.
AlphaRule = Callable[[float, int, int], float]


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one solver run.

    ``stepsize_variant`` names one of the algorithm's stepsize rules in
    ALGORITHM_TABLE: "adaptive", which every algorithm accepts, or
    "constant", which only zo-ada-expgrad and zo-psgd accept.  ``nu`` of
    None selects the default smoothing for the algorithm's estimator.
    ``algorithm`` of None lets the runner fill its own tag in.  A set tag
    must be in ALGORITHM_TABLE and the stepsize word must be in its row;
    both are checked here, and a runner rejects a config that names
    another algorithm.  So is T: a run keeps one trace record per
    iteration, and their bytes may not pass the 4 GiB input limit.
    """

    T: int
    batch: int
    eta_base: float = 1.0
    nu: float | None = None
    seed: int = 0
    algorithm: str | None = None
    stepsize_variant: str = "adaptive"
    stationarity_eval_period: int = 1

    def __post_init__(self) -> None:
        for name in ("T", "batch", "stationarity_eval_period"):
            _check_count(name, getattr(self, name))
        _check_bytes(_ITERATION_BYTES * int(self.T), f"T = {self.T} keeps", "bytes of trace records")
        if not _is_integer(self.seed):
            raise ValueError("seed must be an integer")
        # Python floats, whose products overflow to inf without a warning.
        object.__setattr__(self, "eta_base", _check_scale("eta_base", self.eta_base))
        if self.nu is not None:
            object.__setattr__(self, "nu", _check_scale("nu", self.nu))
        # Tuples test membership with ==, so a tag or word that is not a
        # string fails here rather than as unhashable in a dict lookup.
        if self.algorithm not in (None, *ALGORITHMS):
            raise ValueError(f"unknown algorithm tag {self.algorithm!r}")
        if self.algorithm and self.stepsize_variant not in tuple(ALGORITHM_TABLE[self.algorithm].alpha_rules):
            raise ValueError(f"tag {self.algorithm!r} has no {self.stepsize_variant}-stepsize variant")


@dataclass(frozen=True)
class TraceRecord:
    """Metrics row for iteration t, describing the iterate x_t entering it.

    ``wall_ms`` is the iteration's own loop time plus an equal share of
    the evaluation of its block of iterates, so the column sums to the run.
    """

    iteration: int
    oracle_calls: int
    objective: float
    stationarity_sq_l1: float | None
    alpha: float
    eta: float
    wall_ms: float


@dataclass
class Trace:
    """Per-iteration records plus the sampled output iterate.

    ``iterates`` holds x_1..x_T, or None for runs whose T*d exceeds the
    retention limit.  ``tracking_sq`` and ``minibatch_tracking_sq`` are
    momentum diagnostics (squared max-norm estimation error per
    iteration), present only when the problem exposes an exact gradient;
    an error whose square passes the float range raises NumericError in
    layer "tracking".
    Records and tracking values are filled in a block of iterates at a
    time; ``iterates``, the sampled point and each record's oracle calls,
    alpha and eta do not depend on that evaluation.
    """

    records: list[TraceRecord]
    sampled_index: int
    sampled_point: np.ndarray
    iterates: list[np.ndarray] | None = None
    tracking_sq: list[float] | None = None
    minibatch_tracking_sq: list[float] | None = None


def storm_schedule(t: int, m: int) -> tuple[float, float]:
    """(gamma, beta) at iteration t with batch m.

    tau = (1 + t/m)^(2/3) grows without bound, so gamma = 2/(1 + tau)
    decays toward zero and beta = max(1, (tau - 1)/sqrt(tau)) is
    nondecreasing.
    """
    _check_count("t", t)
    _check_count("m", m)
    tau = (1.0 + t / m) ** (2.0 / 3.0)
    return 2.0 / (1.0 + tau), float(max(1.0, (tau - 1.0) / np.sqrt(tau)))


def storm_momentum_update(
    d_prev: np.ndarray, g_t: np.ndarray, m_t: np.ndarray, gamma: float
) -> np.ndarray:
    """d_t = g_t + (1 - gamma_t) * (d_{t-1} - m_t)."""
    if g_t.shape != m_t.shape:
        raise ValueError("g_t and m_t must have equal shapes")
    return g_t + (1.0 - gamma) * (d_prev - m_t)


def _md_alpha(accum: float, t: int, m: int) -> float:
    """Mirror descent: sqrt(accum + 1)."""
    return math.sqrt(accum + 1.0)


def _fw_alpha(accum: float, t: int, m: int) -> float:
    """Combined step: max(sqrt(accum), 1)."""
    return max(math.sqrt(accum), 1.0)


def _storm_alpha(accum: float, t: int, m: int) -> float:
    """Combined step on momentum estimates: sqrt(beta_{t+1} * (1 + accum))."""
    return math.sqrt(storm_schedule(t + 1, m)[1] * (1.0 + accum))


def stepsize_update(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float,
    accum: float,
    rule: AlphaRule | None,
    t: int,
    m: int,
) -> tuple[float, float]:
    """(alpha_{t+1}, accum) after the move from x_t to y.

    lambda_t = 1/(max(||x_t||_1, ||y||_1) + 1), the accumulator gains
    (lambda_t * alpha_t * ||y - x_t||_1)^2, and the rule maps it to
    alpha_{t+1}, which must not fall below alpha_t.  A constant stepsize
    (rule None) leaves both unchanged.
    """
    if rule is None:
        return alpha, accum
    # |x|, |y| and |y - x| as the rows of one buffer, summed by one
    # np.add.reduce: each row's pairwise sum is np.sum of that row alone.
    rows = np.empty((3, len(x)))
    rows[0] = x
    rows[1] = y
    np.subtract(y, x, out=rows[2])
    norm_x, norm_y, norm_step = np.add.reduce(np.abs(rows, out=rows), axis=1).tolist()
    lam = 1.0 / (max(norm_x, norm_y) + 1.0)
    accum += (lam * alpha * norm_step) ** 2
    alpha_next = rule(accum, t, m)
    if alpha_next < alpha:
        raise RuntimeError("stepsize invariant violated: alpha decreased")
    return alpha_next, accum


def _mirror_target(problem, geo, x, d_t, eta):
    # The composite prox of d_t at x_t, read from the module so that a
    # caller may wrap prox_composite.
    return prox_composite(geo, x, d_t, eta, problem.regularizer, problem.feasible_set)


def _euclidean_target(problem, geo, x, d_t, eta):
    # min_y <d_t, y> + r(y) + (eta/2)*||y - x||_2^2: soft-threshold then clamp.
    reg = problem.regularizer
    with np.errstate(over="ignore", invalid="ignore"):
        v = eta * x - d_t
        y = np.sign(v) * np.maximum(np.abs(v) - reg.gamma1, 0.0) / (reg.gamma2 + eta)
    # An inf or NaN in v stays one in y, but gamma2 + eta = inf zeroes y.
    if reg.gamma2 + eta == math.inf or np.count_nonzero(np.isfinite(y)) != y.size:
        raise NumericError("Euclidean step overflows")
    return problem.feasible_set.clamp(y)


@dataclass(frozen=True)
class Algorithm:
    """What sets one method of the family apart from the others.

    ``alpha_rules`` maps each stepsize word the method accepts to its
    AlphaRule, or to None for a constant stepsize; every method accepts
    "adaptive", RunConfig's default.  ``paired`` methods step on
    recursive-momentum (STORM) estimates built from paired batches at x_t
    and x_{t-1}; this also picks the STORM smoothing radius and makes a
    run cost 2m*T + 2m*(T-1) oracle calls instead of 2m*T.  ``target``
    maps (problem, geometry, x_t, d_t, eta_t) to the prox target v_t, in
    the mirror geometry or the Euclidean one.  An ``averaged`` method
    moves to x_{t+1} = (1 - r)*x_t + r*v_t with r = alpha_t/alpha_{t+1},
    clamped to the box; the others move to v_t.
    """

    alpha_rules: dict[str, AlphaRule | None]
    paired: bool
    target: Callable[[Problem, MirrorGeometry, np.ndarray, np.ndarray, float], np.ndarray]
    averaged: bool


ALGORITHM_TABLE = {
    "zo-ada-expgrad": Algorithm({"adaptive": _md_alpha, "constant": None}, False, _mirror_target, False),
    "zo-ada-expgrad-plus": Algorithm({"adaptive": _fw_alpha}, False, _mirror_target, True),
    "zo-expstorm": Algorithm({"adaptive": _storm_alpha}, True, _mirror_target, True),
    # The Euclidean baseline keeps eta_t = eta_base under either word.
    "zo-psgd": Algorithm({"adaptive": None, "constant": None}, False, _euclidean_target, False),
}

ALGORITHMS = tuple(ALGORITHM_TABLE)


def _objective(problem: Problem, X: np.ndarray) -> list[float]:
    """The composite objective at each row of the stack X."""
    if problem.mean_loss is None:
        return [composite_value(problem, x, range(problem.num_samples)) for x in X]
    losses = np.asarray(problem.mean_loss(X), dtype=float)
    if losses.shape != (len(X),):
        raise ValueError("mean_loss must return one loss per row of its stack")
    if not np.isfinite(losses).all():
        raise NumericError("mean_loss returned a non-finite value")
    # Python floats overflow to inf quietly; so does this sum.
    with np.errstate(over="ignore"):
        return (losses + elastic_net_value(problem.regularizer, X)).tolist()


def _exact_gradient(problem: Problem, X: np.ndarray) -> np.ndarray:
    """The exact gradient at each row of the stack X, as a stack."""
    grads = np.asarray(problem.exact_gradient(X), dtype=float)
    if grads.shape != X.shape:
        raise ValueError("exact_gradient must return one gradient per row of its stack")
    if not np.isfinite(grads).all():
        raise NumericError("exact_gradient returned a non-finite entry")
    return grads


def _tracking_sq(grad: np.ndarray, estimates: tuple) -> tuple[float, ...]:
    """The squared max-norm error of each estimate from the exact gradient,
    as Python floats; one past the float range raises NumericError."""
    with np.errstate(over="ignore"):
        errors = [float(np.max(np.abs(v - grad))) for v in estimates]
    try:
        if all(map(math.isfinite, errors)):
            return tuple(e**2 for e in errors)
    except OverflowError:
        pass
    raise NumericError("tracking error is not finite")


def _evaluate(
    problem: Problem, geo: MirrorGeometry, X: np.ndarray, entries: list[tuple], period: int, track: bool
) -> list[tuple[float, float | None, tuple[float, float] | None]]:
    """(objective, stationarity, tracking) at the iterates stacked in the
    rows of X, one pending entry (t, eta_t, alpha_t, oracle calls, loop
    seconds, estimates) per row.

    The stationarity, the squared l1 norm of the gradient map, is computed
    only at iterates its period selects.  In a tracked run the exact
    gradient is computed at every row, and a row whose entry holds the
    momentum estimate and the batch estimate (d_t, g_t) gets their squared
    max-norm errors from it as its tracking.  One mean_loss and one
    exact_gradient call cover the stack (the stack itself when every row
    needs a gradient, so a hook may reuse what mean_loss computed), and
    one gradient_map call per chunk of at most _MAP_FLOATS floats of the
    rows whose map is due.  An objective, stationarity or tracking error
    that is not finite raises NumericError.  Errors come as if each
    iterate were evaluated alone, in order: the NumericError names the
    first failing iterate and, within it, the first failing layer of
    objective, exact gradient, gradient map and tracking.  When a call
    fails on a stack, the rows are evaluated again one at a time to find
    that iterate.
    """
    first = entries[0][0]
    # Rows due, due + period, ... need a gradient map.
    due = (1 - first) % period
    stationarity, tracking = [None] * len(X), [None] * len(X)
    layer = "objective"
    try:
        objectives = _objective(problem, X)
        if not all(map(math.isfinite, objectives)):
            raise NumericError("objective is not finite")
        if track or (problem.exact_gradient is not None and due < len(X)):
            layer = "exact gradient"
            grads = _exact_gradient(problem, X if track or period == 1 else X[due::period])
            layer = "gradient map"
            X_due, G_due = X[due::period], grads[due::period] if track else grads
            etas_due = [entry[1] for entry in entries[due::period]]
            rows = max(1, _MAP_FLOATS // problem.dimension)
            maps = []
            for i in range(0, len(X_due), rows):
                chunk = slice(i, i + rows)
                result = gradient_map(
                    X_due[chunk], G_due[chunk], etas_due[chunk], geo, problem.regularizer, problem.feasible_set
                )
                maps += result.sq_l1_norm.tolist()
            if not all(map(math.isfinite, maps)):
                raise NumericError("stationarity is not finite")
            stationarity[due::period] = maps
            if track:
                layer = "tracking"
                tracking = [_tracking_sq(g, entry[5]) if entry[5] else None for g, entry in zip(grads, entries)]
    except NumericError as exc:
        if len(X) == 1:
            raise NumericError(f"{exc} at iteration {first} in {layer}", iteration=first, layer=layer) from exc
        return [_evaluate(problem, geo, X[i : i + 1], entries[i : i + 1], period, track)[0] for i in range(len(X))]
    return list(zip(objectives, stationarity, tracking))


def _start_point(problem: Problem) -> np.ndarray:
    if problem.start_point is not None:
        x = np.array(problem.start_point, dtype=float)
        if x.shape != (problem.dimension,):
            raise ValueError("start_point must have shape (dimension,)")
        if not problem.feasible_set.contains(x):
            raise ValueError("start_point is outside the feasible set")
        return x
    x = np.zeros(problem.dimension)
    fs = problem.feasible_set
    if fs.contains(x):
        return x
    # The midpoint where both bounds are finite, else the box point nearest 0.
    x = fs.clamp(x)
    finite = np.isfinite(fs.lo) & np.isfinite(fs.hi)
    # Halves first, so huge bounds cannot overflow.  In the normal range
    # halving is exact, so this is 0.5*(lo + hi) bit for bit; a subnormal
    # half may round out of the box (5e-324 halves to 0.0), so clip.
    lo, hi = fs.lo[finite], fs.hi[finite]
    x[finite] = np.clip(0.5 * lo + 0.5 * hi, lo, hi)
    return x


def run_algorithm(problem: Problem, cfg: RunConfig, algorithm: str) -> Trace:
    """Run the algorithm named by a tag of ALGORITHM_TABLE on the problem."""
    if cfg.algorithm is None:
        cfg = replace(cfg, algorithm=algorithm)
    elif cfg.algorithm != algorithm:
        raise ValueError(f"config names algorithm {cfg.algorithm!r}, but this runs {algorithm!r}")
    algo = ALGORITHM_TABLE[algorithm]
    rule = algo.alpha_rules[cfg.stepsize_variant]
    d, m = problem.dimension, cfg.batch
    check_batch_size(m, d)
    geo = MirrorGeometry(d)
    smoothing_kind = "storm" if algo.paired else "minibatch"
    nu = cfg.nu if cfg.nu is not None else default_smoothing(d, cfg.T, smoothing_kind)
    est_cfg = EstimatorConfig(nu=nu, batch=m)

    period = cfg.stationarity_eval_period
    track_momentum = algo.paired and problem.exact_gradient is not None
    tracking: list[float] | None = [] if track_momentum else None
    mb_tracking: list[float] | None = [] if track_momentum else None
    iterates: list[np.ndarray] | None = [] if cfg.T * d <= _ITERATE_STORE_LIMIT else None
    tau = 1 + int(rng.stream(cfg.seed, "tau").integers(cfg.T))
    sampled_point: np.ndarray | None = None

    records: list[TraceRecord] = []
    calls = 0
    alpha, accum = 1.0, 0.0
    x_t = x_prev = _start_point(problem)
    # Iterates wait in the rows of this buffer until it is full or the run
    # ends, then are evaluated together.  Per buffered iterate, pending
    # holds one entry (t, eta_t, alpha_t, oracle calls, loop seconds,
    # estimates), the estimates being (d_t, g_t) when tracking, else None.
    block = np.empty((min(cfg.T, max(1, _EVAL_FLOATS // max(d, problem.num_samples))), d))
    pending: list[tuple] = []
    for t in range(1, cfg.T + 1):
        tick = time.perf_counter()
        alpha_t, eta_t = alpha, cfg.eta_base * alpha
        if iterates is not None:
            iterates.append(x_t)
        if t == tau:
            sampled_point = x_t
        block[len(pending)] = x_t

        # A NumericError from any layer names the iteration and the layer,
        # in its message and in its attributes.
        try:
            layer = "stepsize"
            if not eta_t < math.inf:
                raise NumericError(f"eta_t = {cfg.eta_base!r} * {alpha!r} is not finite")
            layer = "estimator"
            key = (cfg.seed, t)
            if algo.paired and t > 1:
                g_est, m_est = paired_storm_estimates(problem, x_t, x_prev, est_cfg, key)
                calls += g_est.oracle_calls + m_est.oracle_calls
                # d_vec still holds the momentum d_{t-1}.
                gamma = storm_schedule(t, m)[0]
                d_vec = storm_momentum_update(d_vec, g_est.vector, m_est.vector, gamma)
            else:
                # A paired method's first step has no previous iterate to
                # pair against, so its momentum starts at d_1 = g_1.
                g_est = minibatch_gradient(problem, x_t, est_cfg, key)
                calls += g_est.oracle_calls
                d_vec = g_est.vector

            layer = "step"
            v_t = algo.target(problem, geo, x_t, d_vec, eta_t)
            alpha, accum = stepsize_update(x_t, v_t, alpha, accum, rule, t, m)
            # Convex combinations keep the box up to 1-ulp roundoff; clip.
            ratio = alpha_t / alpha
            x_next = problem.feasible_set.clamp((1.0 - ratio) * x_t + ratio * v_t) if algo.averaged else v_t
            if not problem.feasible_set.contains(x_next):
                raise RuntimeError("feasibility invariant violated")
        except Exception as exc:
            # Evaluating x_t comes first in iteration t, so the buffered
            # iterates up to x_t, whose own entry has no estimates, are
            # evaluated before this error is raised, and an error of theirs
            # takes its place.  x_t's gradient map takes eta_t, so a
            # non-finite eta_t leaves x_t out.
            entries = pending if layer == "stepsize" else [*pending, (t, eta_t, alpha_t, calls, 0.0, None)]
            if entries:
                _evaluate(problem, geo, block[: len(entries)], entries, period, track_momentum)
            if isinstance(exc, NumericError):
                raise NumericError(f"{exc} at iteration {t} in {layer}", iteration=t, layer=layer) from exc
            raise

        estimates = (d_vec, g_est.vector) if track_momentum else None
        pending.append((t, eta_t, alpha_t, calls, time.perf_counter() - tick, estimates))
        x_prev, x_t = x_t, x_next
        if len(pending) < len(block) and t < cfg.T:
            continue
        tick = time.perf_counter()
        evaluated = _evaluate(problem, geo, block[: len(pending)], pending, period, track_momentum)
        # Each row's wall time is its own loop time plus an equal share of
        # the block's evaluation.
        share = (time.perf_counter() - tick) / len(pending)
        for (t_i, eta_i, alpha_i, calls_i, seconds, _), (objective, stationarity, tracked) in zip(pending, evaluated):
            if track_momentum:
                tracking.append(tracked[0])
                mb_tracking.append(tracked[1])
            records.append(
                TraceRecord(
                    iteration=t_i,
                    oracle_calls=calls_i,
                    objective=objective,
                    stationarity_sq_l1=stationarity,
                    alpha=alpha_i,
                    eta=eta_i,
                    wall_ms=(seconds + share) * 1000.0,
                )
            )
        pending.clear()

    return Trace(
        records=records,
        sampled_index=tau,
        sampled_point=sampled_point,
        iterates=iterates,
        tracking_sq=tracking,
        minibatch_tracking_sq=mb_tracking,
    )


def run_zo_ada_expgrad(problem: Problem, cfg: RunConfig) -> Trace:
    """Mirror-descent loop with mini-batch estimates.

    Uses adaptive stepsizes by default; cfg.stepsize_variant = "constant"
    keeps eta_t = eta_base throughout.
    """
    return run_algorithm(problem, cfg, "zo-ada-expgrad")


def run_zo_ada_expgrad_plus(problem: Problem, cfg: RunConfig) -> Trace:
    """Combined-step loop: prox target plus convex averaging of iterates."""
    return run_algorithm(problem, cfg, "zo-ada-expgrad-plus")


def run_zo_expstorm(problem: Problem, cfg: RunConfig) -> Trace:
    """Combined-step loop driven by recursive-momentum estimates.

    Iteration 1 costs 2*batch oracle calls; later iterations cost 4*batch
    because the momentum needs paired estimates at consecutive iterates.
    """
    return run_algorithm(problem, cfg, "zo-expstorm")


def run_zo_psgd(problem: Problem, cfg: RunConfig) -> Trace:
    """Euclidean proximal SGD baseline with a constant stepsize."""
    return run_algorithm(problem, cfg, "zo-psgd")
