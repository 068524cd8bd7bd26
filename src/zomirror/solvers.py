"""Optimization loops over the entropy geometry plus a Euclidean baseline.

Four algorithms share one driver: a mirror-descent step with adaptive
stepsizes (zo-ada-expgrad), a combined-step variant that moves along a
convex combination toward the prox target (zo-ada-expgrad-plus), the same
combined step driven by recursive-momentum estimates (zo-expstorm), and a
proximal SGD baseline in the Euclidean geometry (zo-psgd).  ALGORITHM_TABLE
is the one place that tells them apart.  Every run is a pure function of
(problem, config): each iteration's batch estimate draws its probe signs
and sample ids from one stream keyed by (seed, iteration), and the reported
output iterate x_tau is drawn uniformly from the trajectory using the run's
own stream.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .core import (
    ElasticNet,
    FeasibleSet,
    NumericError,
    Problem,
    composite_value,
    elastic_net_value,
    gradient_map,
)
from .mirror import MirrorGeometry, prox_composite
from .sampling import (
    EstimatorConfig,
    default_smoothing,
    minibatch_gradient,
    paired_storm_estimates,
)

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_TABLE",
    "Algorithm",
    "StepsizeState",
    "StormState",
    "RunConfig",
    "TraceRecord",
    "Trace",
    "SolverState",
    "scmd_step",
    "adaptive_stepsize_md_update",
    "fw_combined_step",
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


@dataclass
class StepsizeState:
    """Stepsize recursion state: eta_t = eta_base * alpha_t.

    alpha never decreases and accum never shrinks, for every variant.
    """

    variant: str
    eta_base: float
    alpha: float = 1.0
    accum: float = 0.0

    def __post_init__(self) -> None:
        if self.variant not in ("constant", "adaptive_md", "adaptive_fw", "storm"):
            raise ValueError(f"unknown stepsize variant: {self.variant!r}")
        if self.eta_base <= 0:
            raise ValueError("eta_base must be positive")

    def current_eta(self) -> float:
        return self.eta_base * self.alpha


@dataclass
class StormState:
    """Recursive-momentum state: d_t and the current mixing weight gamma_t."""

    batch: int
    momentum: np.ndarray
    gamma: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one solver run.

    ``stepsize_variant`` of None selects the algorithm's default; only
    zo-ada-expgrad has a second one ("constant" beside "adaptive_md").
    ``nu`` of None selects the default smoothing for the algorithm's
    estimator.  A non-empty ``algorithm`` must name the algorithm of the
    runner it is passed to.
    """

    T: int
    batch: int
    eta_base: float = 1.0
    nu: float | None = None
    seed: int = 0
    algorithm: str = ""
    stepsize_variant: str | None = None
    stationarity_eval_period: int = 1

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError("T must be a positive integer")
        if self.batch < 1:
            raise ValueError("batch must be a positive integer")
        if self.eta_base <= 0:
            raise ValueError("eta_base must be positive")
        if self.nu is not None and self.nu <= 0:
            raise ValueError("nu must be positive when given")
        if self.stationarity_eval_period < 1:
            raise ValueError("stationarity_eval_period must be a positive integer")


@dataclass(frozen=True)
class TraceRecord:
    """Metrics row for iteration t, describing the iterate x_t entering it."""

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
    iteration), present only when the problem exposes an exact gradient.
    """

    records: list[TraceRecord]
    sampled_index: int
    sampled_point: np.ndarray
    iterates: list[np.ndarray] | None = None
    tracking_sq: list[float] | None = None
    minibatch_tracking_sq: list[float] | None = None


@dataclass
class SolverState:
    """Mutable per-run state threaded through the step operations."""

    geometry: MirrorGeometry
    regularizer: ElasticNet
    feasible_set: FeasibleSet
    x: np.ndarray
    steps: StepsizeState
    storm: StormState | None = None
    iteration: int = 1


def scmd_step(state: SolverState, d_t: np.ndarray) -> np.ndarray:
    """One mirror-descent step: the prox of d_t at the current iterate."""
    return prox_composite(
        state.geometry,
        state.x,
        d_t,
        state.steps.current_eta(),
        state.regularizer,
        state.feasible_set,
    )


def adaptive_stepsize_md_update(
    steps: StepsizeState, x_t: np.ndarray, x_next: np.ndarray
) -> StepsizeState:
    """Accumulate the step just taken and grow alpha.

    lambda_t = 1/(max(||x_t||_1, ||x_next||_1) + 1), the accumulator gains
    (lambda_t * alpha_t * ||x_next - x_t||_1)^2, and the next alpha is
    sqrt(accum + 1).
    """
    n_t = float(np.sum(np.abs(x_t)))
    n_next = float(np.sum(np.abs(x_next)))
    lam = 1.0 / (max(n_t, n_next) + 1.0)
    move = float(np.sum(np.abs(x_next - x_t)))
    steps.accum += (lam * steps.alpha * move) ** 2
    new_alpha = float(np.sqrt(steps.accum + 1.0))
    if new_alpha < steps.alpha:
        raise RuntimeError("stepsize invariant violated: alpha decreased")
    steps.alpha = new_alpha
    return steps


def storm_schedule(t: int, m: int) -> tuple[float, float, float]:
    """(tau, gamma, beta) at iteration t with batch m.

    tau = (1 + t/m)^(2/3) grows without bound, gamma = 2/(1 + tau) decays
    toward zero, and beta = max(1, (tau - 1)/sqrt(tau)) is nondecreasing.
    """
    if t < 1 or m < 1:
        raise ValueError("t and m must be positive integers")
    tau = (1.0 + t / m) ** (2.0 / 3.0)
    gamma = 2.0 / (1.0 + tau)
    beta = max(1.0, (tau - 1.0) / np.sqrt(tau))
    return tau, gamma, float(beta)


def storm_momentum_update(state: StormState, g_t: np.ndarray, m_t: np.ndarray) -> np.ndarray:
    """d_t = g_t + (1 - gamma_t) * (d_{t-1} - m_t); stores and returns d_t."""
    if g_t.shape != m_t.shape:
        raise ValueError("g_t and m_t must have equal shapes")
    d_t = g_t + (1.0 - state.gamma) * (state.momentum - m_t)
    state.momentum = d_t
    return d_t


def fw_combined_step(state: SolverState, d_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prox target plus convex combination toward it.

    v_t = prox(x_t, d_t, eta * alpha_t); the accumulator gains
    (lambda_t * alpha_t * ||v_t - x_t||_1)^2 with lambda_t =
    1/(max(||x_t||_1, ||v_t||_1) + 1); alpha_{t+1} is max(sqrt(accum), 1)
    for the plain variant and sqrt(beta_{t+1} * (1 + accum)) for the
    momentum variant; x_{t+1} = (1 - alpha_t/alpha_{t+1}) * x_t +
    (alpha_t/alpha_{t+1}) * v_t.
    """
    steps = state.steps
    alpha_t = steps.alpha
    v = prox_composite(
        state.geometry, state.x, d_t, steps.current_eta(), state.regularizer, state.feasible_set
    )
    n_x = float(np.sum(np.abs(state.x)))
    n_v = float(np.sum(np.abs(v)))
    lam = 1.0 / (max(n_x, n_v) + 1.0)
    move = float(np.sum(np.abs(v - state.x)))
    steps.accum += (lam * alpha_t * move) ** 2
    if steps.variant == "adaptive_fw":
        alpha_next = max(float(np.sqrt(steps.accum)), 1.0)
    elif steps.variant == "storm":
        if state.storm is None:
            raise ValueError("storm stepsizes require StormState")
        beta_next = storm_schedule(state.iteration + 1, state.storm.batch)[2]
        alpha_next = float(np.sqrt(beta_next * (1.0 + steps.accum)))
    else:
        raise ValueError(f"combined step does not support variant {steps.variant!r}")
    if alpha_next < alpha_t:
        raise RuntimeError("stepsize invariant violated: alpha decreased")
    ratio = alpha_t / alpha_next
    x_next = (1.0 - ratio) * state.x + ratio * v
    # Convex combinations preserve the box up to 1-ulp roundoff; clip it.
    x_next = state.feasible_set.clamp(x_next)
    steps.alpha = alpha_next
    return v, x_next


def _md_step(state: SolverState, d_t: np.ndarray) -> np.ndarray:
    x_next = scmd_step(state, d_t)
    if state.steps.variant == "adaptive_md":
        adaptive_stepsize_md_update(state.steps, state.x, x_next)
    return x_next


def _combined_step(state: SolverState, d_t: np.ndarray) -> np.ndarray:
    return fw_combined_step(state, d_t)[1]


def _psgd_step(state: SolverState, d_t: np.ndarray) -> np.ndarray:
    # min_y <d_t, y> + r(y) + (eta/2)*||y - x||_2^2: soft-threshold then clamp.
    eta, reg = state.steps.current_eta(), state.regularizer
    v = eta * state.x - d_t
    y = np.sign(v) * np.maximum(np.abs(v) - reg.gamma1, 0.0) / (reg.gamma2 + eta)
    return state.feasible_set.clamp(y)


@dataclass(frozen=True)
class Algorithm:
    """What sets one method of the family apart from the others.

    ``variants`` are the stepsize variants it accepts, the first being the
    default.  ``paired`` methods step on recursive-momentum (STORM)
    estimates built from paired batches at x_t and x_{t-1}; this also
    picks the STORM smoothing radius and makes a run cost
    2m*T + 2m*(T-1) oracle calls instead of 2m*T.  ``step`` maps the
    direction d_t to x_{t+1}, updating the stepsize state on the way.
    """

    variants: tuple[str, ...]
    paired: bool
    step: Callable[[SolverState, np.ndarray], np.ndarray]


ALGORITHM_TABLE = {
    "zo-ada-expgrad": Algorithm(("adaptive_md", "constant"), False, _md_step),
    "zo-ada-expgrad-plus": Algorithm(("adaptive_fw",), False, _combined_step),
    "zo-expstorm": Algorithm(("storm",), True, _combined_step),
    "zo-psgd": Algorithm(("constant",), False, _psgd_step),
}

ALGORITHMS = tuple(ALGORITHM_TABLE)


def _objective(problem: Problem, x: np.ndarray, t: int) -> float:
    if problem.mean_loss is None:
        return composite_value(problem, x, range(problem.num_samples))
    value = float(problem.mean_loss(x))
    if not math.isfinite(value):
        raise NumericError(f"mean_loss returned a non-finite value at iteration {t}")
    return value + elastic_net_value(problem.regularizer, x)


def _exact_gradient(problem: Problem, x: np.ndarray, t: int) -> np.ndarray:
    grad = problem.exact_gradient(x)
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"exact_gradient returned a non-finite entry at iteration {t}")
    return grad


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
    return 0.5 * (fs.lo + fs.hi)


def run_algorithm(problem: Problem, cfg: RunConfig, algorithm: str) -> Trace:
    """Run the algorithm named by a tag of ALGORITHM_TABLE on the problem."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    if cfg.algorithm and cfg.algorithm != algorithm:
        raise ValueError(f"config names algorithm {cfg.algorithm!r}, but this runs {algorithm!r}")
    algo = ALGORITHM_TABLE[algorithm]
    variant = algo.variants[0] if cfg.stepsize_variant is None else cfg.stepsize_variant
    if variant not in algo.variants:
        raise ValueError(f"algorithm {algorithm!r} does not support stepsize variant {variant!r}")
    d = problem.dimension
    geo = MirrorGeometry(d)
    smoothing_kind = "storm" if algo.paired else "minibatch"
    nu = cfg.nu if cfg.nu is not None else default_smoothing(d, cfg.T, smoothing_kind)
    est_cfg = EstimatorConfig(nu=nu, batch=cfg.batch)
    storm = StormState(batch=cfg.batch, momentum=np.zeros(d)) if algo.paired else None
    state = SolverState(
        geometry=geo,
        regularizer=problem.regularizer,
        feasible_set=problem.feasible_set,
        x=_start_point(problem),
        steps=StepsizeState(variant=variant, eta_base=cfg.eta_base),
        storm=storm,
    )

    track_momentum = algo.paired and problem.exact_gradient is not None
    tracking: list[float] | None = [] if track_momentum else None
    mb_tracking: list[float] | None = [] if track_momentum else None
    iterates: list[np.ndarray] | None = [] if cfg.T * d <= _ITERATE_STORE_LIMIT else None
    tau = 1 + int(rng.stream(cfg.seed, "tau").integers(cfg.T))
    sampled_point: np.ndarray | None = None

    records: list[TraceRecord] = []
    calls = 0
    x_prev = state.x
    for t in range(1, cfg.T + 1):
        tick = time.perf_counter()
        state.iteration = t
        alpha_t = state.steps.alpha
        eta_t = state.steps.current_eta()
        x_t = state.x
        if iterates is not None:
            iterates.append(x_t)
        if t == tau:
            sampled_point = x_t

        objective = _objective(problem, x_t, t)
        stationarity: float | None = None
        map_due = (
            problem.exact_gradient is not None and (t - 1) % cfg.stationarity_eval_period == 0
        )
        # One exact gradient per iteration serves both the gradient map and
        # the momentum tracking diagnostics.
        if map_due or track_momentum:
            grad = _exact_gradient(problem, x_t, t)
        if map_due:
            result = gradient_map(
                x_t, grad, eta_t, geo, problem.regularizer, problem.feasible_set
            )
            stationarity = result.sq_l1_norm

        key = (cfg.seed, t)
        if algo.paired and t > 1:
            g_est, m_est = paired_storm_estimates(problem, x_t, x_prev, est_cfg, key)
            calls += g_est.oracle_calls + m_est.oracle_calls
            storm.gamma = storm_schedule(t, cfg.batch)[1]
            d_vec = storm_momentum_update(storm, g_est.vector, m_est.vector)
        else:
            g_est = minibatch_gradient(problem, x_t, est_cfg, key)
            calls += g_est.oracle_calls
            d_vec = g_est.vector
            if algo.paired:
                # Unbiased start: no previous iterate to pair against, so the
                # momentum mixes at gamma = 1 and collapses to the fresh batch.
                storm.gamma = 1.0
                d_vec = storm_momentum_update(storm, d_vec, d_vec)
        if track_momentum:
            tracking.append(float(np.max(np.abs(d_vec - grad))) ** 2)
            mb_tracking.append(float(np.max(np.abs(g_est.vector - grad))) ** 2)
        x_next = algo.step(state, d_vec)

        if state.steps.alpha < alpha_t:
            raise RuntimeError("stepsize invariant violated: alpha decreased")
        if not problem.feasible_set.contains(x_next):
            raise RuntimeError("feasibility invariant violated")
        x_prev = x_t
        state.x = x_next
        records.append(
            TraceRecord(
                iteration=t,
                oracle_calls=calls,
                objective=objective,
                stationarity_sq_l1=stationarity,
                alpha=alpha_t,
                eta=eta_t,
                wall_ms=(time.perf_counter() - tick) * 1000.0,
            )
        )

    m, T = cfg.batch, cfg.T
    if calls != 2 * m * T + (2 * m * (T - 1) if algo.paired else 0):
        raise RuntimeError("oracle accounting invariant violated")
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
