"""Every step of every method against the reference run in oracles.py.

Each run is replayed one iteration at a time from the library's own
state, its iterates and its records' alpha_t, so an error in one step
does not carry into the next.  The reference recomputes each estimate
from the run's key, the STORM momentum, the target (a golden-section
prox or the Euclidean prox), the accumulator, the alpha rule, the
average and tau.  x_{t+1} agrees to the golden section's precision;
oracle calls, eta_t, tau and the sampled point agree exactly, and so
does alpha wherever the library's iterates fix it: a constant stepsize,
and mirror descent, whose target is its next iterate.
"""

import dataclasses

import numpy as np
import pytest

from zomirror import ALGORITHM_TABLE, ElasticNet, FeasibleSet, RunConfig, make_sparse_regression, run_algorithm

from oracles import (
    REFERENCE_METHODS,
    alpha_rule_reference,
    average_reference,
    default_nu_reference,
    reference_step,
    stepsize_update_reference,
    tau_reference,
)

# The golden section stops at a bracket of 1e-9, and the prox objective
# is flat to rounding within a few 1e-8 of its minimum.
STEP_TOL = 1e-6

CASES = [(tag, variant) for tag in ALGORITHM_TABLE for variant in ALGORITHM_TABLE[tag].alpha_rules]


def _problem(d: int, boxed: bool):
    """A robust sparse regression; its box binds some steps."""
    reg = ElasticNet(0.01, 1e-3)
    problem = make_sparse_regression(d, 3 * d + 5, max(1, d // 3), 0.1, "robust_nonconvex", seed=d, regularizer=reg)
    if boxed:
        lo, hi = (-0.3, 0.4) if d > 1 else (-1.0, 2.0)
        problem = dataclasses.replace(problem, feasible_set=FeasibleSet.box(np.full(d, lo), np.full(d, hi)))
    return problem


def _trajectory(trace):
    return [(r.oracle_calls, r.alpha, r.eta) for r in trace.records], trace.sampled_index, [x.tolist() for x in trace.iterates]


def replay(problem, cfg: RunConfig, tag: str, trace) -> None:
    """Check the run step by step against the reference."""
    _, averaged, _ = REFERENCE_METHODS[tag]
    rule = alpha_rule_reference(tag, cfg.stepsize_variant)
    # Mirror descent's target is x_{t+1}, so its accumulator sees only the
    # library's own iterates and its alpha compares exactly.
    exact_alpha = rule is None or not averaged
    nu = cfg.nu if cfg.nu is not None else default_nu_reference(tag, problem.dimension, cfg.T)
    box = problem.feasible_set
    xs, records = trace.iterates, trace.records
    assert [r.iteration for r in records] == list(range(1, cfg.T + 1))
    alpha, accum, d_prev, calls = 1.0, 0.0, None, 0
    for t, record in enumerate(records, start=1):
        if exact_alpha:
            assert record.alpha == alpha, t
        else:
            assert record.alpha == pytest.approx(alpha, rel=STEP_TOL), t
        assert record.eta == cfg.eta_base * record.alpha, t
        x_t, x_prev = xs[t - 1], xs[t - 2] if t > 1 else None
        d_prev, v_t, n = reference_step(problem, tag, x_t, x_prev, d_prev, record.eta, t, cfg.batch, nu, cfg.seed)
        calls += n
        assert record.oracle_calls == calls, t
        if t == cfg.T:
            break
        x_next = xs[t]
        alpha, accum = stepsize_update_reference(x_t, v_t if averaged else x_next, record.alpha, accum, rule, t, cfg.batch)
        if averaged:
            v_t = average_reference(x_t, v_t, record.alpha, records[t].alpha, box.lo, box.hi)
        assert np.max(np.abs(x_next - v_t)) <= STEP_TOL, (t, x_next, v_t)
    tau = tau_reference(cfg.seed, cfg.T)
    assert trace.sampled_index == tau
    assert trace.sampled_point.tobytes() == xs[tau - 1].tobytes()


@pytest.mark.parametrize("boxed", [False, True], ids=["free", "box"])
@pytest.mark.parametrize("d", [1, 7])
@pytest.mark.parametrize("tag, variant", CASES)
def test_every_step_matches_the_reference(tag, variant, d, boxed):
    problem = _problem(d, boxed)
    eta = 3.0 if tag == "zo-psgd" else 0.5
    cfg = RunConfig(T=9, batch=3, eta_base=eta, seed=d + 2, stepsize_variant=variant)
    trace = run_algorithm(problem, cfg, tag)
    # The trajectory does not depend on how often the gradient map is taken.
    periodic = dataclasses.replace(cfg, stationarity_eval_period=3)
    trace_3 = run_algorithm(problem, periodic, tag)
    assert _trajectory(trace_3) == _trajectory(trace)
    replay(problem, periodic, tag, trace_3)
    # The run moves: every step changes the iterate.
    assert all(np.any(a != b) for a, b in zip(trace.iterates, trace.iterates[1:]))
