"""Property test: every library run ends finite, in a NumericError that
names its place, or in a ValueError before the first oracle call.

Each example builds a ``Problem`` at d in {1, 2, 5, 50} from one of four
oracle families, with a box whose bounds are drawn from zero, tiny,
ordinary, huge and infinite magnitudes of either sign (so boxes may be
one-sided, infinite or degenerate), elastic-net weights and eta from the
same magnitudes, and an optional start point, then runs one algorithm for
T <= 7 iterations at batch m <= 3 with every warning an error.  A run
must end in one of three ways:

* finite records, with finite iterates and a finite sampled point, all
  in the box; each step of a zo-psgd run also matches the exact
  Euclidean prox step, computed in rationals, to the precision its
  float formula has;
* a ``NumericError`` with ``iteration`` and ``layer`` set;
* a ``ValueError`` before the first oracle call.

Any other exception, a ``RuntimeWarning`` from ``zomirror`` among them,
fails the property.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zomirror import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    ElasticNet,
    EstimatorConfig,
    FeasibleSet,
    NumericError,
    Problem,
    RunConfig,
    default_smoothing,
    make_sparse_regression,
    minibatch_gradient,
    run_algorithm,
)

MAGNITUDES = [0.0, 5e-324, 1e-300, 1e-8, 1e-3, 0.1, 1.0, 10.0, 1e8, 1e150, 1e300, 1.7e308]
BOUNDS = sorted({s * v for v in MAGNITUDES for s in (1.0, -1.0)} | {-math.inf, math.inf})
FAMILIES = ("linear", "quadratic", "regression", "robust")


class Counted:
    """An oracle wrapper that counts its calls."""

    def __init__(self, oracle):
        self.oracle, self.calls = oracle, 0

    def __call__(self, x, xi):
        self.calls += 1
        return self.oracle(x, xi)


def _quiet(fn):
    """fn with its own overflow silenced: an inf it returns is the run's to
    handle, and a warning under test comes from the library alone."""

    def wrapped(*args):
        with np.errstate(all="ignore"):
            return fn(*args)

    return wrapped


def _linear(x, xi):
    return float(x[0] - 2.0 * x[1]) if len(x) > 1 else float(x[0])


def _build(family: str, d: int, reg: ElasticNet, box: FeasibleSet, start) -> tuple[Problem, Counted]:
    """The family's problem over the box, with a counting oracle."""
    hooks = {}
    if family == "linear":
        oracle = _quiet(_linear)
    elif family == "quadratic":
        oracle = _quiet(lambda x, xi: 0.5 * float(np.square(x - 1.0).sum()))
        hooks = {
            "mean_loss": _quiet(lambda X: 0.5 * np.square(X - 1.0).sum(axis=-1)),
            "exact_gradient": _quiet(lambda X: X - 1.0),
        }
    elif family == "regression":
        design = make_sparse_regression(d, 4, 1, 0.1, "least_squares", seed=d)
        oracle = _quiet(design.oracle)
        hooks = {
            "mean_loss": _quiet(design.mean_loss),
            "exact_gradient": _quiet(design.exact_gradient),
            "num_samples": design.num_samples,
        }
    else:
        oracle = _quiet(lambda x, xi: float(np.tanh(np.square(x.sum() - xi % 3))))
        hooks = {"num_samples": 3}
    counted = Counted(oracle)
    problem = Problem(
        dimension=d, oracle=counted, regularizer=reg, feasible_set=box, start_point=start, **hooks
    )
    return problem, counted


def _check_psgd_steps(problem, cfg, trace):
    """Each step x_t -> x_{t+1} of a finished zo-psgd run against the exact
    step soft(eta*x - d_t, gamma1) / (gamma2 + eta), clamped, in rationals.
    The float step rounds eta*x, the difference, the threshold, the sum
    and the quotient once each, a few ulps of the largest term, and a
    subnormal eta*x or step keeps only its absolute precision."""
    reg, box = problem.regularizer, problem.feasible_set
    g1, g2 = Fraction(reg.gamma1), Fraction(reg.gamma2)
    nu = default_smoothing(problem.dimension, cfg.T, "minibatch")
    bounds = list(zip(box.lo.tolist(), box.hi.tolist())) if box.is_box else [(-math.inf, math.inf)] * problem.dimension
    for t in range(1, len(trace.iterates)):
        x, got = trace.iterates[t - 1], trace.iterates[t]
        d_t = minibatch_gradient(problem, x, EstimatorConfig(nu=nu, batch=cfg.batch), (cfg.seed, t)).vector
        eta = Fraction(trace.records[t - 1].eta)
        for x_i, d_i, got_i, (lo, hi) in zip(x.tolist(), d_t.tolist(), got.tolist(), bounds):
            v = eta * Fraction(x_i) - Fraction(d_i)
            y = max(abs(v) - g1, 0) / (g2 + eta) * (1 if v > 0 else -1)
            y = y if lo == -math.inf else max(y, Fraction(lo))
            y = y if hi == math.inf else min(y, Fraction(hi))
            tol = ((abs(eta * Fraction(x_i)) + abs(Fraction(d_i)) + g1) / 10**12 + Fraction(1e-323)) / (g2 + eta)
            assert abs(Fraction(got_i) - y) <= tol + Fraction(5e-324), (t, x_i, d_i, float(eta), got_i, float(y))


def _run_outcome(family, d, lo, hi, start, gamma1, gamma2, tag, variant, eta, T, m, seed):
    counted = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            box = FeasibleSet.unconstrained() if lo is None else FeasibleSet.box(lo, hi)
            problem, counted = _build(family, d, ElasticNet(gamma1, gamma2), box, start)
            cfg = RunConfig(T=T, batch=m, eta_base=eta, seed=seed, stepsize_variant=variant)
            trace = run_algorithm(problem, cfg, tag)
        except NumericError as exc:
            assert exc.iteration is not None and exc.layer is not None, exc
            return
        except ValueError:
            assert counted is None or counted.calls == 0
            return
    for r in trace.records:
        assert all(map(math.isfinite, (r.objective, r.alpha, r.eta))), r
        assert r.stationarity_sq_l1 is None or math.isfinite(r.stationarity_sq_l1), r
    for values in (trace.tracking_sq, trace.minibatch_tracking_sq):
        assert values is None or all(map(math.isfinite, values))
    for x in [*trace.iterates, trace.sampled_point]:
        assert np.isfinite(x).all() and box.contains(x), x
    if tag == "zo-psgd":
        _check_psgd_steps(problem, cfg, trace)


@st.composite
def runs(draw):
    d = draw(st.sampled_from([1, 2, 5, 50]))
    shape = draw(st.sampled_from(["free", "box", "degenerate", "one-sided"]))
    if shape == "free":
        lo = hi = None
    else:
        # Up to five pairs of bounds, repeated across the coordinates.
        pairs = draw(st.lists(st.tuples(st.sampled_from(BOUNDS), st.sampled_from(BOUNDS)), min_size=1, max_size=5))
        pairs = [pairs[i % len(pairs)] for i in range(d)]
        if shape == "degenerate":
            pairs = [(a, a) for a, _ in pairs]
        elif shape == "one-sided":
            pairs = [(a, math.inf) if a < math.inf else (-math.inf, b) for a, b in pairs]
        lo = np.array([min(p) for p in pairs])
        hi = np.array([max(p) for p in pairs])
    start = None
    if lo is not None and draw(st.booleans()):
        start = np.clip(np.array([draw(st.sampled_from(BOUNDS)) for _ in range(min(d, 5))] * d)[:d], lo, hi)
    tag = draw(st.sampled_from(ALGORITHMS))
    return dict(
        family=draw(st.sampled_from(FAMILIES)),
        d=d,
        lo=lo,
        hi=hi,
        start=start,
        gamma1=draw(st.sampled_from(MAGNITUDES)),
        gamma2=draw(st.sampled_from(MAGNITUDES)),
        tag=tag,
        variant=draw(st.sampled_from(sorted(ALGORITHM_TABLE[tag].alpha_rules))),
        eta=draw(st.sampled_from(MAGNITUDES[1:])),
        T=draw(st.integers(1, 7)),
        m=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 4)),
    )


def _case(**overrides):
    base = dict(family="linear", d=1, lo=None, hi=None, start=None, gamma1=0.0, gamma2=0.0)
    base.update(tag="zo-ada-expgrad", variant="adaptive", eta=1.0, T=3, m=1, seed=0)
    return dict(base, **overrides)


# Minimal runs that failed the property before their mends; the subnormal
# box fails a start point of 0.5*lo + 0.5*hi unclipped.
# The default start's lo + hi overflowed.
HUGE_BOX = _case(lo=np.array([1e308]), hi=np.array([1.7e308]), tag="zo-psgd")
# A midpoint of halves rounds both to 0.0, outside the box.
SUBNORMAL_BOX = _case(lo=np.array([5e-324]), hi=np.array([5e-324]))
# eta_t = eta_base * alpha_t overflowed, and the prox raised a bare ValueError.
ETA_OVERFLOW = _case(d=2, gamma2=1e-3, tag="zo-expstorm", eta=1.7e308, T=7)
# eta * x overflowed in the Euclidean step, and the clamp hid it.
PSGD_PRODUCT = _case(lo=np.array([1e10]), hi=np.array([2e10]), start=np.array([1e10]), tag="zo-psgd", eta=1e300)
# gamma2 + eta overflowed to inf: the step read 0.0 for an exact 0.5.
PSGD_SCALE = _case(
    lo=np.array([-10.0]), hi=np.array([10.0]), start=np.array([1.0]), gamma2=1.7e308, tag="zo-psgd", eta=1.7e308, T=2
)
# eta * (x - P) overflowed in the gradient map with a RuntimeWarning.
GRADIENT_MAP = _case(family="quadratic", lo=np.array([-1e150]), hi=np.array([-1e8]), eta=1e300, T=1)


@settings(max_examples=500)
@given(runs())
@example(HUGE_BOX)
@example(SUBNORMAL_BOX)
@example(ETA_OVERFLOW)
@example(PSGD_PRODUCT)
@example(PSGD_SCALE)
@example(GRADIENT_MAP)
def test_every_run_ends_finite_or_raises_where(run):
    _run_outcome(**run)
