"""Property tests: the run loop's bookkeeping against its np.sum/np.all forms.

``stepsize_update``, ``solvers._objective`` with its stacked
``elastic_net_value`` and ``FeasibleSet.contains`` call numpy's reductions
directly.  Each must equal its frozen form in ``tests/oracles.py`` bit for
bit, floats compared as uint64, over widths on both sides of numpy's
pairwise-sum blocks and over entries that stress the arithmetic: signed
zeros, subnormals, entries whose squares or sums overflow, and NaN for
``contains``.  ``FeasibleSet.clamp`` must equal ``np.clip`` bit for bit,
NaN and infinities included.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from zomirror import ElasticNet, FeasibleSet, Problem, elastic_net_value
from zomirror import solvers
from zomirror.solvers import stepsize_update

from oracles import contains_reference, objective_reference, stepsize_update_reference

# 8, 128 and 129 sit at the edges of numpy's pairwise-sum blocks.
WIDTHS = [1, 7, 8, 128, 129, 500, 2000]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0, -1.5, 1e154, -1e200, 1e300, -1.7e308]
ENTRIES = st.one_of(st.sampled_from(SPECIALS), st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-4, 0.5, 3.0, 1e300]), st.floats(0.0, 1e6))
RULES = [None, solvers._md_alpha, solvers._fw_alpha, solvers._storm_alpha]


def bits(*values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


@st.composite
def stacks(draw, rows):
    """A (rows, d) stack whose entries come from a drawn pool of ENTRIES."""
    d = draw(st.sampled_from(WIDTHS))
    pool = np.array(draw(st.lists(ENTRIES, min_size=1, max_size=8)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gen.choice(pool, size=(rows, d))


def outcome(fn, *args):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return bits(*fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    X=stacks(2),
    alpha=st.one_of(st.sampled_from([1.0, 1.5, 1e300]), st.floats(1.0, 1e6)),
    accum=st.one_of(st.sampled_from([0.0, 5e-324, 1e308]), st.floats(0.0, 1e6)),
    rule=st.sampled_from(RULES),
    t=st.integers(1, 500),
    m=st.integers(1, 64),
)
def test_stepsize_update_equals_np_sum_form(X, alpha, accum, rule, t, m):
    x, y = X
    got = outcome(stepsize_update, x, y, alpha, accum, rule, t, m)
    assert got == outcome(stepsize_update_reference, x, y, alpha, accum, rule, t, m)


@settings(max_examples=150, deadline=None)
@given(
    X=st.integers(1, 5).flatmap(stacks),
    losses=st.lists(ENTRIES, min_size=5, max_size=5),
    gamma1=WEIGHTS,
    gamma2=WEIGHTS,
)
def test_objective_rows_equal_one_point_sum(X, losses, gamma1, gamma2):
    losses = np.array(losses[: len(X)])
    problem = Problem(
        dimension=X.shape[1],
        oracle=lambda x, xi: 0.0,
        mean_loss=lambda stack: losses,
        regularizer=ElasticNet(gamma1, gamma2),
    )
    with np.errstate(over="ignore"):
        got = solvers._objective(problem, X)
        want = objective_reference(losses, X, gamma1, gamma2)
    assert all(type(v) is float for v in got)
    assert bits(*got) == bits(*want)
    # Each row of the stacked regularizer is the one-point value.
    rows = elastic_net_value(problem.regularizer, X)
    assert rows.shape == (len(X),)
    assert bits(*rows) == bits(*(elastic_net_value(problem.regularizer, x) for x in X))


@st.composite
def boxes(draw):
    """Bounds from two drawn rows, and a point inside them but for at most
    one coordinate, which may sit just outside, at a bound or be NaN."""
    lo, hi = np.sort(draw(stacks(2)), axis=0)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.where(gen.random(lo.size) < 0.5, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        mid = lo + (hi - lo) / 2
    x = np.where(np.isfinite(mid) & (gen.random(lo.size) < 0.3), mid, x)
    i = draw(st.integers(0, lo.size - 1))
    kind = draw(st.sampled_from(["inside", "below", "above", "nan", "ulp-below", "ulp-above"]))
    # A step past a bound near the float range may overflow to +-inf.
    with np.errstate(over="ignore"):
        if kind == "below":
            x[i] = lo[i] - draw(st.sampled_from([1e-12, 1e-9, 1.0, 1e300]))
        elif kind == "above":
            x[i] = hi[i] + draw(st.sampled_from([1e-12, 1e-9, 1.0, 1e300]))
        elif kind == "nan":
            x[i] = math.nan
        elif kind == "ulp-below":
            x[i] = np.nextafter(lo[i], -math.inf)
        elif kind == "ulp-above":
            x[i] = np.nextafter(hi[i], math.inf)
    return lo, hi, x


@settings(max_examples=150, deadline=None)
@given(box=boxes(), atol=st.sampled_from([0.0, -0.0, 5e-324, 1e-12, 1e-9, 1.0, 1e300]))
def test_contains_equals_np_all_form(box, atol):
    lo, hi, x = box
    fs = FeasibleSet.box(lo, hi)
    with np.errstate(over="ignore"):
        assert fs.contains(x, atol=atol) is contains_reference(lo, hi, x, atol)
    assert FeasibleSet.unconstrained().contains(x, atol=atol) is True


@settings(max_examples=100, deadline=None)
@given(box=boxes(), rows=st.integers(1, 4), atol=st.sampled_from([0.0, 1e-12, 1.0]))
def test_contains_on_a_stack_equals_np_all_form(box, rows, atol):
    # A (k, d) stack of points is contained when every row is.
    lo, hi, x = box
    stack = np.vstack([np.where(np.isnan(x), lo, x)] * (rows - 1) + [x])
    fs = FeasibleSet.box(lo, hi)
    with np.errstate(over="ignore"):
        assert fs.contains(stack, atol=atol) is contains_reference(lo, hi, stack, atol)


CLAMP_ENTRIES = st.one_of(ENTRIES, st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.0, -0.0]))


@settings(max_examples=150, deadline=None)
@given(
    bounds=stacks(2),
    pool=st.lists(CLAMP_ENTRIES, min_size=1, max_size=8),
    rows=st.integers(0, 3),
    degenerate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_clamp_equals_np_clip(bounds, pool, rows, degenerate, seed):
    # One point (rows 0) or a (rows, d) stack; a degenerate box has lo == hi.
    lo, hi = np.sort(bounds, axis=0)
    if degenerate:
        hi = lo.copy()
    gen = np.random.default_rng(seed)
    x = gen.choice(np.array(pool), size=(rows, lo.size) if rows else lo.size)
    got = FeasibleSet.box(lo, hi).clamp(x)
    assert got.view(np.uint64).tolist() == np.clip(x, lo, hi).view(np.uint64).tolist()


def test_clamp_special_values():
    lo = np.array([-0.0, 0.0, -1.0, 5e-324, 2.0, -math.inf])
    hi = np.array([0.0, 0.0, 1.0, 1e-310, 2.0, math.inf])
    x = np.array(
        [
            [0.0, -0.0, math.nan, 0.0, math.inf, -math.inf],
            [-0.0, -5e-324, math.inf, -0.0, -math.inf, math.nan],
            [math.nan, 5e-324, -math.inf, 1e-309, 2.0, 1e308],
        ]
    )
    fs = FeasibleSet.box(lo, hi)
    for point in (x, *x):
        assert fs.clamp(point).view(np.uint64).tolist() == np.clip(point, lo, hi).view(np.uint64).tolist()
