"""Property tests: the batch estimators against a by-hand sequential replay.

The replay rebuilds an estimate from public pieces only: the key's stream,
its ceil(m*d/8) packed sign bytes unpacked row-major, its m sample ids,
then per element the forward and base oracle values and a running total in
ascending element order.  Agreement is checked with array_equal and on the
raw bytes, so a sum that drops the zero start (and leaves a -0.0) fails.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zomirror import EstimatorConfig, Problem, minibatch_gradient, paired_storm_estimates
from zomirror import rng

# 8,192 sign floats per row block: d above that is one row per block, and
# 2731, 4096 and 4097 put two, two and one rows in a block.
DIMENSIONS = st.one_of(
    st.integers(1, 24), st.sampled_from([1, 7, 9, 2731, 4096, 4097, 8192, 8193])
)


def make_oracle(kind, d, weights):
    """A counted scalar oracle; 'flat' makes every coefficient zero."""
    calls = []
    if kind == "flat":
        def value(x, xi):
            return 1.5
    elif kind == "linear":
        a = np.resize(weights, d)

        def value(x, xi):
            return float(a @ x) * ((xi % 3) + 1)
    else:
        c = np.resize(weights, d)

        def value(x, xi):
            r = x - c * ((xi % 5) - 2)
            return 0.5 * float(r @ r)

    def oracle(x, xi):
        calls.append((x.copy(), xi))
        return value(x, xi)

    return Problem(dimension=d, oracle=oracle), calls


def replay(problem, x, cfg, key):
    d, m = problem.dimension, cfg.batch
    stream = rng.stream(*key)
    packed = np.frombuffer(stream.bytes(math.ceil(m * d / 8)), dtype=np.uint8)
    signs = 2.0 * np.unpackbits(packed)[: m * d].reshape(m, d) - 1.0
    xis = stream.integers(2**63, size=m)
    total = np.zeros(d)
    for j in range(m):
        u, xi = signs[j], int(xis[j])
        forward = problem.oracle(x + cfg.nu * u, xi)
        base = problem.oracle(x, xi)
        total += ((forward - base) / cfg.nu) * u
    return total / m


def same_bits(a, b):
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


@st.composite
def cases(draw):
    d = draw(DIMENSIONS)
    m = draw(st.integers(1, 12 if d <= 24 else 3))
    kind = draw(st.sampled_from(["flat", "linear", "quadratic"]))
    weights = np.array(draw(st.lists(st.floats(-3, 3), min_size=1, max_size=6)))
    x = np.array(draw(st.lists(st.floats(-2, 2), min_size=1, max_size=6)))
    shift = np.array(draw(st.lists(st.floats(-1, 1), min_size=1, max_size=6)))
    nu = draw(st.sampled_from([1e-3, 0.1, 0.5]))
    key = (draw(st.integers(0, 2**32)), draw(st.integers(1, 500)))
    return d, m, kind, weights, x, shift, nu, key


@settings(max_examples=60)
@given(cases())
@example((1, 9, "linear", np.array([0.7]), np.array([0.3]), np.array([0.2]), 0.1, (5, 1)))
@example((1, 8, "flat", np.array([1.0]), np.array([0.0]), np.array([0.0]), 0.5, (2, 3)))
@example((8193, 2, "quadratic", np.array([0.4, -1.0]), np.array([0.1]), np.array([-0.3]), 1e-3, (7, 4)))
@example((2731, 3, "linear", np.array([1.0, 2.0, -0.5]), np.array([0.2, -0.1]), np.array([0.05]), 0.1, (1, 2)))
def test_estimators_match_sequential_replay(case):
    d, m, kind, weights, x, shift, nu, key = case
    problem, calls = make_oracle(kind, d, weights)
    cfg = EstimatorConfig(nu=nu, batch=m)
    x = np.resize(x, d)
    x_prev = x + np.resize(shift, d)

    est = minibatch_gradient(problem, x, cfg, key)
    assert len(calls) == 2 * m
    calls.clear()
    cur, prev = paired_storm_estimates(problem, x, x_prev, cfg, key)
    assert len(calls) == 4 * m
    # Per element: x_t forward, x_t, x_prev forward, x_prev, one sample id.
    for j in range(m):
        (_, xi), (at_t, _), (_, _), (at_prev, _) = calls[4 * j : 4 * j + 4]
        assert {i for _, i in calls[4 * j : 4 * j + 4]} == {xi}
        assert np.array_equal(at_t, x) and np.array_equal(at_prev, x_prev)
    assert est.oracle_calls == cur.oracle_calls == prev.oracle_calls == 2 * m

    assert same_bits(est.vector, replay(problem, x, cfg, key))
    assert same_bits(cur.vector, est.vector)
    assert same_bits(prev.vector, replay(problem, x_prev, cfg, key))
