"""Property tests: the batch estimators against a by-hand sequential replay.

The replay rebuilds an estimate from public pieces only: the key's stream,
its ceil(m*d/8) packed sign bytes unpacked row-major, its m sample ids,
then per element the forward and base oracle values and a running total in
ascending element order.  Agreement is checked with array_equal and on the
raw bytes, so a sum that drops the zero start (and leaves a -0.0) fails.
"""

import math
import threading

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zomirror import EstimatorConfig, Problem, minibatch_gradient, paired_storm_estimates
from zomirror import rng, sampling

# B = sampling._BLOCK_SIGNS sign floats per row block (65,536): d above B
# is one row per block, and B//3 + 1, B//2 and B//2 + 1 put two, two and
# one rows in a block.
B = sampling._BLOCK_SIGNS
DIMENSIONS = st.one_of(
    st.integers(1, 24), st.sampled_from([1, 7, 9, B // 3 + 1, B // 2, B // 2 + 1, B, B + 1])
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
    xis = stream.integers(2**63, size=m).tolist()
    forwards = x + cfg.nu * signs
    coef = [(problem.oracle(forward, xi) - problem.oracle(x, xi)) / cfg.nu for forward, xi in zip(forwards, xis)]
    # Row j of the accumulation is the running total after element j - 1:
    # a strict left-to-right sum from zero, not a pairwise one.
    terms = np.concatenate([np.zeros((1, d)), np.array(coef)[:, None] * signs])
    return np.add.accumulate(terms)[-1] / m


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
@example((65537, 2, "quadratic", np.array([0.4, -1.0]), np.array([0.1]), np.array([-0.3]), 1e-3, (7, 4)))
@example((21846, 3, "linear", np.array([1.0, 2.0, -0.5]), np.array([0.2, -0.1]), np.array([0.05]), 0.1, (1, 2)))
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


# Each block adds its terms to the total in one einsum over [total; signs],
# which must equal adding c_j * u_j row by row.  Coefficients spread over
# 300 decades make any other summation order visible.  A block holds
# B // d rows, so with B a multiple of 8 later blocks start mid-byte
# (lo % 8 != 0) at d = 3, B - 1 and B + 1; d = 1 takes the row loop
# instead of the einsum.
CONTRACTION_DIMENSIONS = [1, 2, 3, B - 1, B, B + 1]


@st.composite
def contraction_cases(draw):
    d = draw(st.sampled_from(CONTRACTION_DIMENSIONS))
    rows = max(1, B // d)
    m = draw(st.sampled_from(sorted({1, max(1, rows - 1), rows + 1, 2 * rows + 3})))
    exponents = draw(st.lists(st.floats(-150, 150), min_size=1, max_size=8))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(exponents), max_size=len(exponents)))
    x = np.array(draw(st.lists(st.floats(-2, 2), min_size=1, max_size=6)))
    key = (draw(st.integers(0, 2**32)), draw(st.integers(1, 500)))
    return d, m, np.array(signs) * 10.0 ** np.array(exponents), x, key


@settings(max_examples=40, deadline=None)
@given(contraction_cases())
@example((3, 2733, np.array([1e150, -1e-150, 3.0]), np.array([0.5, -0.25]), (4, 9)))
@example((8191, 3, np.array([-1e100, 1e100, 1e-100]), np.array([0.3]), (1, 1)))
@example((65535, 3, np.array([-1e100, 1e100, 1e-100]), np.array([0.3]), (1, 1)))
def test_block_contraction_matches_sequential_sum(case):
    d, m, scales, x, key = case
    a = np.resize([1.0, -0.5, 0.25], d)
    # Python floats and ndarray.dot: the values of scales[i] * (a @ point)
    # at half the cost per call, which the largest batches make ~10*m times.
    scale_list = scales.tolist()

    def oracle(point, xi):
        return scale_list[xi % len(scale_list)] * float(a.dot(point))

    problem = Problem(dimension=d, oracle=oracle)
    cfg = EstimatorConfig(nu=0.5, batch=m)
    x = np.resize(x, d)
    x_prev = x[::-1] + 0.125
    est = minibatch_gradient(problem, x, cfg, key)
    cur, prev = paired_storm_estimates(problem, x, x_prev, cfg, key)
    assert same_bits(est.vector, replay(problem, x, cfg, key))
    assert same_bits(cur.vector, est.vector)
    assert same_bits(prev.vector, replay(problem, x_prev, cfg, key))


def test_contraction_cases_hold_partial_and_mid_byte_blocks():
    # Whatever the block size, the largest batch that contraction_cases
    # draws at some width ends in a partial block, and at some width a
    # block after the first starts mid-byte.
    partial = mid_byte = False
    for d in CONTRACTION_DIMENSIONS:
        rows = max(1, B // d)
        m = 2 * rows + 3
        partial |= m % rows != 0
        mid_byte |= any(j0 * d % 8 for j0 in range(rows, m, rows))
    assert partial and mid_byte


def test_one_raw_draw_equals_bytes_then_integers():
    # The estimator's single random_raw call against the two Generator
    # calls it replaces, over byte counts of every residue mod 8.
    for k in range(50):
        m, d = 1 + k % 9, 1 + (k * 37) % 61
        key = (k, "draw")
        packed, xis = sampling._draw(rng.stream(*key), m, d)
        stream = rng.stream(*key)
        assert packed.tobytes() == stream.bytes(math.ceil(m * d / 8))
        assert xis == stream.integers(2**63, size=m).tolist()


# Each estimate expands its signs and forward points into a buffer of its
# own, sized to fit d: consecutive estimates at changing d, estimates
# nested in an oracle (which must not overwrite the outer estimate's
# forward points) and estimates on concurrent threads all match the
# sequential replay.


def both_estimates(problem, x, x_prev, cfg, key):
    est = minibatch_gradient(problem, x, cfg, key)
    cur, prev = paired_storm_estimates(problem, x, x_prev, cfg, key)
    return est.vector, cur.vector, prev.vector


def check_against_replay(problem, x, x_prev, cfg, key):
    est, cur, prev = both_estimates(problem, x, x_prev, cfg, key)
    assert same_bits(est, replay(problem, x, cfg, key))
    assert same_bits(cur, est)
    assert same_bits(prev, replay(problem, x_prev, cfg, key))


def test_estimates_follow_dimension_changes():
    for d, m in ((3, 5), (2000, 7), (9000, 3), (70000, 2), (3, 5)):
        problem, _ = make_oracle("quadratic", d, np.array([0.4, -1.0, 0.3]))
        x = np.resize([0.1, -0.2, 0.7], d)
        check_against_replay(problem, x, x + 0.25, EstimatorConfig(nu=0.1, batch=m), (d, m))


def test_oracle_that_runs_an_estimate():
    d = 40
    inner, _ = make_oracle("linear", d, np.array([1.0, -2.0, 0.5]))
    inner_cfg = EstimatorConfig(nu=0.5, batch=300)

    def oracle(x, xi):
        g = minibatch_gradient(inner, x * 0.5, inner_cfg, (xi % 4,)).vector
        return 0.5 * float(x @ x) + float(g @ x)

    problem = Problem(dimension=d, oracle=oracle)
    x = np.linspace(-1.0, 1.0, d)
    check_against_replay(problem, x, x[::-1].copy(), EstimatorConfig(nu=0.1, batch=250), (9, 2))


def held_at_first_call(oracle, barrier):
    """The oracle, waiting at its first call until the other thread does too."""
    first = [True]

    def held(x, xi):
        if first[0]:
            first[0] = False
            barrier.wait(timeout=30)
        return oracle(x, xi)

    return held


def test_threads_with_interleaved_estimates():
    jobs = [(d, m, key) for d, m in ((5, 9), (3000, 4), (700, 30)) for key in ((1, 1), (2, 7))]

    def run_all(dims, barrier):
        out = []
        for d, m, key in dims:
            problem, _ = make_oracle("quadratic", d, np.array([0.5, 1.5]))
            if barrier is not None:
                # Both threads are inside an estimate at the same time.
                problem = Problem(dimension=d, oracle=held_at_first_call(problem.oracle, barrier))
            x = np.resize([0.3, -0.4], d)
            out.append(both_estimates(problem, x, x - 0.1, EstimatorConfig(nu=0.01, batch=m), key))
        return out

    sequential = [run_all(jobs, None), run_all(jobs[::-1], None)]
    barrier = threading.Barrier(2)
    threaded = [None, None]

    def worker(slot, dims):
        threaded[slot] = run_all(dims, barrier)

    threads = [threading.Thread(target=worker, args=(0, jobs)), threading.Thread(target=worker, args=(1, jobs[::-1]))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, want in zip(threaded, sequential):
        assert got is not None and len(got) == len(want)
        for a, b in zip(got, want):
            assert all(same_bits(u, v) for u, v in zip(a, b))
