"""Two-point Rademacher gradient estimation and smoothing defaults."""

import math
import sys
import threading

import numpy as np
import pytest

from zomirror import (
    EstimatorConfig,
    NumericError,
    Problem,
    RunConfig,
    check_batch_size,
    default_smoothing,
    minibatch_gradient,
    paired_storm_estimates,
    run_zo_expstorm,
    two_point_estimate,
)
from zomirror import rng

from oracles import all_sign_vectors, enumerated_linear_mean, paired_call_order


def quadratic_problem(d=2):
    return Problem(
        dimension=d,
        oracle=lambda x, xi: 0.5 * float(x @ x),
        exact_gradient=lambda x: x.copy(),
    )


def linear_problem(a):
    a = np.asarray(a, dtype=float)
    return Problem(dimension=a.size, oracle=lambda x, xi: float(a @ x))


class TestEstimatorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(nu=0.0, batch=1)
        with pytest.raises(ValueError):
            EstimatorConfig(nu=0.1, batch=0)
        with pytest.raises(ValueError, match="nu must be positive"):
            EstimatorConfig(nu=math.inf, batch=1)
        for bad in (2.5, True, 3.0):
            with pytest.raises(ValueError, match="batch must be a positive integer"):
                EstimatorConfig(nu=0.1, batch=bad)

    def test_rejects_nan_nu(self):
        with pytest.raises(ValueError, match="nu must be positive"):
            EstimatorConfig(nu=math.nan, batch=1)


class TestTwoPoint:
    def test_linear_oracle_is_exact_per_probe(self):
        # For l(x) = <a, x> the finite difference is exact: estimate = <a,u>u.
        a = np.array([2.0, -3.0, 0.5])
        prob = linear_problem(a)
        u = np.array([1.0, -1.0, -1.0])
        est = two_point_estimate(prob, np.zeros(3), u, 0.37, 0)
        assert np.allclose(est, float(a @ u) * u, atol=1e-12)

    def test_quadratic_hand_value(self):
        # l = ||x||^2/2, x = (1,0), u = (1,1), nu = 0.1:
        # (l(x+nu u) - l(x))/nu = (0.61 - 0.5)/0.1 = 1.1.
        prob = quadratic_problem()
        u = np.ones(2)
        est = two_point_estimate(prob, np.array([1.0, 0.0]), u, 0.1, 0)
        assert np.allclose(est, [1.1, 1.1], atol=1e-12)
        est0 = two_point_estimate(prob, np.zeros(2), u, 0.1, 0)
        assert np.allclose(est0, [0.1, 0.1], atol=1e-12)

    def test_enumerated_mean_matches_expectation(self):
        # Averaging over all 2^d sign vectors recovers <a,u>u's mean exactly,
        # which for a linear loss is the gradient itself.
        a = np.array([1.5, -0.25, 4.0, 0.0])
        prob = linear_problem(a)
        x = np.array([0.3, -1.0, 0.0, 2.0])
        acc = np.zeros(4)
        signs = all_sign_vectors(4)
        for u in signs:
            acc += two_point_estimate(prob, x, u, 0.5, 0)
        acc /= len(signs)
        assert np.max(np.abs(acc - enumerated_linear_mean(a))) <= 1e-12
        assert np.max(np.abs(acc - a)) <= 1e-12

    def test_rejects_nonpositive_nu(self):
        # NaN and inf are rejected before the oracle sees a non-finite point.
        for nu in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^nu must be positive and finite$"):
                two_point_estimate(quadratic_problem(), np.zeros(2), np.ones(2), nu, 0)

    def test_overflowing_difference_raises(self):
        # The difference 1e300 over nu = 1e-20 overflows to +-inf per entry.
        prob = Problem(dimension=4, oracle=lambda x, xi: 1e300 if x[0] > 0 else 0.0)
        u = np.array([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(NumericError, match=r"^two-point estimate has a non-finite entry \(nu=1e-20\)"):
            two_point_estimate(prob, np.zeros(4), u, 1e-20, 0)

    def test_nonfinite_oracle_reports_sample(self):
        prob = Problem(dimension=1, oracle=lambda x, xi: math.nan)
        with pytest.raises(NumericError, match="xi=3"):
            two_point_estimate(prob, np.zeros(1), np.ones(1), 0.1, 3)


class TestMinibatch:
    def test_oracle_call_count(self):
        est = minibatch_gradient(
            quadratic_problem(), np.zeros(2), EstimatorConfig(nu=0.1, batch=7), (0, 1)
        )
        assert est.oracle_calls == 14

    def test_deterministic_for_fixed_key(self):
        prob = quadratic_problem(5)
        cfg = EstimatorConfig(nu=0.05, batch=3)
        x = rng.stream("test-mb", 0).standard_normal(5)
        a = minibatch_gradient(prob, x, cfg, (9, 2))
        b = minibatch_gradient(prob, x, cfg, (9, 2))
        assert np.array_equal(a.vector, b.vector)

    def test_distinct_keys_decorrelate(self):
        prob = quadratic_problem(5)
        cfg = EstimatorConfig(nu=0.05, batch=3)
        x = np.ones(5)
        a = minibatch_gradient(prob, x, cfg, (9, 2))
        b = minibatch_gradient(prob, x, cfg, (9, 3))
        assert not np.array_equal(a.vector, b.vector)

    def test_matches_manual_replay_of_stream_paths(self):
        # The batch draws from the single stream named by key: the m*d signs
        # as ceil(m*d/8) packed bytes read row-major by np.unpackbits (bit
        # 1 is +1), then the m sample ids from integers(2**63, size=m).
        # d=3 and m=5 make rows straddle byte boundaries.  Replaying that
        # by hand must reproduce the batch mean bit for bit.
        prob = Problem(
            dimension=3, oracle=lambda x, xi: float((xi % 4) + 1) * 0.5 * float(x @ x)
        )
        cfg = EstimatorConfig(nu=0.2, batch=5)
        x = np.array([0.4, -1.1, 2.0])
        key = (123, 17)
        stream = rng.stream(*key)
        packed = np.frombuffer(stream.bytes(math.ceil(cfg.batch * 3 / 8)), dtype=np.uint8)
        signs = 2.0 * np.unpackbits(packed)[: cfg.batch * 3].reshape(cfg.batch, 3) - 1.0
        xis = stream.integers(2**63, size=cfg.batch)
        total = np.zeros(3)
        for j in range(cfg.batch):
            u, xi = signs[j], int(xis[j])
            forward = prob.oracle(x + cfg.nu * u, xi)
            base = prob.oracle(x, xi)
            total += ((forward - base) / cfg.nu) * u
        est = minibatch_gradient(prob, x, cfg, key)
        assert np.array_equal(est.vector, total / cfg.batch)

    def test_oracle_sees_forward_then_base_in_element_order(self):
        # 2m scalar calls per estimate: element j's forward point x + nu*u_j,
        # then the base point x, both with sample id xi_j.
        seen = []

        def oracle(x, xi):
            seen.append((x.copy(), xi))
            return float(x.sum())

        prob = Problem(dimension=11, oracle=oracle)
        cfg = EstimatorConfig(nu=0.5, batch=4)
        x = np.linspace(-1.0, 1.0, 11)
        minibatch_gradient(prob, x, cfg, (4, 2))
        assert len(seen) == 2 * cfg.batch
        for j in range(cfg.batch):
            (fwd, xi_f), (base, xi_b) = seen[2 * j], seen[2 * j + 1]
            assert xi_f == xi_b
            assert np.array_equal(base, x)
            assert set(np.round((fwd - x) / cfg.nu, 12)) <= {-1.0, 1.0}

    def test_linear_minibatch_mean_is_near_gradient(self):
        a = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        prob = linear_problem(a)
        cfg = EstimatorConfig(nu=1.0, batch=4096)
        est = minibatch_gradient(prob, np.zeros(5), cfg, ("test-mb", "law"))
        assert np.max(np.abs(est.vector - a)) < 0.25

    def test_overflowing_difference_raises(self):
        # A finite oracle difference over a tiny nu overflows to +-inf, and
        # the row sums turn inf + (-inf) into NaN.
        prob = Problem(dimension=4, oracle=lambda x, xi: 1e300 if x[0] > 0 else 0.0)
        cfg = EstimatorConfig(nu=1e-20, batch=8)
        with pytest.raises(NumericError, match=r"^batch estimate has a non-finite entry"):
            minibatch_gradient(prob, np.zeros(4), cfg, (0, 1))
        with pytest.raises(NumericError, match=r"^batch estimate has a non-finite entry"):
            paired_storm_estimates(prob, np.zeros(4), np.ones(4), cfg, (0, 1))


class TestPairedStorm:
    def test_shared_probes_collapse_at_equal_points(self):
        prob = quadratic_problem(4)
        cfg = EstimatorConfig(nu=0.1, batch=5)
        x = np.array([1.0, -2.0, 0.0, 0.5])
        cur, prev = paired_storm_estimates(prob, x, x.copy(), cfg, (3, 8))
        assert np.array_equal(cur.vector, prev.vector)

    def test_call_accounting_per_point(self):
        prob = quadratic_problem(2)
        cur, prev = paired_storm_estimates(
            prob, np.zeros(2), np.ones(2), EstimatorConfig(nu=0.1, batch=6), (0, 2)
        )
        assert cur.oracle_calls == 12
        assert prev.oracle_calls == 12

    def test_current_point_estimate_equals_plain_minibatch(self):
        # The paired batch at x_t reuses exactly the minibatch stream paths,
        # so it coincides with minibatch_gradient under the same key.
        prob = quadratic_problem(3)
        cfg = EstimatorConfig(nu=0.05, batch=4)
        x_t = np.array([0.2, 0.9, -0.4])
        x_prev = np.array([0.1, 1.0, -0.3])
        cur, _ = paired_storm_estimates(prob, x_t, x_prev, cfg, (7, 5))
        plain = minibatch_gradient(prob, x_t, cfg, (7, 5))
        assert np.array_equal(cur.vector, plain.vector)

    def test_pairing_shrinks_difference_variance(self):
        # Shared (u, xi) makes est(x_t) - est(x_prev) track the gradient gap;
        # independent keys would leave O(1) noise in the difference.
        prob = quadratic_problem(6)
        cfg = EstimatorConfig(nu=0.01, batch=2)
        x_prev = np.ones(6)
        x_t = x_prev + 0.01
        gaps = []
        for r in range(200):
            cur, prev = paired_storm_estimates(prob, x_t, x_prev, cfg, ("var", r))
            gaps.append(np.max(np.abs(cur.vector - prev.vector)))
        # True gradient gap has l_inf norm 0.01; shared noise cancels to O(d*nu).
        assert max(gaps) < 0.5


def stream_draws(key, m, d):
    """The m probe rows and m sample ids that the key's stream holds."""
    stream = rng.stream(*key)
    packed = np.frombuffer(stream.bytes(math.ceil(m * d / 8)), dtype=np.uint8)
    signs = 2.0 * np.unpackbits(packed)[: m * d].reshape(m, d) - 1.0
    return signs, stream.integers(2**63, size=m).tolist()


class TestOracleCallContract:
    # d = 30000 puts two probe rows in a block, so m = 5 spans three
    # blocks, the last one partial; d = 5 and d = 3000 put all of them in
    # one block.

    @pytest.mark.parametrize("d", [5, 3000, 30000])
    def test_paired_order_per_element(self, d):
        # Per block: each element's forward point and x_t, then each
        # element's forward point and x_prev, with xi_j and both forward
        # points of element j on the same u_j.
        seen = []

        def oracle(x, xi):
            seen.append((x.copy(), xi))
            return float(x[0])

        m, nu, key = 5, 0.5, (6, 3)
        x_t = np.resize([0.25, -0.5, 1.0], d)
        x_prev = np.resize([-0.75, 0.125], d)
        paired_storm_estimates(Problem(dimension=d, oracle=oracle), x_t, x_prev, EstimatorConfig(nu=nu, batch=m), key)
        signs, xis = stream_draws(key, m, d)
        order = paired_call_order(m, d)
        assert len(seen) == len(order) == 4 * m
        # Rows [0, 5) are one block at d = 5 and 3000; at d = 30000 the
        # blocks are [0, 2), [2, 4) and [4, 5).
        blocks = [range(5)] if d < 30000 else [range(0, 2), range(2, 4), range(4, 5)]
        assert [(p, j) for p, j, _ in order[::2]] == [(p, j) for block in blocks for p in (0, 1) for j in block]
        for (point, xi), (p, j, forward) in zip(seen, order):
            base = (x_t, x_prev)[p]
            assert xi == xis[j]
            assert np.array_equal(point, base + nu * signs[j] if forward else base)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("d", [5, 3000, 30000])
    def test_nonfinite_value_stops_the_estimate_at_once(self, bad, d):
        # A non-finite value at element j raises, naming xi_j, before any
        # later call: the one-point estimate's forward point is call 2j + 1
        # and its base point 2j + 2; the paired estimate's four calls of
        # element j are where paired_call_order puts them.
        m, key = 5, (2, 8)
        _, xis = stream_draws(key, m, d)
        x_t, x_prev = np.full(d, 0.5), np.full(d, -0.25)
        cfg = EstimatorConfig(nu=0.1, batch=m)
        order = paired_call_order(m, d)
        for j in range(m):
            paired_stops = [n + 1 for n, (_, element, _) in enumerate(order) if element == j]
            for paired, stop in [(False, 2 * j + 1), (False, 2 * j + 2)] + [(True, n) for n in paired_stops]:
                calls = []

                def oracle(x, xi):
                    calls.append(xi)
                    return bad if len(calls) == stop else float(x.sum())

                problem = Problem(dimension=d, oracle=oracle)
                with pytest.raises(NumericError, match=rf"^oracle returned a non-finite value for sample xi={xis[j]}$"):
                    if paired:
                        paired_storm_estimates(problem, x_t, x_prev, cfg, key)
                    else:
                        minibatch_gradient(problem, x_t, cfg, key)
                assert len(calls) == stop


def replay(problem, x, cfg, key):
    """The batch mean rebuilt element by element from the key's stream."""
    signs, xis = stream_draws(key, cfg.batch, problem.dimension)
    total = np.zeros(problem.dimension)
    for u, xi in zip(signs, xis):
        forward = problem.oracle(x + cfg.nu * u, xi)
        base = problem.oracle(x, xi)
        total += ((forward - base) / cfg.nu) * u
    return total / cfg.batch


def same_bits(a, b):
    return a.tobytes() == b.tobytes()


def recording_problem(d, seen):
    """A quadratic oracle that keeps every point it is handed, not a copy."""
    c = np.linspace(-1.0, 1.0, d)

    def oracle(x, xi):
        seen.append(x)
        r = x - c * ((xi % 3) - 1)
        return 0.5 * float(r @ r)

    return Problem(dimension=d, oracle=oracle)


def shares_any(xs, ys):
    return any(np.shares_memory(x, y) for x in xs for y in ys)


class TestEstimateBuffers:
    # Each estimate allocates its own block buffer; a forward point handed
    # to the oracle is a row of it.

    def test_nested_estimate_gets_its_own_buffer(self):
        inner_seen, outer_seen, inner_vectors = [], [], []
        inner = recording_problem(30, inner_seen)
        inner_cfg = EstimatorConfig(nu=0.5, batch=4)

        def oracle(x, xi):
            outer_seen.append(x)
            g = minibatch_gradient(inner, x * 0.5, inner_cfg, (xi % 5,)).vector
            inner_vectors.append((x * 0.5, xi % 5, g))
            return 0.5 * float(x @ x) + float(g @ x)

        problem = Problem(dimension=30, oracle=oracle)
        cfg = EstimatorConfig(nu=0.1, batch=6)
        x = np.linspace(-1.0, 1.0, 30)
        est = minibatch_gradient(problem, x, cfg, (9, 2))
        assert len(outer_seen) == 2 * cfg.batch
        assert not shares_any(inner_seen, outer_seen[0::2])
        assert same_bits(est.vector, replay(problem, x, cfg, (9, 2)))
        for point, key, g in inner_vectors:
            assert same_bits(g, replay(inner, point, inner_cfg, (key,)))

    def test_estimate_after_a_raising_oracle_equals_a_fresh_thread(self):
        calls = []

        def oracle(x, xi):
            calls.append(xi)
            if len(calls) == 5:
                raise ZeroDivisionError("oracle failed")
            return 0.5 * float(x @ x) * ((xi % 3) + 1)

        problem = Problem(dimension=40, oracle=oracle)
        cfg = EstimatorConfig(nu=0.1, batch=7)
        x, x_prev = np.linspace(-1.0, 1.0, 40), np.linspace(1.0, -2.0, 40)
        with pytest.raises(ZeroDivisionError):
            paired_storm_estimates(problem, x, x_prev, cfg, (3, 1))
        after = paired_storm_estimates(problem, x, x_prev, cfg, (3, 2))
        fresh = []
        worker = threading.Thread(target=lambda: fresh.extend(paired_storm_estimates(problem, x, x_prev, cfg, (3, 2))))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive() and len(fresh) == 2
        for a, b in zip(after, fresh):
            assert same_bits(a.vector, b.vector)

    def test_threads_never_share_a_buffer(self):
        # First both threads are inside an estimate at once; then they take
        # turns, one thread's estimates after the other's, so a buffer
        # shared across threads would show.
        barrier = threading.Barrier(2)
        seen = [[], []]
        done = [0, 0]

        def worker(slot):
            record = recording_problem(200, seen[slot]).oracle
            first = [True]

            def oracle(x, xi):
                if first[0]:
                    first[0] = False
                    barrier.wait(timeout=30)
                return record(x, xi)

            problem = Problem(dimension=200, oracle=oracle)
            x = np.full(200, 0.25 * slot)
            for turn in range(7):
                if turn == 0 or turn % 2 == slot:
                    minibatch_gradient(problem, x, EstimatorConfig(nu=0.1, batch=8), (slot, turn))
                    paired_storm_estimates(problem, x, x + 0.5, EstimatorConfig(nu=0.1, batch=5), (slot, turn))
                    done[slot] += 1
                barrier.wait(timeout=30)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and done == [4, 4]
        # The base points are the workers' own arrays; forward points are views.
        forwards = [[x for x in points if x.base is not None] for points in seen]
        assert forwards[0] and forwards[1]
        assert not shares_any(forwards[0], forwards[1])


class TestBatchSize:
    @pytest.mark.parametrize("d", [1, 10, 64, 2000, 10**6])
    def test_limit_is_four_gib_of_draw(self, d):
        # ceil(m*d/64) + m raw words of 8 bytes, and 52 bytes per sample id.
        def draw_bytes(m):
            return 8 * (math.ceil(m * d / 64) + m) + 52 * m

        m = 1
        while draw_bytes(2 * m) <= 2**32:
            m *= 2
        step = m
        while step > 1:
            step //= 2
            if draw_bytes(m + step) <= 2**32:
                m += step
        check_batch_size(m, d)
        with pytest.raises(ValueError, match=rf"^batch m = {m + 1} at d = {d} draws {draw_bytes(m + 1):,} bytes"):
            check_batch_size(m + 1, d)

    def test_run_rejects_the_batch_before_any_oracle_call(self):
        calls = []
        problem = Problem(dimension=10, oracle=lambda x, xi: calls.append(xi) or 0.0)
        with pytest.raises(ValueError, match=r"^batch m = 1000000000000 at d = 10 draws "):
            run_zo_expstorm(problem, RunConfig(T=120, batch=10**12))
        assert calls == []


    def test_numpy_counts_do_not_wrap(self):
        # 2**40 * 2**30 wraps past 2**63 as numpy int64 products.
        with pytest.raises(ValueError, match=r"^batch m = 1099511627776 at d = 1073741824 draws "):
            check_batch_size(np.int64(2**40), np.int64(2**30))


class TestDefaultSmoothing:
    def test_minibatch_rule(self):
        assert default_smoothing(1, 1, "minibatch") == 1.0
        assert default_smoothing(100, 400, "minibatch") == pytest.approx(5e-4, rel=1e-12)

    def test_storm_rule(self):
        assert default_smoothing(1, 1, "storm") == 1.0
        assert default_smoothing(10, 1000, "storm") == pytest.approx(1e-3, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_smoothing(0, 10, "minibatch")
        with pytest.raises(ValueError):
            default_smoothing(10, 0, "storm")
        with pytest.raises(ValueError):
            default_smoothing(10, 10, "unknown")

    @pytest.mark.parametrize(
        "d, T, variant",
        [(math.nan, 3, "storm"), (True, 2.5, "minibatch"), (2.5, 3, "minibatch"), (3, True, "storm")],
    )
    def test_counts_must_be_integers(self, d, T, variant):
        with pytest.raises(ValueError, match="must be a positive integer"):
            default_smoothing(d, T, variant)
